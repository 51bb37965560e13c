package cliflags

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safeguard/internal/telemetry"
)

func TestActivateRejectsBadStats(t *testing.T) {
	t.Parallel()
	tf := &TelemetryFlags{stats: "yaml"}
	if err := tf.Activate(); err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Fatalf("Activate(-stats yaml) = %v, want a naming error", err)
	}
}

func TestActivateBuildsHandles(t *testing.T) {
	t.Parallel()
	tf := &TelemetryFlags{stats: "json", trace: filepath.Join(t.TempDir(), "t.trace")}
	if err := tf.Activate(); err != nil {
		t.Fatal(err)
	}
	if tf.Registry == nil || tf.Tracer == nil {
		t.Fatalf("handles not built: reg=%v tracer=%v", tf.Registry, tf.Tracer)
	}
	// Nothing requested: both stay nil (telemetry-off costs nothing).
	empty := &TelemetryFlags{}
	if err := empty.Activate(); err != nil {
		t.Fatal(err)
	}
	if empty.Registry != nil || empty.Tracer != nil {
		t.Fatal("zero flags built handles")
	}
	if err := empty.Finish(io.Discard); err != nil {
		t.Fatalf("Finish with nothing activated: %v", err)
	}
}

func TestFinishUnwritableTracePath(t *testing.T) {
	t.Parallel()
	tf := &TelemetryFlags{trace: filepath.Join(t.TempDir(), "no-such-dir", "t.trace")}
	if err := tf.Activate(); err != nil {
		t.Fatal(err)
	}
	tf.Tracer.Emit(telemetry.Event{Cycle: 1, Kind: telemetry.EvQuarantine})
	if err := tf.Finish(io.Discard); err == nil {
		t.Fatal("Finish wrote a trace into a nonexistent directory")
	}
}

func TestActivateHTTPBindFailure(t *testing.T) {
	t.Parallel()
	// Claim a port, then ask Activate to bind it again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	tf := &TelemetryFlags{httpAddr: ln.Addr().String()}
	if err := tf.Activate(); err == nil {
		_ = tf.Finish(io.Discard)
		t.Fatal("Activate bound an already-claimed port")
	}
}

// Finish writes the versioned trace format with the tool's meta stamps.
func TestFinishWritesVersionedTrace(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "t.trace")
	tf := &TelemetryFlags{trace: path}
	if err := tf.Activate(); err != nil {
		t.Fatal(err)
	}
	tf.SetTraceMeta("tool", "sgtest")
	tf.SetTraceMeta("scheme", "SafeGuard")
	tf.Tracer.Emit(telemetry.Event{Cycle: 7, Kind: telemetry.EvACT, Rank: 0, Bank: 1, Row: 2})
	if err := tf.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := telemetry.ReadTraceFile(f)
	if err != nil {
		t.Fatalf("Finish wrote an unreadable trace: %v", err)
	}
	if trace.Meta["tool"] != "sgtest" || trace.Meta["scheme"] != "SafeGuard" {
		t.Fatalf("meta = %v", trace.Meta)
	}
	if len(trace.Events) != 1 || trace.Events[0].Row != 2 {
		t.Fatalf("events = %+v", trace.Events)
	}
}
