package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Handler is the embeddable form of the surface — sgserve mounts it
// next to its job API. It must serve the same endpoints without owning
// a listener, and tolerate a nil registry.
func TestHandlerEmbeddable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("handler.hits").Add(4)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if snap.Counters["handler.hits"] != 4 {
		t.Fatalf("/stats counters = %+v", snap.Counters)
	}
	pr, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", pr.StatusCode)
	}

	nilTS := httptest.NewServer(Handler(nil))
	defer nilTS.Close()
	nr, err := http.Get(nilTS.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Body.Close()
	if nr.StatusCode != http.StatusOK {
		t.Fatalf("nil-registry /stats status = %d", nr.StatusCode)
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served").Add(9)
	addr, shutdown, err := ServeHTTP("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer func() { _ = shutdown() }()

	get := func(path string) string {
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/stats")), &snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if snap.Counters["served"] != 9 {
		t.Fatalf("/stats counters = %+v", snap.Counters)
	}
	if !strings.Contains(get("/debug/vars"), `"safeguard"`) {
		t.Fatal("/debug/vars missing the safeguard expvar")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

// TestServeHTTPDropsStalledHeader: a client that sends half a request
// header and stalls is disconnected after ReadHeaderTimeout instead of
// holding the connection open forever.
func TestServeHTTPDropsStalledHeader(t *testing.T) {
	t.Parallel()
	addr, shutdown, err := ServeHTTP("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer func() { _ = shutdown() }()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /stats HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 10*time.Second))
	// The server may answer 408 before closing; drain to EOF either way.
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %s", time.Since(start))
	}
	if took := time.Since(start); took < ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %s, before the header timeout could fire", took)
	}
}

func TestServeHTTPBadAddr(t *testing.T) {
	t.Parallel()
	if _, _, err := ServeHTTP("256.256.256.256:1", nil); err == nil {
		t.Fatal("expected error for unusable address")
	}
}

// Two handlers in one process must each report their own registry on
// /debug/vars — the last-ServeHTTP-wins footgun the process-global
// expvar had. sgserve -fleet is exactly this shape: the job API and the
// coordinator telemetry surfaces coexist.
func TestHandlerExpvarScopedPerRegistry(t *testing.T) {
	regA := NewRegistry()
	regA.Counter("scoped.a").Add(1)
	regB := NewRegistry()
	regB.Counter("scoped.b").Add(2)

	// Build A first, then B: under the old global, A's /debug/vars would
	// now report B's registry.
	tsA := httptest.NewServer(Handler(regA))
	defer tsA.Close()
	tsB := httptest.NewServer(Handler(regB))
	defer tsB.Close()

	read := func(url string) Snapshot {
		resp, err := http.Get(url + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vars struct {
			Safeguard Snapshot `json:"safeguard"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatalf("/debug/vars not JSON: %v", err)
		}
		return vars.Safeguard
	}
	a, b := read(tsA.URL), read(tsB.URL)
	if a.Counters["scoped.a"] != 1 || a.Counters["scoped.b"] != 0 {
		t.Fatalf("handler A reports the wrong registry: %+v", a.Counters)
	}
	if b.Counters["scoped.b"] != 2 || b.Counters["scoped.a"] != 0 {
		t.Fatalf("handler B reports the wrong registry: %+v", b.Counters)
	}
}

// /metrics renders the registry's snapshot in the Prometheus text
// format, with the exposition content type.
func TestHandlerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("metrics.hits").Add(4)
	reg.Histogram("metrics.lat", []int64{16, 32}).Observe(10)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE sg_metrics_hits_total counter",
		"sg_metrics_hits_total 4",
		`sg_metrics_lat_bucket{le="+Inf"} 1`,
		"sg_metrics_lat_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Byte-determinism over the wire: the same (unchanged) registry
	// serves the same body twice.
	again, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	body2, err := io.ReadAll(again.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(body2) {
		t.Fatal("/metrics body changed between identical snapshots")
	}
}

// The "safeguard" expvar is the registry's full snapshot, decodable from
// /debug/vars like any expvar — the contract external scrapers rely on.
func TestExpvarSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("expvar.reads").Add(3)
	reg.Gauge("expvar.depth").Set(1.5)
	addr, shutdown, err := ServeHTTP("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer func() { _ = shutdown() }()

	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Safeguard Snapshot `json:"safeguard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Safeguard.Counters["expvar.reads"] != 3 {
		t.Fatalf("expvar counters = %+v", vars.Safeguard.Counters)
	}
	if vars.Safeguard.Gauges["expvar.depth"] != 1.5 {
		t.Fatalf("expvar gauges = %+v", vars.Safeguard.Gauges)
	}
}
