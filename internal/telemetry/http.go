// Opt-in HTTP observability for long sweeps: an expvar endpoint exposing
// the registry's live snapshot, a Prometheus /metrics exposition, plus
// the standard pprof profiles, on a loopback (or operator-chosen)
// address. Nothing here runs unless a cmd passes -http (or a server
// mounts the handler); the simulation hot paths never touch this file.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Slow-client limits for the repo's HTTP servers: a client must finish
// its request header within ReadHeaderTimeout, and a keep-alive
// connection idle for IdleTimeout is closed. There is deliberately no
// WriteTimeout: it would cut long-lived SSE streams.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps h in an http.Server with the slow-client limits.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// expvarOnce guards the process-global expvar name: expvar.Publish
// panics on duplicates, and tests may start several servers. The
// published func reads expvarSnap, which each Handler call swaps a
// closure into — so the *global* expvar surface (expvar.Do, a plain
// expvar.Handler elsewhere in the process) reports the most recent
// handler's registry. That last-wins global is unavoidable with expvar's
// process-wide namespace; what each Handler's own /debug/vars reports is
// NOT last-wins — see scopedExpvars.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarSnap func() Snapshot
)

// expvarName is the registry's key in the expvar namespace.
const expvarName = "safeguard"

func publishExpvar(reg *Registry) {
	expvarMu.Lock()
	expvarSnap = reg.Snapshot
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish(expvarName, expvar.Func(func() any {
			expvarMu.Lock()
			snap := expvarSnap
			expvarMu.Unlock()
			return snap()
		}))
	})
}

// scopedExpvars renders the expvar page with this handler's registry
// substituted under the "safeguard" key. Two servers in one process
// (sgserve -fleet embeds the coordinator next to the job API; tests
// start several stacks) each report their own registry rather than
// whichever one called Handler last — the footgun the raw
// expvar.Handler had here.
func scopedExpvars(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		type kv struct{ key, val string }
		var vars []kv
		expvar.Do(func(v expvar.KeyValue) {
			if v.Key == expvarName {
				return // replaced below with this handler's registry
			}
			vars = append(vars, kv{v.Key, v.Value.String()})
		})
		own, err := json.Marshal(reg.Snapshot())
		if err == nil {
			vars = append(vars, kv{expvarName, string(own)})
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].key < vars[j].key })
		fmt.Fprintf(w, "{\n")
		for i, v := range vars {
			if i > 0 {
				fmt.Fprintf(w, ",\n")
			}
			fmt.Fprintf(w, "%q: %s", v.key, v.val)
		}
		fmt.Fprintf(w, "\n}\n")
	}
}

// Handler returns the observability mux by itself, for embedding into a
// larger server (sgserve mounts it next to its job API):
//
//	/debug/vars    expvar (this handler's registry under "safeguard")
//	/debug/pprof/  the standard pprof handlers
//	/stats         the registry's deterministic JSON snapshot
//	/metrics       the Prometheus text exposition of the same snapshot
//
// The registry may be nil; /stats and /metrics then serve the empty
// snapshot. Each returned handler is scoped to the registry it was built
// with — two handlers in one process report their own registries.
func Handler(reg *Registry) http.Handler {
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", scopedExpvars(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = WritePrometheus(w, reg.Snapshot())
	})
	return mux
}

// ServeHTTP starts a standalone server on addr wrapping Handler. It
// returns the bound address (useful with ":0") and a shutdown func.
func ServeHTTP(addr string, reg *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := NewHTTPServer(Handler(reg))
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
