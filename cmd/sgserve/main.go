// Command sgserve runs the simulation job service: an HTTP API that
// accepts perf/reliability requests, deduplicates identical in-flight
// configs, executes on the deterministic pools, and answers repeats from
// a content-addressed result cache (bit-identical to a fresh run).
//
//	sgserve -addr :8080 -cache-dir /var/lib/sgserve
//
//	POST /v1/jobs              submit {"kind":"perf",...} or {"kind":"rel",...}
//	GET  /v1/jobs              list jobs (state + progress), paginated
//	GET  /v1/jobs/{id}         poll job state
//	GET  /v1/jobs/{id}/events  one job's lifecycle as SSE (history + live)
//	GET  /v1/events            every job event as SSE (sgtop's feed)
//	GET  /v1/results/{hash}    fetch the stored artifact
//	GET  /healthz              liveness (200 even while draining or degraded)
//	GET  /readyz               readiness (503 draining; with -fleet, 503
//	                           while no workers are live)
//	POST /v1/fleet/...         worker lease protocol (-fleet only)
//	GET  /metrics              Prometheus text exposition
//	GET  /stats, /debug/...    telemetry (expvar, pprof)
//
// With -fleet the service becomes a coordinator: jobs are leased to
// sgworker processes, results are verified against the request hash
// before they are accepted, and expired leases requeue through the
// manager's bounded retry loop. With zero live workers the coordinator
// degrades to in-process execution (and reports not-ready).
//
// SIGTERM/SIGINT drains gracefully: no new jobs are accepted, running
// jobs finish, and jobs still queued when -drain-timeout expires are
// persisted to -pending and resubmitted on the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safeguard/internal/cliflags"
	"safeguard/internal/fleet"
	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheDir     = flag.String("cache-dir", "", "result artifact directory (empty = memory only)")
		memEntries   = flag.Int("mem-entries", 128, "in-memory cache capacity (artifacts)")
		workers      = flag.Int("workers", 2, "concurrent job executors")
		queueDepth   = flag.Int("queue-depth", 64, "max queued jobs before 429")
		maxAttempts  = flag.Int("max-attempts", 3, "executions per job incl. retries")
		pendingPath  = flag.String("pending", "", "drain journal for queued jobs (empty = next to -cache-dir, or off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs at shutdown")
		fleetMode    = flag.Bool("fleet", false, "coordinate sgworker processes instead of executing in-process")
		leaseTTL     = flag.Duration("lease-ttl", 15*time.Second, "worker heartbeat budget before a job requeues (-fleet)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cliflags.Fail(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *pendingPath == "" && *cacheDir != "" {
		*pendingPath = *cacheDir + "/pending.json"
	}

	reg := telemetry.NewRegistry()
	// One bus feeds both publishers (the manager's lifecycle events, the
	// coordinator's checkpoint events) and every SSE subscriber, so the
	// firehose is a single total order.
	bus := telemetry.NewBus(reg)
	cache, err := resultcache.New(resultcache.Options{
		MemEntries: *memEntries, Dir: *cacheDir, Telemetry: reg,
	})
	if err != nil {
		cliflags.Fail(err)
	}
	// In fleet mode the manager's runner dispatches to leased workers;
	// lease expiry and rejected artifacts surface as transient errors, so
	// the manager's bounded retry loop is the requeue mechanism.
	var coord *fleet.Coordinator
	var runner jobs.Runner
	if *fleetMode {
		coord, err = fleet.New(fleet.Config{
			Local:     jobs.CachedRunner(cache, reg),
			Cache:     cache,
			LeaseTTL:  *leaseTTL,
			Telemetry: reg,
			Bus:       bus,
		})
		if err != nil {
			cliflags.Fail(err)
		}
		defer coord.Close()
		runner = coord.Run
	}
	mgr := jobs.NewManager(jobs.Config{
		Workers: *workers, QueueDepth: *queueDepth, MaxAttempts: *maxAttempts,
		PendingPath: *pendingPath, Runner: runner, Cache: cache, Telemetry: reg,
		Bus: bus,
	})
	defer mgr.Close()

	// Resume jobs a previous drain persisted; entries journaled mid-run
	// carry a checkpoint ref, recorded first so their runner warm-starts.
	if *pendingPath != "" {
		pending, err := jobs.LoadPendingJobs(*pendingPath, reg)
		if err != nil {
			log.Printf("sgserve: pending journal: %v", err)
		}
		for _, pj := range pending {
			if pj.Checkpoint != "" {
				if hash, err := pj.Request.Hash(); err == nil {
					mgr.RecordCheckpoint(hash, pj.Checkpoint)
				}
			}
			if _, err := mgr.Submit(pj.Request); err != nil {
				log.Printf("sgserve: resubmit pending job: %v", err)
			}
		}
		if len(pending) > 0 {
			log.Printf("sgserve: resumed %d persisted jobs", len(pending))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliflags.Fail(err)
	}
	api := jobs.NewServer(mgr, reg)
	if coord != nil {
		api.Handle("/v1/fleet/", coord.Handler())
		api.Ready = coord.Ready
	}
	srv := telemetry.NewHTTPServer(api)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("sgserve: listening on %s (workers=%d queue=%d cache=%q fleet=%v)",
		ln.Addr(), *workers, *queueDepth, *cacheDir, *fleetMode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		log.Fatalf("sgserve: serve: %v", err)
	}
	stop()

	log.Printf("sgserve: draining (timeout %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	rep, derr := mgr.Drain(dctx)
	_ = srv.Close()
	log.Printf("sgserve: drained: completed=%d failed=%d persisted=%d running=%d",
		rep.Completed, rep.Failed, rep.Persisted, rep.Running)
	if derr != nil {
		log.Printf("sgserve: drain: %v", derr)
		os.Exit(1)
	}
}
