package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// The coordinator unit suite runs on an injected clock: leases expire
// because the test advances time and calls Sweep, never because a timer
// happened to fire. The background sweeper idles on a huge interval.

const tinyPerfBody = `{"kind":"perf","perf":{"schemes":["SafeGuard"],"workloads":["leela"],"seeds":[1],"instr_per_core":1500,"warmup_instr":500}}`

// testReq builds a tiny normalized perf request; distinct seeds give
// distinct hashes.
func testReq(t *testing.T, seed uint64) *resultcache.Request {
	t.Helper()
	body := strings.Replace(tinyPerfBody, `"seeds":[1]`, fmt.Sprintf(`"seeds":[%d]`, seed), 1)
	req, err := resultcache.ParseRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// fakeClock is a manually-advanced lease clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newTestCoordinator builds a coordinator on a fake clock with a direct
// execution fallback. mutate tweaks the config before New.
func newTestCoordinator(t *testing.T, mutate func(*Config)) (*Coordinator, *fakeClock, *telemetry.Registry) {
	t.Helper()
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Local: func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
			return req.Execute(ctx, nil)
		},
		LeaseTTL:   100 * time.Millisecond,
		PollWait:   2 * time.Second,
		WorkerTTL:  500 * time.Millisecond,
		SweepEvery: time.Hour, // tests drive Sweep explicitly
		Telemetry:  reg,
		Now:        clock.Now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, clock, reg
}

// registerWorker marks a worker live without granting it work: an
// acquire under an already-cancelled context records liveness and
// returns before blocking on the queue.
func registerWorker(t *testing.T, c *Coordinator, name string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if a, _ := c.acquire(ctx, name); a != nil {
		t.Fatalf("registration poll unexpectedly leased %s", a.LeaseID)
	}
}

type runOutcome struct {
	result json.RawMessage
	err    error
}

// goRun dispatches req on a goroutine and returns the outcome channel.
func goRun(c *Coordinator, req *resultcache.Request) <-chan runOutcome {
	ch := make(chan runOutcome, 1)
	go func() {
		res, err := c.Run(context.Background(), req)
		ch <- runOutcome{res, err}
	}()
	return ch
}

func awaitOutcome(t *testing.T, ch <-chan runOutcome) runOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch never resolved")
		return runOutcome{}
	}
}

// leaseOne registers the worker, dispatches req, and leases it back.
func leaseOne(t *testing.T, c *Coordinator, worker string, req *resultcache.Request) (*Assignment, <-chan runOutcome) {
	t.Helper()
	registerWorker(t, c, worker)
	ch := goRun(c, req)
	a, err := c.acquire(context.Background(), worker)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("acquire returned no assignment with work queued")
	}
	return a, ch
}

// goodArtifact executes req for real and encodes its artifact — the
// exact bytes an honest worker would submit.
func goodArtifact(t *testing.T, req *resultcache.Request) []byte {
	t.Helper()
	result, err := req.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	art, err := resultcache.NewArtifact(req, result)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func wantCounter(t *testing.T, reg *telemetry.Registry, name string, want uint64) {
	t.Helper()
	if got := reg.Counter(name).Value(); got != want {
		t.Fatalf("%s = %d, want %d", name, got, want)
	}
}

func TestLeaseExpiryRequeuesTransient(t *testing.T) {
	t.Parallel()
	var (
		mu      sync.Mutex
		expired []string
	)
	c, clock, reg := newTestCoordinator(t, func(cfg *Config) {
		cfg.ExpireHook = func(id string) {
			mu.Lock()
			expired = append(expired, id)
			mu.Unlock()
		}
	})
	req := testReq(t, 1)
	a, ch := leaseOne(t, c, "w1", req)
	if hash, _ := req.Hash(); a.Hash != hash {
		t.Fatalf("assignment hash %s, want %s", a.Hash, hash)
	}
	if a.LeaseTTLMS != 100 {
		t.Fatalf("lease TTL %dms, want 100", a.LeaseTTLMS)
	}

	clock.Advance(101 * time.Millisecond)
	c.Sweep()

	o := awaitOutcome(t, ch)
	if !jobs.IsTransient(o.err) {
		t.Fatalf("expired lease surfaced %v, want a transient error", o.err)
	}
	if !strings.Contains(o.err.Error(), "without a heartbeat") {
		t.Fatalf("expiry error %q does not name the cause", o.err)
	}
	wantCounter(t, reg, "fleet.leases.expired", 1)
	wantCounter(t, reg, "fleet.requeues", 1)
	if g := reg.Gauge("fleet.leases.outstanding").Value(); g != 0 {
		t.Fatalf("outstanding gauge %v after expiry, want 0", g)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(expired) != 1 || expired[0] != a.LeaseID {
		t.Fatalf("ExpireHook got %v, want [%s]", expired, a.LeaseID)
	}
}

func TestRenewExtendsLeaseAcrossTTL(t *testing.T) {
	t.Parallel()
	c, clock, reg := newTestCoordinator(t, nil)
	req := testReq(t, 2)
	a, ch := leaseOne(t, c, "w1", req)

	// Two renews carry the lease to t=120ms < 60+100 — alive throughout,
	// even though the original deadline (100ms) has long passed.
	clock.Advance(60 * time.Millisecond)
	if ttl, ok := c.renew(a.LeaseID, "w1"); !ok || ttl != 100*time.Millisecond {
		t.Fatalf("renew = (%v, %v), want (100ms, true)", ttl, ok)
	}
	clock.Advance(60 * time.Millisecond)
	c.Sweep()
	wantCounter(t, reg, "fleet.leases.expired", 0)

	if err := c.complete(a.LeaseID, goodArtifact(t, req)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	o := awaitOutcome(t, ch)
	if o.err != nil {
		t.Fatalf("renewed-and-completed job failed: %v", o.err)
	}
	wantCounter(t, reg, "fleet.leases.renewed", 1)
	wantCounter(t, reg, "fleet.completions.ok", 1)
}

func TestCompleteVerifiesStoresAndServesRepeats(t *testing.T) {
	t.Parallel()
	cache, err := resultcache.New(resultcache.Options{MemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, _, reg := newTestCoordinator(t, func(cfg *Config) { cfg.Cache = cache })
	req := testReq(t, 3)
	a, ch := leaseOne(t, c, "w1", req)

	enc := goodArtifact(t, req)
	if err := c.complete(a.LeaseID, enc); err != nil {
		t.Fatalf("complete: %v", err)
	}
	o := awaitOutcome(t, ch)
	if o.err != nil {
		t.Fatal(o.err)
	}

	// The verified artifact landed in the cache...
	hash, _ := req.Hash()
	if _, ok, err := cache.Get(hash); err != nil || !ok {
		t.Fatalf("cache.Get after complete = (%v, %v), want a hit", ok, err)
	}
	// ...so a repeat run never touches the fleet.
	o2 := awaitOutcome(t, goRun(c, req))
	if o2.err != nil || string(o2.result) != string(o.result) {
		t.Fatalf("repeat run = (%s, %v), want the cached result", o2.result, o2.err)
	}
	wantCounter(t, reg, "fleet.dispatch.remote", 1)
}

// TestResultCachedBeforeDispatchResolves pins the store-then-resolve
// order: the job manager reports a job complete as soon as the dispatch
// returns, and clients fetch the result from the cache right then. The
// disk tier makes Put slow enough that resolving first would be caught.
func TestResultCachedBeforeDispatchResolves(t *testing.T) {
	t.Parallel()
	cache, err := resultcache.New(resultcache.Options{MemEntries: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := newTestCoordinator(t, func(cfg *Config) { cfg.Cache = cache })
	for seed := uint64(40); seed < 44; seed++ {
		req := testReq(t, seed)
		enc := goodArtifact(t, req)
		a, ch := leaseOne(t, c, "w1", req)
		done := make(chan error, 1)
		go func() { done <- c.complete(a.LeaseID, enc) }()
		if o := awaitOutcome(t, ch); o.err != nil {
			t.Fatal(o.err)
		}
		hash, _ := req.Hash()
		if _, ok, err := cache.Get(hash); err != nil || !ok {
			t.Fatalf("seed %d: cache.Get right after the dispatch returned = (%v, %v), want a hit", seed, ok, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("complete: %v", err)
		}
	}
}

func TestCorruptArtifactRejectedAndRequeued(t *testing.T) {
	t.Parallel()
	c, _, reg := newTestCoordinator(t, nil)
	req := testReq(t, 4)
	a, ch := leaseOne(t, c, "w1", req)

	enc := goodArtifact(t, req)
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x42
	err := c.complete(a.LeaseID, bad)
	if !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("corrupt complete = %v, want ErrBadArtifact", err)
	}
	o := awaitOutcome(t, ch)
	if !jobs.IsTransient(o.err) {
		t.Fatalf("rejected result surfaced %v, want a transient error", o.err)
	}
	wantCounter(t, reg, "fleet.completions.rejected", 1)
	wantCounter(t, reg, "fleet.requeues", 1)

	// The lease died with the rejection: an honest retry of the same
	// lease is a zombie now.
	if err := c.complete(a.LeaseID, enc); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("complete on rejected lease = %v, want ErrLeaseGone", err)
	}
	wantCounter(t, reg, "fleet.completions.zombie", 1)
}

func TestHashMismatchArtifactRejected(t *testing.T) {
	t.Parallel()
	c, _, reg := newTestCoordinator(t, nil)
	req := testReq(t, 5)
	a, ch := leaseOne(t, c, "w1", req)

	// A perfectly valid artifact — for a different job.
	other := goodArtifact(t, testReq(t, 6))
	if err := c.complete(a.LeaseID, other); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("foreign artifact = %v, want ErrBadArtifact", err)
	}
	if o := awaitOutcome(t, ch); !jobs.IsTransient(o.err) {
		t.Fatalf("foreign artifact surfaced %v, want transient", o.err)
	}
	wantCounter(t, reg, "fleet.completions.rejected", 1)
}

func TestZombieRenewAndCompleteAfterExpiry(t *testing.T) {
	t.Parallel()
	c, clock, reg := newTestCoordinator(t, nil)
	req := testReq(t, 7)
	a, ch := leaseOne(t, c, "w1", req)

	clock.Advance(150 * time.Millisecond)
	c.Sweep()
	awaitOutcome(t, ch) // requeued transient; resolved

	if _, ok := c.renew(a.LeaseID, "w1"); ok {
		t.Fatal("renew on an expired lease succeeded")
	}
	if err := c.complete(a.LeaseID, goodArtifact(t, req)); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie complete = %v, want ErrLeaseGone", err)
	}
	if err := c.fail(a.LeaseID, "late report", true); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie fail = %v, want ErrLeaseGone", err)
	}
	wantCounter(t, reg, "fleet.renews.zombie", 1)
	wantCounter(t, reg, "fleet.completions.zombie", 2)
	wantCounter(t, reg, "fleet.completions.ok", 0)
}

func TestCrossNodeSingleflight(t *testing.T) {
	t.Parallel()
	c, _, reg := newTestCoordinator(t, nil)
	// Requests normalize in place, so each concurrent submitter parses
	// its own copy — exactly as the HTTP handler does per request.
	req := testReq(t, 8)
	hash, _ := req.Hash()
	registerWorker(t, c, "w1")

	ch1 := goRun(c, req)
	// Wait until the first dispatch owns the hash, then pile on.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.byHash[hash]
		return ok
	})
	ch2 := goRun(c, testReq(t, 8))
	waitFor(t, func() bool { return reg.Counter("fleet.dispatch.dedup").Value() == 1 })

	a, err := c.acquire(context.Background(), "w1")
	if err != nil || a == nil {
		t.Fatalf("acquire = (%v, %v)", a, err)
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d dispatches pending after dedup, want 0", pending)
	}

	if err := c.complete(a.LeaseID, goodArtifact(t, req)); err != nil {
		t.Fatal(err)
	}
	o1, o2 := awaitOutcome(t, ch1), awaitOutcome(t, ch2)
	if o1.err != nil || o2.err != nil || string(o1.result) != string(o2.result) {
		t.Fatalf("singleflight outcomes diverged: (%v, %v)", o1.err, o2.err)
	}
	wantCounter(t, reg, "fleet.completions.ok", 1)
}

func TestNoWorkersFallsBackToLocal(t *testing.T) {
	t.Parallel()
	localCalls := 0
	c, _, reg := newTestCoordinator(t, func(cfg *Config) {
		inner := cfg.Local
		cfg.Local = func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
			localCalls++
			return inner(ctx, req)
		}
	})
	res, err := c.Run(context.Background(), testReq(t, 9))
	if err != nil || len(res) == 0 {
		t.Fatalf("degraded Run = (%q, %v)", res, err)
	}
	if localCalls != 1 {
		t.Fatalf("local runner called %d times, want 1", localCalls)
	}
	wantCounter(t, reg, "fleet.dispatch.local", 1)
	wantCounter(t, reg, "fleet.dispatch.remote", 0)
}

func TestPendingFailsWhenFleetGoesDark(t *testing.T) {
	t.Parallel()
	c, clock, reg := newTestCoordinator(t, nil)
	registerWorker(t, c, "w1")
	ch := goRun(c, testReq(t, 10))
	hash, _ := testReq(t, 10).Hash()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.byHash[hash]
		return ok
	})

	// The only worker never polls again; past WorkerTTL the queued job
	// must not be held hostage.
	clock.Advance(600 * time.Millisecond)
	c.Sweep()
	o := awaitOutcome(t, ch)
	if !jobs.IsTransient(o.err) || !strings.Contains(o.err.Error(), "no live workers") {
		t.Fatalf("dark-fleet dispatch surfaced %v, want transient no-live-workers", o.err)
	}
	wantCounter(t, reg, "fleet.requeues", 1)
	if g := reg.Gauge("fleet.workers.live").Value(); g != 0 {
		t.Fatalf("workers.live gauge %v, want 0", g)
	}
}

func TestReadyTracksWorkerLiveness(t *testing.T) {
	t.Parallel()
	c, clock, _ := newTestCoordinator(t, nil)
	if err := c.Ready(); err == nil {
		t.Fatal("Ready() = nil with no workers, want degraded error")
	}
	registerWorker(t, c, "w1")
	if err := c.Ready(); err != nil {
		t.Fatalf("Ready() = %v with a live worker, want nil", err)
	}
	clock.Advance(600 * time.Millisecond)
	if err := c.Ready(); err == nil {
		t.Fatal("Ready() = nil after the worker went stale, want degraded error")
	}
}

func TestFailReportTransientAndPermanent(t *testing.T) {
	t.Parallel()
	c, _, reg := newTestCoordinator(t, nil)

	req := testReq(t, 11)
	a, ch := leaseOne(t, c, "w1", req)
	if err := c.fail(a.LeaseID, "cosmic ray", true); err != nil {
		t.Fatal(err)
	}
	if o := awaitOutcome(t, ch); !jobs.IsTransient(o.err) {
		t.Fatalf("transient failure surfaced %v", o.err)
	}

	req2 := testReq(t, 12)
	a2, ch2 := leaseOne(t, c, "w1", req2)
	if err := c.fail(a2.LeaseID, "bad request shape", false); err != nil {
		t.Fatal(err)
	}
	o2 := awaitOutcome(t, ch2)
	if o2.err == nil || jobs.IsTransient(o2.err) || !strings.Contains(o2.err.Error(), "bad request shape") {
		t.Fatalf("permanent failure surfaced %v, want a non-transient error naming the cause", o2.err)
	}
	wantCounter(t, reg, "fleet.failures.reported", 2)
	wantCounter(t, reg, "fleet.requeues", 1)
}

func TestCloseResolvesEverythingAndDegrades(t *testing.T) {
	t.Parallel()
	c, _, _ := newTestCoordinator(t, nil)
	_, leased := leaseOne(t, c, "w1", testReq(t, 13))

	queued := goRun(c, testReq(t, 14))
	hash, _ := testReq(t, 14).Hash()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.byHash[hash]
		return ok
	})

	c.Close()
	for _, ch := range []<-chan runOutcome{leased, queued} {
		if o := awaitOutcome(t, ch); o.err == nil || !strings.Contains(o.err.Error(), "coordinator closed") {
			t.Fatalf("outcome after Close = %v, want coordinator-closed error", o.err)
		}
	}
	// A closed coordinator still answers Run — locally.
	if _, err := c.Run(context.Background(), testReq(t, 15)); err != nil {
		t.Fatalf("Run after Close = %v, want local fallback", err)
	}
}

func TestAcquireTimesOutEmptyQueue(t *testing.T) {
	t.Parallel()
	c, _, _ := newTestCoordinator(t, func(cfg *Config) { cfg.PollWait = 20 * time.Millisecond })
	a, err := c.acquire(context.Background(), "w1")
	if err != nil || a != nil {
		t.Fatalf("empty-queue poll = (%v, %v), want (nil, nil)", a, err)
	}
}

// waitFor polls cond until true or the deadline trips.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
