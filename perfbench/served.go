package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeguard/internal/faultsim"
	"safeguard/internal/fleet"
	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

func init() {
	register(benchWorkload{
		name: "reliability-served",
		run:  servedWorkload,
	})
}

// relShapes are the Figure 6 and Figure 10 studies a rel job runs.
var relShapes = []struct {
	evaluators []string
	fitScale   float64
}{
	{[]string{"SECDED", "SafeGuard-SECDED (no column parity)", "SafeGuard-SECDED"}, 1},
	{[]string{"Chipkill", "SafeGuard-Chipkill"}, 1},
	{[]string{"Chipkill", "SafeGuard-Chipkill"}, 10},
}

var evaluatorID = map[string]string{
	"SECDED":                              "secded",
	"SafeGuard-SECDED":                    "sg_secded",
	"SafeGuard-SECDED (no column parity)": "sg_secded_noparity",
	"Chipkill":                            "chipkill",
	"SafeGuard-Chipkill":                  "sg_chipkill",
}

// relDigestJobs is how many of a seed's fresh jobs carry reference
// digests; later jobs are checked by invariants and hit identity.
const relDigestJobs = 8

// prefillJobs are run during set-up so hits are possible from the start.
const prefillJobs = 4

// servedSetupReps is how many stacks are booted and prefilled for the
// set-up median.
const servedSetupReps = 7

func relModules(tiny bool) int {
	if tiny {
		return 500
	}
	return 40_000
}

// relRequest is fresh job i of the seed: a new Monte-Carlo seed, so a
// cache miss.
func relRequest(seed uint64, i int, tiny bool) *resultcache.Request {
	shape := relShapes[i%len(relShapes)]
	return &resultcache.Request{Kind: resultcache.KindRel, Rel: &resultcache.RelRequest{
		Evaluators: append([]string(nil), shape.evaluators...),
		Modules:    relModules(tiny),
		Years:      7,
		FITScale:   shape.fitScale,
		Seed:       seed*1_000_003 + uint64(i) + 1,
	}}
}

// servedStack is sgserve in-process: cache, manager, fleet coordinator
// and HTTP API on a loopback port, plus one fleet worker.
type servedStack struct {
	url   string
	cache *resultcache.Cache
	coord *fleet.Coordinator
	mgr   *jobs.Manager
	srv   *http.Server

	serveDone    chan struct{}
	workerCancel context.CancelFunc
	workerDone   chan struct{}
}

func startStack() (*servedStack, error) {
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	cache, err := resultcache.New(resultcache.Options{MemEntries: 1 << 14, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	coord, err := fleet.New(fleet.Config{
		Local: jobs.CachedRunner(cache, reg), Cache: cache,
		LeaseTTL: 15 * time.Second, PollWait: time.Second, Telemetry: reg, Bus: bus,
	})
	if err != nil {
		return nil, err
	}
	mgr := jobs.NewManager(jobs.Config{
		Workers: runtime.NumCPU(), QueueDepth: 64, MaxAttempts: 3,
		Runner: coord.Run, Cache: cache, Telemetry: reg, Bus: bus,
	})
	api := jobs.NewServer(mgr, reg)
	api.Handle("/v1/fleet/", coord.Handler())
	api.Ready = coord.Ready
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		coord.Close()
		return nil, err
	}
	s := &servedStack{
		url: "http://" + ln.Addr().String(), cache: cache, coord: coord, mgr: mgr,
		srv:       &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second},
		serveDone: make(chan struct{}), workerDone: make(chan struct{}),
	}
	go func() {
		defer close(s.serveDone)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: s.url, Name: "w1", Telemetry: telemetry.NewRegistry(),
		ErrorBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		close(s.workerDone)
		s.close()
		return nil, err
	}
	var wctx context.Context
	wctx, s.workerCancel = context.WithCancel(context.Background())
	go func() {
		defer close(s.workerDone)
		_ = w.Run(wctx) // ends with the context
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.Ready() != nil {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("fleet worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// close stops the worker, the server, the manager and the coordinator,
// and waits for their goroutines.
func (s *servedStack) close() {
	if s.workerCancel != nil {
		s.workerCancel()
	}
	// Closing the server drops the worker's long-poll connection, so the
	// worker sees its cancelled context at once.
	_ = s.srv.Close()
	<-s.workerDone
	<-s.serveDone
	s.mgr.Close()
	s.coord.Close()
}

// finishedJob is a completed request and its artifact bytes, the input
// of later hits. The request is kept as its canonical JSON because
// hashing a Request normalizes it in place: concurrent hits must each
// submit their own copy.
type finishedJob struct {
	canon    []byte
	hash     string
	artifact []byte
}

// servedLoad is the state of the closed loop shared by its clients.
type servedLoad struct {
	r      *run
	st     *servedStack
	client *http.Client

	nextFresh atomic.Int64

	mu       sync.Mutex
	finished []finishedJob
	missMS   []float64
	hitMS    []float64
	doneAt   []time.Time // completion time of each job
	// Traced-window resultcache call timings.
	hashNS, getNS, encodeNS int64
	hashN, getN, encodeN    int64
}

// servedWorkload measures jobs per second and miss latency with
// runtime.NumCPU() closed-loop clients; each client alternates a fresh
// job (a miss) with a repeat of a finished one (a hit).
func servedWorkload(ctx context.Context, r *run) error {
	var load *servedLoad
	var spare []*servedStack // earlier set-up repetitions, closed untimed
	err := r.timeSetup(servedSetupReps, func(last bool) error {
		st, err := startStack()
		if err != nil {
			return err
		}
		l := &servedLoad{r: r, st: st, client: &http.Client{Timeout: 60 * time.Second}}
		for i := 0; i < prefillJobs; i++ {
			l.miss(ctx)
		}
		if last {
			load = l
		} else {
			spare = append(spare, st)
		}
		return nil
	})
	for _, st := range spare {
		st.close()
	}
	if err != nil {
		return err
	}
	defer load.st.close()
	load.resetStats()

	window := time.Duration(r.opt.seconds * float64(time.Second))
	if !r.opt.trace {
		rate := load.measure(ctx, window)
		r.setE2E("work_per_s", rate)
		r.setLatencies("miss job", load.missMS)
		hit, label := tail(load.hitMS)
		fmt.Fprintf(r.log, "perfbench: %d jobs, %.2f jobs/s; hit p50 %.3f ms, tail %.3f ms (%s)\n",
			len(load.doneAt), rate, median(load.hitMS), hit, label)
		return nil
	}
	plainRate := load.measure(ctx, window/2)
	r.setLatencies("miss job", load.missMS)
	missP50, hitP50 := median(load.missMS), median(load.hitMS)
	missTail, _ := tail(load.missMS)
	hitTail, _ := tail(load.hitMS)
	load.resetStats()
	tr, err := startTracer()
	if err != nil {
		return err
	}
	r.tr = tr
	events := load.watchEvents()
	tracedRate := load.measure(ctx, window/2)
	queueWait, leaseWait := events.stop()
	load.faultsimRates(ctx)
	if err := tr.stop(); err != nil {
		return err
	}
	load.timeCache()
	tr.recordLayers(r)
	r.setLayer("trace.overhead_frac", 1-tracedRate/plainRate)
	r.setLayer("jobs_per_s", plainRate)
	r.setLayer("miss_p50_ms", missP50)
	r.setLayer("miss_tail_ms", missTail)
	r.setLayer("hit_p50_ms", hitP50)
	r.setLayer("hit_tail_ms", hitTail)
	r.setLayer("jobs.queue_wait_ms", queueWait)
	r.setLayer("fleet.lease_wait_ms", leaseWait)
	load.mu.Lock()
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	r.setLayer("resultcache.hash_us", per(load.hashNS, load.hashN))
	r.setLayer("resultcache.get_us", per(load.getNS, load.getN))
	r.setLayer("resultcache.encode_us", per(load.encodeNS, load.encodeN))
	load.mu.Unlock()
	return load.scrapeMetrics()
}

// timeCache prices a cache read and an artifact encode on each finished
// job. It runs after the traced window, so the traced jobs do the same
// work as the untraced ones; a finished job missing from the cache is a
// failure.
func (l *servedLoad) timeCache() {
	l.mu.Lock()
	finished := l.finished
	l.mu.Unlock()
	for _, f := range finished {
		t0 := time.Now()
		a, found, err := l.st.cache.Get(f.hash)
		getNS := time.Since(t0).Nanoseconds()
		if err != nil || !found {
			l.r.failf("cache entry %s: found=%v, %v", f.hash[:12], found, err)
			continue
		}
		t0 = time.Now()
		_, err = a.Encode()
		encodeNS := time.Since(t0).Nanoseconds()
		if err != nil {
			l.r.failf("encode %s: %v", f.hash[:12], err)
			continue
		}
		l.mu.Lock()
		l.getNS += getNS
		l.getN++
		l.encodeNS += encodeNS
		l.encodeN++
		l.mu.Unlock()
	}
}

func (l *servedLoad) resetStats() {
	l.mu.Lock()
	l.missMS, l.hitMS, l.doneAt = nil, nil, nil
	l.mu.Unlock()
}

// measure runs the closed loop for d and returns the jobs completed per
// second (sliceRate).
func (l *servedLoad) measure(ctx context.Context, d time.Duration) float64 {
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(l.r.opt.seed, uint64(1000+c)))
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				if ctx.Err() != nil {
					return
				}
				if n%2 == 0 {
					l.miss(ctx)
				} else {
					l.hit(ctx, rng)
				}
			}
		}(c)
	}
	wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return sliceRate(start, d, l.doneAt)
}

// sliceRate is the median count of completions per whole second of the
// window [start, start+d). The median shrugs off a transient host stall,
// and jobs finishing after the deadline do not count. Windows under a
// second fall back to the plain rate.
func sliceRate(start time.Time, d time.Duration, done []time.Time) float64 {
	n := int(d / time.Second)
	if n < 1 {
		return float64(len(done)) / d.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range done {
		if i := int(t.Sub(start) / time.Second); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts)
}

// miss submits fresh job i, waits on its SSE stream, fetches and checks
// the artifact.
func (l *servedLoad) miss(ctx context.Context) {
	i := int(l.nextFresh.Add(1) - 1)
	req := relRequest(l.r.opt.seed, i, l.r.opt.tiny)
	job := fmt.Sprintf("fresh-%d", i)
	start := time.Now()
	art, hash, err := l.submit(ctx, job, req, false)
	elapsed := time.Since(start)
	if err != nil {
		l.r.failf("%s: %v", job, err)
		return
	}
	ok := checkRelArtifact(l.r, req, art)
	if i < relDigestJobs {
		ok = l.r.checkDigest(fmt.Sprintf("rel/%d", i), digest(art)) && ok
	}
	canon, err := req.CanonicalJSON()
	if err != nil {
		fmt.Fprintf(l.r.log, "perfbench: FAIL: %s: %v\n", job, err)
		ok = false
	}
	l.r.op(ok)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doneAt = append(l.doneAt, time.Now())
	l.missMS = append(l.missMS, float64(elapsed.Nanoseconds())/1e6)
	if ok {
		l.finished = append(l.finished, finishedJob{canon: canon, hash: hash, artifact: art})
	}
}

// hit resubmits a finished request, which the cache answers; the served
// bytes must equal the original artifact.
func (l *servedLoad) hit(ctx context.Context, rng *rand.Rand) {
	l.mu.Lock()
	if len(l.finished) == 0 {
		l.mu.Unlock()
		l.miss(ctx)
		return
	}
	f := l.finished[rng.IntN(len(l.finished))]
	l.mu.Unlock()
	req, err := resultcache.ParseRequest(bytes.NewReader(f.canon))
	if err != nil {
		l.r.failf("hit %s: %v", f.hash[:12], err)
		return
	}
	start := time.Now()
	art, _, err := l.submit(ctx, "hit-"+f.hash[:12], req, true)
	elapsed := time.Since(start)
	if err != nil {
		l.r.failf("hit %s: %v", f.hash[:12], err)
		return
	}
	ok := bytes.Equal(art, f.artifact)
	if !ok {
		fmt.Fprintf(l.r.log, "perfbench: FAIL: hit %s served bytes that differ from the original artifact\n", f.hash[:12])
	}
	l.r.op(ok)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doneAt = append(l.doneAt, time.Now())
	l.hitMS = append(l.hitMS, float64(elapsed.Nanoseconds())/1e6)
}

// submit posts req, waits for it to finish (on the job's SSE stream
// unless the cache answered) and returns the artifact bytes, bound to
// the request's hash.
func (l *servedLoad) submit(ctx context.Context, job string, req *resultcache.Request, wantCached bool) ([]byte, string, error) {
	tr := l.r.tr
	root := tr.begin()
	start := time.Now()
	defer func() { tr.end(root, 0, job, "served.job", start) }()

	var hash string
	var herr error
	t0 := time.Now()
	tr.call(root, job, "resultcache.Hash", func() { hash, herr = req.Hash() })
	if tr != nil {
		l.mu.Lock()
		l.hashNS += time.Since(t0).Nanoseconds()
		l.hashN++
		l.mu.Unlock()
	}
	if herr != nil {
		return nil, "", herr
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	var view jobs.JobView
	var status int
	tr.call(root, job, "http.POST /v1/jobs", func() {
		status, err = l.do(ctx, http.MethodPost, "/v1/jobs", body, &view)
	})
	switch {
	case err != nil:
		return nil, "", err
	case status == http.StatusTooManyRequests:
		return nil, "", errors.New("rejected with 429")
	case status == http.StatusOK && view.Cached:
	case status == http.StatusAccepted && !wantCached:
		var ev telemetry.JobEvent
		tr.call(root, job, "sse /v1/jobs/{id}/events", func() { ev, err = l.waitTerminal(ctx, view.ID) })
		if err != nil {
			return nil, "", err
		}
		if ev.Type != telemetry.EventComplete {
			return nil, "", fmt.Errorf("job %s ended %s: %s", view.ID, ev.Type, ev.Error)
		}
	default:
		return nil, "", fmt.Errorf("submit answered %d (cached=%v, want cached=%v)", status, view.Cached, wantCached)
	}
	if view.Hash != hash {
		return nil, "", fmt.Errorf("server hash %s, request hash %s", view.Hash, hash)
	}
	var art []byte
	tr.call(root, job, "http.GET /v1/results", func() { art, err = l.get(ctx, "/v1/results/"+hash) })
	if err != nil {
		return nil, "", err
	}
	a, err := resultcache.ReadArtifact(bytes.NewReader(art))
	if err != nil {
		return nil, "", err
	}
	if a.Hash != hash {
		return nil, "", fmt.Errorf("artifact bound to %s, want %s", a.Hash, hash)
	}
	return art, hash, nil
}

func (l *servedLoad) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, l.st.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (l *servedLoad) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.st.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// waitTerminal reads the job's SSE stream until its terminal event.
func (l *servedLoad) waitTerminal(ctx context.Context, id string) (telemetry.JobEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.st.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return telemetry.JobEvent{}, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return telemetry.JobEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return telemetry.JobEvent{}, fmt.Errorf("events stream answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev telemetry.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, err
		}
		if ev.Terminal() {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return telemetry.JobEvent{}, err
	}
	return telemetry.JobEvent{}, errors.New("events stream ended before a terminal event")
}

// checkRelArtifact checks the lifetime study's invariants: one result
// per requested evaluator, failures within the population, a cumulative
// per-year curve, and the probability equal to failed/modules.
func checkRelArtifact(r *run, req *resultcache.Request, art []byte) bool {
	a, err := resultcache.ReadArtifact(bytes.NewReader(art))
	if err != nil {
		fmt.Fprintf(r.log, "perfbench: FAIL: %v\n", err)
		return false
	}
	var wire resultcache.RelWire
	if err := json.Unmarshal(a.Result, &wire); err != nil {
		fmt.Fprintf(r.log, "perfbench: FAIL: rel result: %v\n", err)
		return false
	}
	if len(wire.Results) != len(req.Rel.Evaluators) {
		fmt.Fprintf(r.log, "perfbench: FAIL: %d rel results for %d evaluators\n", len(wire.Results), len(req.Rel.Evaluators))
		return false
	}
	for i, res := range wire.Results {
		bad := res.Scheme != req.Rel.Evaluators[i] || res.Modules != req.Rel.Modules ||
			res.Failed < 0 || res.Failed > res.Modules ||
			math.Abs(res.Probability-float64(res.Failed)/float64(res.Modules)) > 1e-12 ||
			len(res.FailedByYear) != int(req.Rel.Years)
		for y := 1; !bad && y < len(res.FailedByYear); y++ {
			bad = res.FailedByYear[y] < res.FailedByYear[y-1]
		}
		if !bad && len(res.FailedByYear) > 0 {
			bad = res.FailedByYear[len(res.FailedByYear)-1] > res.Failed
		}
		if bad {
			fmt.Fprintf(r.log, "perfbench: FAIL: rel result %d (%s) breaks an invariant: %+v\n", i, res.Scheme, res)
			return false
		}
	}
	return true
}

// eventWatch timestamps firehose events on arrival for the traced
// window's queue and lease waits.
type eventWatch struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	queued   map[string]time.Time
	leased   map[string]time.Time
	progress map[string]time.Time // first progress a fleet worker reported
}

func (l *servedLoad) watchEvents() *eventWatch {
	ctx, cancel := context.WithCancel(context.Background())
	w := &eventWatch{
		cancel: cancel, done: make(chan struct{}),
		queued: map[string]time.Time{}, leased: map[string]time.Time{}, progress: map[string]time.Time{},
	}
	ready := make(chan struct{})
	go func() {
		defer close(w.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.st.url+"/v1/events", nil)
		if err != nil {
			close(ready)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		close(ready)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			now := time.Now()
			var ev telemetry.JobEvent
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Job == "" {
				continue
			}
			w.mu.Lock()
			switch {
			case ev.Type == telemetry.EventQueued:
				w.queued[ev.Job] = now
			case ev.Type == telemetry.EventLeased:
				w.leased[ev.Job] = now
			case ev.Type == telemetry.EventProgress && ev.Worker != "":
				if _, seen := w.progress[ev.Job]; !seen {
					w.progress[ev.Job] = now
				}
			}
			w.mu.Unlock()
		}
	}()
	<-ready
	return w
}

// stop ends the watch and returns the mean queued->leased and
// leased->first-worker-progress waits in ms.
func (w *eventWatch) stop() (queueMS, leaseMS float64) {
	w.cancel()
	<-w.done
	mean := func(from, to map[string]time.Time) float64 {
		var sum time.Duration
		n := 0
		for job, t1 := range to {
			if t0, ok := from[job]; ok && !t1.Before(t0) {
				sum += t1.Sub(t0)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(sum.Nanoseconds()) / float64(n) / 1e6
	}
	return mean(w.queued, w.leased), mean(w.leased, w.progress)
}

// faultsimRates runs each evaluator directly through faultsim and
// records modules per second.
func (l *servedLoad) faultsimRates(ctx context.Context) {
	for _, name := range faultsim.EvaluatorNames() {
		id, ok := evaluatorID[name]
		if !ok {
			continue
		}
		e, err := faultsim.EvaluatorByName(name)
		if err != nil {
			l.r.failf("evaluator %s: %v", name, err)
			continue
		}
		cfg := faultsim.Config{Modules: relModules(l.r.opt.tiny), Years: 7, FITScale: 1, Seed: l.r.opt.seed}
		var secs float64
		l.r.tr.call(0, "faultsim", "faultsim.RunAll/"+id, func() {
			t0 := time.Now()
			_, err = faultsim.RunAllContext(ctx, []faultsim.Evaluator{e}, cfg)
			secs = time.Since(t0).Seconds()
		})
		if err != nil {
			l.r.failf("faultsim %s: %v", name, err)
			continue
		}
		l.r.setLayer("faultsim.modules_per_s."+id, float64(cfg.Modules)/secs)
	}
}

// scrapeMetrics reads the retry, 429 and rejected-completion counters
// from the server's Prometheus endpoint.
func (l *servedLoad) scrapeMetrics() error {
	b, err := l.get(context.Background(), "/metrics")
	if err != nil {
		return err
	}
	want := map[string]string{
		"sg_jobs_retried_total":               "jobs.retries",
		"sg_jobs_rejected_full_total":         "jobs.rejected_429",
		"sg_fleet_completions_rejected_total": "fleet.rejected_completions",
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if metric, found := want[name]; ok && found {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return fmt.Errorf("/metrics %s: %w", name, err)
			}
			l.r.setLayer(metric, v)
		}
	}
	return nil
}
