package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

func init() {
	register(benchWorkload{
		name: "perf-membound",
		run:  perfWorkload("mcf", "lbm"),
	})
	register(benchWorkload{
		name: "perf-cacheres",
		run:  perfWorkload("exchange2", "leela"),
	})
}

// perfSetupReps is how many times set-up (building the eight systems) is
// repeated for its median.
const perfSetupReps = 15

// perfScheme pairs a simulated scheme with its metric id.
type perfScheme struct {
	id     string
	scheme sim.Scheme
}

var perfSchemeList = []perfScheme{
	{"baseline", sim.Baseline},
	{"safeguard", sim.SafeGuard},
	{"sgx", sim.SGXStyle},
	{"synergy", sim.SynergyStyle},
}

// perfCell is one simulated (program, scheme) run.
type perfCell struct {
	prog   workload.Params
	scheme perfScheme
}

func (c perfCell) key() string { return c.prog.Name + "/" + c.scheme.id }

// perfTotals accumulates the simulated statistics of a window.
type perfTotals struct {
	mu                   sync.Mutex
	instr                int64
	runMS                []float64
	reads, writes        uint64
	rowHits, rowMisses   uint64
	llcHits, llcMisses   uint64
	depthSum, depthCount float64
	cycles               int64
	runNS                int64
	cellsDone            int
	// busyByCell holds each cell's wall times (system build plus run).
	busyByCell   map[string][]float64
	instrPerCell int64
}

// rate is simulated Minstr per second of busy worker time, taking each
// cell's median time over its repetitions, so a cell slowed by a
// transient host stall does not move it. Dividing by busy time keeps the
// last cell, which runs while the other workers have stopped, from
// diluting the rate.
func (t *perfTotals) rate(workers int) float64 {
	var instr, secs float64
	for _, times := range t.busyByCell {
		instr += float64(t.instrPerCell)
		secs += median(times)
	}
	if secs == 0 {
		return 0
	}
	return instr / 1e6 / (secs / float64(workers))
}

// perfWorkload measures simulated instructions per host second over the
// Table II system running each program under Baseline, SafeGuard,
// SGX-style and Synergy-style. The budget puts 500K warm-up instructions
// per core before 300K measured ones: the 4 MB LLC fills with dirty
// lines during warm-up, so lbm's writebacks are ~25% of DRAM traffic.
func perfWorkload(programs ...string) func(ctx context.Context, r *run) error {
	return func(ctx context.Context, r *run) error {
		warm, instr := int64(500_000), int64(300_000)
		if r.opt.tiny {
			warm, instr = 4_000, 4_000
		}
		var cells []perfCell
		config := func(c perfCell, reg *telemetry.Registry) sim.Config {
			sc := sim.DefaultConfig()
			sc.Workload = c.prog
			sc.Scheme = c.scheme.scheme
			sc.WarmupInstr = warm
			sc.InstrPerCore = instr
			sc.Seed = r.opt.seed
			sc.Telemetry = reg
			return sc
		}
		var prebuilt []*sim.System
		err := r.timeSetup(perfSetupReps, func(last bool) error {
			cells = cells[:0]
			for _, s := range perfSchemeList {
				for _, name := range programs {
					p, err := workload.ByName(name)
					if err != nil {
						return err
					}
					cells = append(cells, perfCell{prog: p, scheme: s})
				}
			}
			built := make([]*sim.System, len(cells))
			for i, c := range cells {
				built[i] = sim.NewSystem(config(c, nil))
			}
			if last {
				prebuilt = built
			}
			return nil
		})
		if err != nil {
			return err
		}

		// measure runs cells round-robin on GOMAXPROCS workers, starting
		// no cell after d has elapsed, and returns the totals and the
		// rate.
		measure := func(d time.Duration) (*perfTotals, float64) {
			tot := &perfTotals{}
			deadline := time.Now().Add(d)
			var next atomic.Int64
			var wg sync.WaitGroup
			workers := runtime.GOMAXPROCS(0)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if (i > 0 && time.Now().After(deadline)) || ctx.Err() != nil {
							return
						}
						r.perfCell(ctx, cells[i%len(cells)], i, config, &prebuilt, tot)
					}
				}()
			}
			wg.Wait()
			return tot, tot.rate(workers)
		}

		if !r.opt.trace {
			tot, rate := measure(time.Duration(r.opt.seconds * float64(time.Second)))
			r.setE2E("work_per_s", rate)
			r.setLatencies("simulation run", tot.runMS)
			fmt.Fprintf(r.log, "perfbench: %d runs, %.3f Minstr/s, DRAM writes %.1f%% of %d requests, row hits %.1f%%\n",
				tot.cellsDone, rate, 100*frac(tot.writes, tot.reads+tot.writes), tot.reads+tot.writes,
				100*frac(tot.rowHits, tot.rowHits+tot.rowMisses))
			return nil
		}
		half := time.Duration(r.opt.seconds / 2 * float64(time.Second))
		plain, plainRate := measure(half)
		r.setLatencies("simulation run", plain.runMS)
		tr, err := startTracer()
		if err != nil {
			return err
		}
		r.tr = tr
		tot, tracedRate := measure(half)
		if err := tr.stop(); err != nil {
			return err
		}
		tr.recordLayers(r)
		r.setLayer("trace.overhead_frac", 1-tracedRate/plainRate)
		r.setLayer("sim_minstr_per_s", plainRate)
		r.setLayer("memctrl.write_frac", frac(tot.writes, tot.reads+tot.writes))
		r.setLayer("memctrl.row_hit_frac", frac(tot.rowHits, tot.rowHits+tot.rowMisses))
		r.setLayer("cache.llc_hit_frac", frac(tot.llcHits, tot.llcHits+tot.llcMisses))
		if tot.depthCount > 0 {
			r.setLayer("memctrl.read_queue_depth_mean", tot.depthSum/tot.depthCount)
		}
		if tot.cycles > 0 {
			r.setLayer("sim.host_ns_per_cycle", float64(tot.runNS)/float64(tot.cycles))
		}
		if tot.instr > 0 {
			r.setLayer("runtime.allocs_per_kinstr", tr.allocs()/(float64(tot.instr)/1000))
		}
		for _, s := range perfSchemeList {
			r.setLayer("sim.setup_ms."+s.id, tr.meanMS("sim.NewSystem/"+s.id))
			r.setLayer("sim.run_ms."+s.id, tr.meanMS("sim.Run/"+s.id))
		}
		return nil
	}
}

// perfCell runs cell number i (prebuilt systems serve the first pass),
// checks its statistics and adds them to tot.
func (r *run) perfCell(ctx context.Context, c perfCell, i int, config func(perfCell, *telemetry.Registry) sim.Config,
	prebuilt *[]*sim.System, tot *perfTotals) {
	job := fmt.Sprintf("cell-%d", i)
	root := r.tr.begin()
	rootStart := time.Now()
	var reg *telemetry.Registry
	if r.tr != nil {
		reg = telemetry.NewRegistry()
	}
	var sys *sim.System
	tot.mu.Lock()
	if i < len(*prebuilt) && (*prebuilt)[i] != nil && reg == nil {
		sys, (*prebuilt)[i] = (*prebuilt)[i], nil
	}
	tot.mu.Unlock()
	if sys == nil {
		r.tr.call(root, job, "sim.NewSystem/"+c.scheme.id, func() { sys = sim.NewSystem(config(c, reg)) })
	}
	var res sim.Result
	var err error
	start := time.Now()
	r.tr.call(root, job, "sim.Run/"+c.scheme.id, func() { res, err = sys.RunContext(ctx) })
	elapsed, busy := time.Since(start), time.Since(rootStart)
	r.tr.end(root, 0, job, "perf.cell", rootStart)
	if err != nil {
		r.failf("%s: %v", c.key(), err)
		return
	}
	ok := checkSimResult(r, c, res)
	r.op(ok)

	cfg := config(c, nil)
	tot.mu.Lock()
	defer tot.mu.Unlock()
	tot.cellsDone++
	tot.instr += int64(cfg.Cores) * (cfg.WarmupInstr + cfg.InstrPerCore)
	tot.runMS = append(tot.runMS, float64(elapsed.Nanoseconds())/1e6)
	tot.reads += res.MCStats.Reads
	tot.writes += res.MCStats.Writes
	tot.rowHits += res.MCStats.RowHits
	tot.rowMisses += res.MCStats.RowMisses
	tot.llcHits += res.LLCHits
	tot.llcMisses += res.LLCMisses
	tot.runNS += elapsed.Nanoseconds()
	if tot.busyByCell == nil {
		tot.busyByCell = make(map[string][]float64)
	}
	tot.busyByCell[c.key()] = append(tot.busyByCell[c.key()], busy.Seconds())
	tot.instrPerCell = int64(cfg.Cores) * (cfg.WarmupInstr + cfg.InstrPerCore)
	var maxCycle int64
	for _, cy := range res.CoreCycles {
		maxCycle = max(maxCycle, cy)
	}
	tot.cycles += maxCycle
	if reg != nil {
		if h, ok := reg.Snapshot().Histograms["memctrl.read_queue_depth"]; ok {
			tot.depthSum += float64(h.Sum)
			tot.depthCount += float64(h.Count)
		}
	}
}

// checkSimResult checks a run's invariants and compares the digest of
// every simulated statistic with the seed's reference.
func checkSimResult(r *run, c perfCell, res sim.Result) bool {
	cores := sim.DefaultConfig().Cores
	if len(res.IPC) != cores || len(res.CoreCycles) != cores || len(res.WarmCycles) != cores {
		fmt.Fprintf(r.log, "perfbench: FAIL: %s reports %d cores, want %d\n", c.key(), len(res.IPC), cores)
		return false
	}
	for i := range res.IPC {
		if !(res.IPC[i] > 0) || math.IsInf(res.IPC[i], 0) || res.CoreCycles[i] <= res.WarmCycles[i] {
			fmt.Fprintf(r.log, "perfbench: FAIL: %s core %d: ipc %g, cycles %d after warm-up at %d\n",
				c.key(), i, res.IPC[i], res.CoreCycles[i], res.WarmCycles[i])
			return false
		}
	}
	if res.MCStats.Reads == 0 {
		fmt.Fprintf(r.log, "perfbench: FAIL: %s issued no DRAM reads\n", c.key())
		return false
	}
	stats := struct {
		CoreCycles, WarmCycles []int64
		IPC                    []float64
		MC                     any
		LLCMisses, LLCHits     uint64
		Prefetches             uint64
		Plugins                any
	}{res.CoreCycles, res.WarmCycles, res.IPC, res.MCStats, res.LLCMisses, res.LLCHits, res.Prefetches, res.PluginStats}
	b, err := json.Marshal(stats)
	if err != nil {
		fmt.Fprintf(r.log, "perfbench: FAIL: %s: %v\n", c.key(), err)
		return false
	}
	return r.checkDigest("sim/"+c.key(), digest(b))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
