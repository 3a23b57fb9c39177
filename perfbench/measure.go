package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"microbank/internal/experiments"
	"microbank/internal/obs"
	"microbank/internal/system"
)

const (
	// minReps is the fewest timed repetitions a run reports, however
	// long each takes.
	minReps = 3
	// setupSlice is the host time spent measuring set-up before each
	// timed repetition (at least one round). Spreading the rounds over
	// the whole run, rather than measuring them in one block, keeps a
	// short slow spell of the host from deciding the median.
	setupSlice = 50 * time.Millisecond
)

// measure produces the end-to-end metrics: one untimed warm-up run,
// then timed closed-loop repetitions for the given number of seconds.
// Each repetition is a slice of set-up rounds and one run of the
// workload, with a calibration loop before, between and after them.
// Their times are CPU seconds scaled to the reference host by the mean
// host speed of the two loops around each (see cpuclock.go). Every
// run's outputs are checked.
func measure(w benchWorkload, seed int64, seconds int) *bench {
	// The calibration loop reads this thread's CPU clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	b := newBench(w, seed)
	b.check(runOnce(w, seed))
	setupSpecs := w.specs(seed)
	for i := range setupSpecs {
		setupSpecs[i].InstrPerCore, setupSpecs[i].WarmupInstr = 1, 0
	}

	var setup, rate, cells, alloc, rss, walls, cpus, speeds []float64
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	// The loop after one repetition's run is the loop before the next
	// one's set-up slice.
	last := hostSpeed()
	for reps := 0; reps < minReps || time.Now().Before(deadline); reps++ {
		rounds, err := setupRounds(setupSpecs)
		if err != nil {
			b.attempted++
			b.fail("set-up run: " + err.Error())
			break
		}
		first := hostSpeed()
		for _, r := range rounds {
			setup = append(setup, r*(last+first)/2)
		}
		// Every repetition starts from a collected heap with its free
		// pages returned to the kernel, as a fresh process would: the
		// collections fall at the same points of each run, and the
		// repetition's peak RSS does not inherit pages an earlier one
		// (or the calibration loop) left resident.
		debug.FreeOSMemory()
		perRep := resetPeakRSS()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		cpu0, start := cpuNow(clockProcessCPU), time.Now()
		o, err := runOnce(w, seed)
		cpu, wall := (cpuNow(clockProcessCPU) - cpu0).Seconds(), time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		peak := peakRSSMB() // before the calibration loop's memory
		last = hostSpeed()
		if !b.check(o, err) {
			if err != nil {
				break
			}
			continue
		}
		if perRep {
			rss = append(rss, peak)
		}
		speed := (first + last) / 2
		ref := cpu * speed // reference-host CPU seconds
		rate = append(rate, float64(o.instr)/ref/1e6)
		cells = append(cells, float64(o.cells)/ref)
		alloc = append(alloc, float64(ms.TotalAlloc-before)/1e6)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		speeds = append(speeds, speed)
	}
	if len(rss) == 0 {
		// No per-repetition reset: the peak of the whole process.
		rss = []float64{peakRSSMB()}
	}
	b.samples["setup_s"] = setup
	b.samples["sim_minstr_per_s"] = rate
	b.samples["cells_per_s"] = cells
	b.samples["alloc_mb"] = alloc
	b.samples["peak_rss_mb"] = rss
	b.samples["run_wall_s"] = walls
	b.samples["run_cpu_s"] = cpus
	b.samples["host_speed"] = speeds
	b.set("setup_s", median(setup), "s")
	b.set("sim_minstr_per_s", median(rate), "Minstr/s")
	b.set("cells_per_s", median(cells), "1/s")
	b.set("alloc_mb", median(alloc), "MB")
	b.set("peak_rss_mb", median(rss), "MB")
	return b
}

// setupRounds times system.Run on each of the given one-instruction
// specs, which is machine build plus drain, for one setupSlice, and
// returns the process CPU seconds each round over all specs took,
// collections during the round included.
func setupRounds(specs []system.Spec) ([]float64, error) {
	var rounds []float64
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < setupSlice {
		// A collection between rounds keeps one round's garbage from
		// being charged to the next.
		runtime.GC()
		t0 := cpuNow(clockProcessCPU)
		for _, s := range specs {
			if _, err := system.Run(s); err != nil {
				return rounds, err
			}
		}
		rounds = append(rounds, (cpuNow(clockProcessCPU) - t0).Seconds())
	}
	return rounds, nil
}

// resetPeakRSS restarts the kernel's peak-RSS counter for this process
// (Linux clear_refs value 5), so the next peakRSSMB reading covers only
// what follows. It reports false where the kernel does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size in MB, as
// VmHWM in /proc/self/status reports it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

// measureTraced produces the per-layer metrics. Untraced repetitions
// run first under the CPU profiler, for the layers' CPU shares and the
// untraced wall time; then each spec runs once traced and every layer
// replays its recorded stream.
func measureTraced(w benchWorkload, seed int64, seconds int) *bench {
	b := newBench(w, seed)
	b.check(runOnce(w, seed))
	workers := 1
	if w.sweep {
		workers = fig8Options(seed).Parallelism
	}

	// Untraced, profiled repetitions: half the run's time.
	var prof bytes.Buffer
	gc0 := gcCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.problem("cpu profile: " + err.Error())
	}
	var walls []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second / 2)
	for reps := 0; reps < minReps || time.Now().Before(deadline); reps++ {
		start := time.Now()
		o, err := runOnce(w, seed)
		wall := time.Since(start).Seconds()
		if !b.check(o, err) {
			if err != nil {
				break
			}
			continue
		}
		walls = append(walls, wall)
	}
	pprof.StopCPUProfile()
	gc1 := gcCPU()
	untraced := median(walls) * float64(workers) // CPU-equivalent seconds per run
	shares, nSamples, err := profileShares(prof.Bytes())
	if err != nil {
		b.problem(err.Error())
	}
	fmt.Printf("profile: %d samples over %d untraced runs\n", nSamples, len(walls))
	for _, l := range layers {
		b.set(l+".cpu_share", shares[l], "frac")
	}
	b.set("runtime.gc_cpu_frac", (gc1.gc-gc0.gc)/math.Max(gc1.total-gc0.total, 1e-9), "frac")

	// Cell timing: a sweep's cells come from an aggregator subscription;
	// a single run is one cell.
	cellMS := make([]float64, len(walls))
	for i, s := range walls {
		cellMS[i] = s * 1000
	}
	busy := 1.0
	if w.sweep {
		cellMS, busy = b.sweepCells(seed)
	}
	b.samples["experiments.cell_ms"] = cellMS
	b.set("experiments.cell_ms_p50", percentile(cellMS, 50), "ms")
	b.set("experiments.cell_ms_p90", percentile(cellMS, 90), "ms")
	b.set("parallel.busy_frac", busy, "frac")

	// Traced runs and replays.
	var agg layerAgg
	var cells []system.Result
	for _, spec := range w.specs(seed) {
		b.attempted++
		t, err := traceRun(spec)
		if err != nil {
			b.fail(err.Error())
			continue
		}
		if !w.sweep {
			if d := resultDigest(t.res); d != b.ref {
				b.fail(fmt.Sprintf("traced digest %s differs from untraced %s", d, b.ref))
			}
		}
		r, err := replayAll(t)
		if err != nil {
			b.problem(err.Error())
		}
		agg.add(t, r)
		cells = append(cells, t.res)
	}
	if w.sweep && len(cells) == len(w.specs(seed)) {
		if d := recomputedGridDigest(cells); d != b.ref {
			b.fail(fmt.Sprintf("grids rebuilt from traced cells hash to %s, untraced sweep %s", d, b.ref))
		}
	}
	agg.report(b, untraced)
	return b
}

// layerAgg sums the traced runs of a workload (one, or one per sweep
// cell). Rates are averaged over runs.
type layerAgg struct {
	runs                                          int
	events, instr, next, l1, requests, nocPackets uint64
	cmds                                          [obs.CmdREF + 1]uint64
	peakPending, peakQueue                        int
	ipc, l1Hit, l2Hit, hops, rowHit, readLat, p99 float64
	tracedWall                                    time.Duration
	rep                                           replays
}

func (a *layerAgg) add(t *tracedRun, r replays) {
	a.runs++
	a.events += t.diag.events
	a.instr += retired(t.res)
	a.next += t.nextCalls()
	a.l1 += t.l1Accesses()
	a.nocPackets += uint64(t.nocPackets)
	n := t.dram.counts(-1)
	for k := range a.cmds {
		a.cmds[k] += n[k]
	}
	a.requests += n[obs.CmdRD] + n[obs.CmdWR]
	a.peakPending = max(a.peakPending, t.diag.peakPending)
	a.peakQueue = max(a.peakQueue, t.diag.peakQueue)
	a.ipc += t.res.IPC
	a.l1Hit += t.res.L1HitRate
	a.l2Hit += t.res.L2HitRate
	a.hops += t.res.NoCAvgHops
	a.rowHit += t.res.RowHitRate
	a.readLat += t.res.AvgReadLatencyNS
	a.p99 += t.res.LatP99NS
	a.tracedWall += t.wall
	a.rep.add(r)
}

// report sets every per-layer count and replay metric. untraced is the
// CPU-equivalent host seconds of one untraced run of the workload.
func (a *layerAgg) report(b *bench, untraced float64) {
	runs := float64(max(a.runs, 1))
	b.set("sim.events", float64(a.events), "count")
	b.set("sim.peak_pending", float64(a.peakPending), "count")
	b.set("sim.events_per_kinstr", float64(a.events)/(float64(a.instr)/1000), "1/kinstr")
	b.set("sim.ns_per_event", untraced*1e9/float64(a.events), "ns")
	b.set("sim.ns_per_op", a.rep.sim.nsPerOp(), "ns")
	b.set("cpu.instr", float64(a.instr), "count")
	b.set("cpu.sim_ipc", a.ipc/runs, "instr/cycle")
	b.set("workload.next_calls", float64(a.next), "count")
	b.set("workload.ns_per_next", a.rep.next.nsPerOp(), "ns")
	b.set("cache.l1.accesses", float64(a.l1), "count")
	b.set("cache.l1.hit_rate", a.l1Hit/runs, "frac")
	b.set("cache.l2.hit_rate", a.l2Hit/runs, "frac")
	b.set("cache.l1.ns_per_access", a.rep.l1.nsPerOp(), "ns")
	b.set("cache.l2.ns_per_access", a.rep.l2.nsPerOp(), "ns")
	b.set("noc.packets", float64(a.nocPackets), "count")
	b.set("noc.avg_hops", a.hops/runs, "hops")
	b.set("memctrl.requests", float64(a.requests), "count")
	b.set("memctrl.row_hit_rate", a.rowHit/runs, "frac")
	b.set("memctrl.peak_queue", float64(a.peakQueue), "count")
	b.set("memctrl.read_lat_ns", a.readLat/runs, "ns")
	b.set("memctrl.lat_p99_ns", a.p99/runs, "ns")
	b.set("memctrl.ns_per_request", a.rep.ctl.nsPerOp(), "ns")
	b.set("dram.act", float64(a.cmds[obs.CmdACT]), "count")
	b.set("dram.rd", float64(a.cmds[obs.CmdRD]), "count")
	b.set("dram.wr", float64(a.cmds[obs.CmdWR]), "count")
	b.set("dram.pre", float64(a.cmds[obs.CmdPRE]), "count")
	b.set("dram.ref", float64(a.cmds[obs.CmdREF]), "count")
	b.set("dram.ns_per_cmd", a.rep.dram.nsPerOp(), "ns")
	b.set("bench.trace_overhead_frac", a.tracedWall.Seconds()/untraced-1, "frac")
	// The controller replay drives its own DRAM channel, so the DRAM
	// replay is left out of the sum to avoid counting that work twice.
	covered := a.rep.sim.wall + a.rep.next.wall + a.rep.l1.wall + a.rep.l2.wall + a.rep.ctl.wall
	b.set("bench.replay_coverage", covered.Seconds()/untraced, "frac")
}

// cpuTimes is a reading of the runtime's CPU accounting.
type cpuTimes struct{ gc, total float64 }

func gcCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var t cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		t.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		t.total = s[1].Value.Float64()
	}
	return t
}

// sweepCells runs the sweep once with an aggregator attached and times
// each cell from its start and done events. The subscriber gets a spare
// processor so that it stamps events as they arrive rather than when a
// busy worker yields. It returns the cells' durations in milliseconds
// and the share of worker time spent inside cells.
func (b *bench) sweepCells(seed int64) ([]float64, float64) {
	o := fig8Options(seed)
	o.Agg = obs.NewAggregator("fig8sweep")
	// Room for every event of the sweep (about four per cell), so none
	// is dropped while the subscriber waits for a processor.
	events, cancel := o.Agg.Subscribe(8192)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.Parallelism + 1))

	type key struct{ sweep, cell int }
	starts := map[key]time.Time{}
	var cellMS []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range events {
			now := time.Now()
			if ev.Type != "cell" {
				continue
			}
			var c struct {
				Sweep, Cell int
				State       string
			}
			if json.Unmarshal(ev.Data, &c) != nil {
				continue
			}
			k := key{c.Sweep, c.Cell}
			switch c.State {
			case "start":
				starts[k] = now
			case "done":
				if t0, ok := starts[k]; ok {
					cellMS = append(cellMS, float64(now.Sub(t0).Nanoseconds())/1e6)
				}
			}
		}
	}()
	start := time.Now()
	ipc, edp, err := experiments.Fig8And9(o)
	wall := time.Since(start)
	cancel()
	wg.Wait()
	b.attempted++
	if err == nil {
		err = checkGrids(ipc, edp)
	}
	if err != nil {
		b.fail("observed sweep: " + err.Error())
	} else if d := gridDigest(ipc, edp); d != b.ref {
		b.fail(fmt.Sprintf("observed sweep digest %s, want %s", d, b.ref))
	}
	if want := len(b.w.specs(seed)); len(cellMS) != want {
		b.problem(fmt.Sprintf("aggregator reported %d cells, want %d", len(cellMS), want))
	}
	var busy float64
	for _, ms := range cellMS {
		busy += ms / 1000
	}
	sort.Float64s(cellMS)
	return cellMS, busy / (wall.Seconds() * float64(o.Parallelism))
}

// recomputedGridDigest rebuilds the Fig. 8 and Fig. 9 grids from the
// traced cells with the experiment's reduction (normalize each
// benchmark to its (1,1) cell, then average over the panel's
// benchmarks in order) and hashes them like gridDigest.
func recomputedGridDigest(cells []system.Result) string {
	var ipcs, edps []*experiments.GridData
	i := 0
	for _, set := range experiments.Fig8Workloads {
		names := fig8Groups[set]
		ipc := &experiments.GridData{Workload: set, Metric: "IPC", Rel: map[[2]int]float64{}}
		edp := &experiments.GridData{Workload: set, Metric: "1/EDP", Rel: map[[2]int]float64{}}
		for range names {
			byCfg := map[[2]int]system.Result{}
			for _, nB := range experiments.Axis {
				for _, nW := range experiments.Axis {
					byCfg[[2]int{nW, nB}] = cells[i]
					i++
				}
			}
			base := byCfg[[2]int{1, 1}]
			for k, c := range byCfg {
				ipc.Rel[k] += c.IPC / base.IPC / float64(len(names))
				edp.Rel[k] += base.Breakdown.EDPJs() / c.Breakdown.EDPJs() / float64(len(names))
			}
		}
		ipcs = append(ipcs, ipc)
		edps = append(edps, edp)
	}
	return gridDigest(ipcs, edps)
}
