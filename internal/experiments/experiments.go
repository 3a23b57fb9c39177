// Package experiments regenerates every table and figure of the
// paper's evaluation (§III-B, §IV-B, §VI): each Fig*/Table* function
// runs the required simulations (or analytic models) and returns both
// structured data and a formatted table matching the paper's layout.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator and synthetic workloads, not McSimA+ with
// SimPoint traces — but the comparisons each figure makes (who wins,
// by roughly what factor, where the crossovers fall) are preserved;
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/parallel"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// Options sets the fidelity/cost tradeoff for simulation-backed
// experiments.
type Options struct {
	// Ctx, when non-nil, cancels the campaign: sweep workers stop
	// picking up cells when it is done, and in-flight cells abort at
	// their next watchdog check (system.Limits.Ctx). The CLI wires its
	// SIGINT/SIGTERM handler here so an interrupted campaign exits
	// through the normal error path — the result store keeps every
	// completed cell, and artifacts flush marked aborted. Nil means
	// uncancellable, with no watchdog armed on otherwise-unbounded runs.
	Ctx context.Context
	// Instr is the per-core instruction budget (half of it is cache
	// warm-up). Zero selects the default (30k quick, 240k full).
	Instr uint64
	// Cores is the populated core count for multiprogrammed and
	// multithreaded workloads. Zero selects 16 (quick) or 64 (full).
	Cores int
	// Quick selects reduced workload sets (one representative per
	// group) for fast runs such as benchmarks.
	Quick bool
	Seed  int64
	// Parallelism bounds how many independent simulations run
	// concurrently (the -j flag). Zero or negative selects
	// runtime.GOMAXPROCS(0). Every run takes an explicit seed and
	// results are reduced in job order, so output is byte-identical
	// at every width.
	Parallelism int
	// Progress, when non-nil, is invoked after each finished cell of a
	// sweep, failed or not, with the number finished so far and the
	// sweep total (the -progress heartbeat). It is called from worker
	// goroutines and must be safe for concurrent use; it must not
	// write to stdout, which carries the deterministic tables.
	Progress func(done, total int)
	// Res configures sweep survival: failure mode, per-run limits,
	// failure collection, store-backed resume, and fault injection.
	// Nil is the zero Resilience — fail-fast, unbounded runs, no store;
	// either way a panicking cell becomes a failure record, never a
	// crash.
	Res *Resilience
	// Exp names the running experiment for profiling: every sweep cell
	// executes under runtime/pprof labels (exp, cell, variant) so CPU
	// profiles of a sweep attribute samples to individual cells.
	Exp string
	// Agg, when non-nil, feeds the live observability plane (-serve):
	// every sweep cell runs with its own registry-only observer whose
	// snapshot merges into the aggregator at the cell boundary, and
	// progress/failure events stream to it as they happen.
	// Observation is read-only and per-cell registries stay
	// registry-only (no sampler/tracer), so results are untouched. Nil
	// costs nothing.
	Agg *obs.Aggregator
}

// ctx returns the campaign context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Instr == 0 {
		if o.Quick {
			o.Instr = 30000
		} else {
			o.Instr = 240000
		}
	}
	if o.Cores == 0 {
		if o.Quick {
			o.Cores = 16
		} else {
			o.Cores = 64
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Axis is the partition-count axis used by Figs. 6, 8, and 9.
var Axis = []int{1, 2, 4, 8, 16}

// RepresentativeConfigs are the <3%-area-overhead (nW,nB) points used
// by Figs. 10, 12, and 13.
var RepresentativeConfigs = [][2]int{{1, 1}, {2, 8}, {4, 4}, {8, 2}}

// runEnv is the per-cell execution environment mapRuns hands its run
// callback: the cell's limits (resilient sweeps) and, when a campaign
// aggregator is attached, the cell's registry-only observer. The zero
// value reproduces the pre-observability behavior exactly.
type runEnv struct {
	lim *system.Limits
	obs *obs.Observer
}

// runSingle executes a single-core, single-channel run (the paper's
// setup for single-threaded SPEC and DB workloads). env carries the
// cell's limits (watchdog deadline / event budget / cancellation) and
// optional observer.
func runSingle(name string, iface config.Interface, nW, nB int,
	mut func(*config.System), o Options, env runEnv) (system.Result, error) {
	sys := config.SingleCore(config.MemPreset(iface, nW, nB))
	if mut != nil {
		mut(&sys)
	}
	spec := system.UniformSpec(sys, workload.MustGet(name), o.Instr, o.Seed)
	spec.WarmupInstr = o.Instr / 2
	spec.Limits = env.lim
	spec.Obs = env.obs
	return system.Run(spec)
}

// runMulti executes a multicore run with the full channel population.
func runMulti(profileFor func(core int) workload.Profile, iface config.Interface,
	nW, nB int, mut func(*config.System), o Options, env runEnv) (system.Result, error) {
	sys := config.DefaultSystem(config.MemPreset(iface, nW, nB))
	sys.Cores = o.Cores
	if mut != nil {
		mut(&sys)
	}
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = profileFor(i)
	}
	// Multicore runs halve the per-core budget (wall time still grows
	// with the core count, but refresh and warm-up effects stay evenly
	// amortized across configurations).
	instr := o.Instr / 2
	if instr < 4000 {
		instr = 4000
	}
	spec := system.Spec{Sys: sys, Profiles: profs, InstrPerCore: instr,
		WarmupInstr: instr / 2, Seed: o.Seed, Limits: env.lim, Obs: env.obs}
	return system.Run(spec)
}

// specGroup returns the benchmark names evaluated for a named workload
// set, honoring Quick mode.
func specGroup(set string, quick bool) []string {
	switch set {
	case "spec-high":
		if quick {
			return []string{"429.mcf", "470.lbm", "462.libquantum"}
		}
		return workload.Group(workload.SpecHigh)
	case "spec-all":
		if quick {
			return []string{"429.mcf", "470.lbm", "403.gcc", "453.povray"}
		}
		return workload.SpecAll()
	default:
		return []string{set}
	}
}

// GridData holds one workload's metric over the (nW,nB) grid,
// normalized to the (1,1) cell.
type GridData struct {
	Workload string
	Metric   string // "IPC" or "1/EDP"
	Rel      map[[2]int]float64
	// Missing marks cells excluded from a degraded reduction (every
	// contributing run failed under -fail-mode=collect). Nil on healthy
	// sweeps.
	Missing map[[2]int]bool
}

// At returns the normalized value at (nW, nB).
func (g *GridData) At(nW, nB int) float64 { return g.Rel[[2]int{nW, nB}] }

// Best returns the grid point with the highest value. Cells are
// scanned in fixed Axis order, so ties resolve to the smallest
// (nB, nW) deterministically rather than by map iteration order.
func (g *GridData) Best() (nW, nB int, val float64) {
	for _, b := range Axis {
		for _, w := range Axis {
			if v := g.At(w, b); v > val {
				nW, nB, val = w, b, v
			}
		}
	}
	return
}

// Table renders the grid in the paper's layout (nW across, nB down).
func (g *GridData) Table(title string) *stats.Table {
	header := []string{"nB\\nW"}
	for _, w := range Axis {
		header = append(header, fmt.Sprint(w))
	}
	t := stats.NewTable(title, header...)
	for _, b := range Axis {
		row := []any{fmt.Sprint(b)}
		for _, w := range Axis {
			if g.Missing[[2]int{w, b}] {
				row = append(row, "FAIL")
			} else {
				row = append(row, g.At(w, b))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// cellMetrics captures the per-run values grids are built from.
type cellMetrics struct {
	ipc   float64
	edpJs float64
}

// mapRuns fans independent simulation runs out over o.Parallelism
// workers and returns their results in job order, or an error if any
// cell failed: fail-fast's lowest-index *parallel.TaskError, or, after
// a collect sweep, an error saying the caller's reduction has no
// degraded form. Experiments that can reduce a partial sweep call
// mapRunsMasked instead.
func mapRuns[J any](o Options, jobs []J, run func(env runEnv, j J) (system.Result, error)) ([]system.Result, error) {
	results, failed, err := mapRunsMasked(o, jobs, run)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	if n > 0 {
		return nil, fmt.Errorf("%d cell(s) failed and this experiment's reduction has no degraded form; fix the failures and rerun with the same -store, or rerun with -fail-mode=fail-fast", n)
	}
	return results, nil
}

// mapRunsMasked is the sweep itself. Results come back in job order,
// so callers reduce them with the exact arithmetic order of the serial
// loops this layer replaced — parallel output stays byte-identical to
// serial. The optional Progress callback observes every finished cell,
// failed or not (in completion order, which is schedule-dependent); it
// never influences results.
//
// Every sweep runs under parallel.MapPolicy with o.Res's policy (a nil
// o.Res is the zero Resilience: fail-fast, no store, no injection):
// panic isolation, per-run limits via the env's lim, store
// lookup/checkpoint under CampaignKey(o.Exp, o), and fault injection.
// Failures are logged as report records; fail-fast returns the
// lowest-index one as a *parallel.TaskError, while under collect the
// sweep completes with failed cells marked true in the mask (their
// Result is the zero value).
func mapRunsMasked[J any](o Options, jobs []J, run func(env runEnv, j J) (system.Result, error)) ([]system.Result, []bool, error) {
	total := len(jobs)
	var done atomic.Int64
	note := func() {
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), total)
		}
	}
	agg := o.Agg
	aggSweep := -1
	if agg != nil {
		aggSweep = agg.BeginSweep(total)
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	if o.Res == nil {
		o.Res = &Resilience{}
	}
	r := o.Res
	base, sweep := r.beginSweep(total)
	var key string
	if r.Store != nil {
		key = CampaignKey(o.Exp, o)
	}
	pol := parallel.Policy{
		FailFast: r.Mode == FailFast,
		Digest: func(i int) string {
			return fmt.Sprintf("sweep %d cell %d/%d: %+v", sweep, i, total, jobs[i])
		},
	}
	results, fails, err := parallel.MapPolicy(o.ctx(), o.Parallelism, idx, pol,
		func(_ context.Context, i int) (system.Result, error) {
			// Deferred, so a cell that errors or panics still counts
			// toward the sweep's final 100% line.
			defer note()
			// The store lookup precedes injection: a replayed cell is not
			// re-run, so it cannot re-fire an injected fault.
			if res, ok := r.storeLookup(key, sweep, i); ok {
				if agg != nil {
					agg.CellReplayed(aggSweep, i)
				}
				return res, nil
			}
			g := base + i
			switch r.injectionAt(g) {
			case "panic":
				panic(fmt.Sprintf("injected panic at campaign cell %d", g))
			case "error":
				return system.Result{}, fmt.Errorf("injected error at campaign cell %d", g)
			}
			// With an aggregator the cell gets a fresh registry-only
			// observer (observation is read-only) whose snapshot merges at
			// the cell boundary on success. The run executes under pprof
			// labels so a CPU profile of a sweep attributes samples to
			// individual cells and variants.
			env := runEnv{lim: o.limitsFor(g)}
			if agg != nil {
				env.obs = obs.NewObserver()
				agg.CellStarted(aggSweep, i)
			}
			var res system.Result
			var rerr error
			pprof.Do(context.Background(), pprof.Labels(
				"exp", o.Exp, "cell", strconv.Itoa(g), "variant", fmt.Sprintf("%+v", jobs[i])),
				func(context.Context) { res, rerr = run(env, jobs[i]) })
			if rerr != nil {
				return system.Result{}, rerr
			}
			if agg != nil {
				agg.CellDone(aggSweep, i, env.obs.Registry.Gather())
			}
			// Only healthy cells are checkpointed; failed cells re-run (and
			// re-fail identically) on resume. A checkpoint that cannot
			// persist degrades — one warning, persistence disabled — and
			// never fails the healthy cell it was recording.
			r.storeCheckpoint(key, sweep, i, res)
			return res, nil
		})
	for _, te := range fails {
		f := failureRecord(sweep, te)
		r.Log.add(f)
		if agg != nil {
			agg.CellFailed(obs.CellFailure{Sweep: aggSweep, Cell: f.Cell,
				Kind: f.Kind, Error: f.Error, Digest: f.Digest, Diag: f.Diag})
		}
	}
	if err != nil {
		return nil, nil, err
	}
	failed := make([]bool, total)
	for _, te := range fails {
		failed[te.Index] = true
	}
	return results, failed, nil
}

// runGridCells runs one workload over the full partition grid, fanning
// the 25 independent cells out over the worker pool. Cells that failed
// under -fail-mode=collect are absent from the map.
func runGridCells(name string, o Options) (map[[2]int]cellMetrics, error) {
	jobs := make([][2]int, 0, len(Axis)*len(Axis))
	for _, nB := range Axis {
		for _, nW := range Axis {
			jobs = append(jobs, [2]int{nW, nB})
		}
	}
	results, failed, err := mapRunsMasked(o, jobs, func(env runEnv, cfg [2]int) (system.Result, error) {
		res, rerr := runSingle(name, config.LPDDRTSI, cfg[0], cfg[1], nil, o, env)
		if rerr != nil {
			return system.Result{}, fmt.Errorf("%s (%d,%d): %w", name, cfg[0], cfg[1], rerr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	cells := make(map[[2]int]cellMetrics, len(jobs))
	for i, cfg := range jobs {
		if !failed[i] {
			cells[cfg] = cellMetrics{ipc: results[i].IPC, edpJs: results[i].Breakdown.EDPJs()}
		}
	}
	return cells, nil
}

// gridsFor computes the relative-IPC and relative-1/EDP grids for a
// workload set, averaging per-benchmark normalized values (the paper's
// per-app-normalize-then-average convention).
//
// A grid point averages over the benchmarks that measured both it and
// their (1,1) base; each term is divided by that count before it is
// added, in benchmark order, so a healthy sweep (every count is
// len(names)) keeps the original arithmetic bit for bit. Points with
// no healthy contributor after a collect sweep are marked Missing.
func gridsFor(set string, o Options) (ipc, invEDP *GridData, err error) {
	names := specGroup(set, o.Quick)
	ipc = &GridData{Workload: set, Metric: "IPC", Rel: map[[2]int]float64{}}
	invEDP = &GridData{Workload: set, Metric: "1/EDP", Rel: map[[2]int]float64{}}
	var all []map[[2]int]cellMetrics // per benchmark; nil when its base failed
	n := map[[2]int]int{}
	for _, name := range names {
		cells, cerr := runGridCells(name, o)
		if cerr != nil {
			return nil, nil, cerr
		}
		if _, ok := cells[[2]int{1, 1}]; !ok {
			cells = nil // nothing to normalize against
		}
		for k := range cells {
			n[k]++
		}
		all = append(all, cells)
	}
	for _, cells := range all {
		base := cells[[2]int{1, 1}]
		for k, c := range cells {
			ipc.Rel[k] += c.ipc / base.ipc / float64(n[k])
			invEDP.Rel[k] += base.edpJs / c.edpJs / float64(n[k])
		}
	}
	for _, b := range Axis {
		for _, w := range Axis {
			if k := [2]int{w, b}; n[k] == 0 {
				if ipc.Missing == nil {
					ipc.Missing = map[[2]int]bool{}
					invEDP.Missing = map[[2]int]bool{}
				}
				ipc.Missing[k] = true
				invEDP.Missing[k] = true
			}
		}
	}
	return ipc, invEDP, nil
}
