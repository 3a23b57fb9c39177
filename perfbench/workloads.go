package main

// The four workloads. Each one is a list of simulation specs (one for a
// single full-system run, 125 for the Fig. 8/9 sweep) plus the
// end-to-end call a user makes to run them: system.Run for a single
// run, experiments.Fig8And9 for the sweep. Runs are closed-loop and one
// at a time; every budget keeps the experiments' convention that the
// first half of each core's instructions is cache warm-up.

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"microbank/internal/config"
	"microbank/internal/experiments"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// multiInstr is the per-core budget of the 16-core workloads. At this
// length the measured half runs with warm L2s: the measured-half L2 hit
// rate moves by under 0.02 on membound and writeshare when the budget
// doubles, and writeshare's L2s are full enough to write dirty lines
// back to DRAM.
const multiInstr = 160000

// fig8Instr is the quick Fig. 8/9 per-cell budget (experiments'
// Quick default).
const fig8Instr = 30000

// runDeadline bounds every timed run, so a hung simulation fails the
// benchmark instead of stalling it.
const runDeadline = 60 * time.Second

type benchWorkload struct {
	name string
	// specs returns the workload's simulation specs for a seed.
	specs func(seed int64) []system.Spec
	// sweep marks the Fig. 8/9 sweep, which runs through
	// experiments.Fig8And9 rather than one system.Run.
	sweep bool
}

var workloads = []benchWorkload{
	{name: "membound", specs: func(seed int64) []system.Spec {
		// The QoS experiment's machine: two busy channels under PAR-BS.
		return []system.Spec{multiSpec(workload.Group(workload.SpecHigh), seed, func(s *config.System) {
			s.Mem.Org.Channels = 2
			s.Ctrl.Scheduler = config.SchedPARBS
		})}
	}},
	{name: "cacheres", specs: func(seed int64) []system.Spec {
		return []system.Spec{multiSpec(workload.Group(workload.SpecLow), seed, nil)}
	}},
	{name: "writeshare", specs: func(seed int64) []system.Spec {
		return []system.Spec{multiSpec([]string{"RADIX"}, seed, nil)}
	}},
	{name: "fig8sweep", specs: fig8Specs, sweep: true},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// multiSpec builds a 16-core run on the default LPDDR-TSI (2,8) machine,
// assigning the named profiles to cores round-robin.
func multiSpec(names []string, seed int64, mut func(*config.System)) system.Spec {
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	sys.Cores = 16
	if mut != nil {
		mut(&sys)
	}
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = workload.MustGet(names[i%len(names)])
	}
	return system.Spec{Sys: sys, Profiles: profs, InstrPerCore: multiInstr,
		WarmupInstr: multiInstr / 2, Seed: seed}
}

// fig8Groups lists the benchmarks behind each Fig. 8/9 panel at Quick
// fidelity, in the order experiments reduces them. The sweep's grids
// are recomputed from these cells in the traced run and must match
// Fig8And9 bit for bit, so a change to the experiment's cell list shows
// as a correctness failure rather than a silent mismatch.
var fig8Groups = map[string][]string{
	"429.mcf":   {"429.mcf"},
	"spec-high": {"429.mcf", "470.lbm", "462.libquantum"},
	"TPC-H":     {"TPC-H"},
}

// fig8Seed mirrors experiments.Options: a zero seed selects 42.
func fig8Seed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

func fig8Options(seed int64) experiments.Options {
	return experiments.Options{Quick: true, Seed: fig8Seed(seed), Parallelism: runtime.NumCPU()}
}

// fig8Specs returns the sweep's 125 single-core cells in the order
// experiments enumerates them: panel, benchmark, nB, nW.
func fig8Specs(seed int64) []system.Spec {
	var specs []system.Spec
	for _, set := range experiments.Fig8Workloads {
		for _, name := range fig8Groups[set] {
			for _, nB := range experiments.Axis {
				for _, nW := range experiments.Axis {
					sys := config.SingleCore(config.MemPreset(config.LPDDRTSI, nW, nB))
					s := system.UniformSpec(sys, workload.MustGet(name), fig8Instr, fig8Seed(seed))
					s.WarmupInstr = fig8Instr / 2
					specs = append(specs, s)
				}
			}
		}
	}
	return specs
}

// outcome is what one timed run of a workload produced.
type outcome struct {
	digest string
	instr  uint64 // simulated instructions retired, all cores, warm-up included
	cells  int    // completed simulations
}

// runOnce performs one end-to-end run of the workload and checks its
// simulated outputs for internal consistency.
func runOnce(w benchWorkload, seed int64) (outcome, error) {
	specs := w.specs(seed)
	if w.sweep {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		defer cancel()
		o := fig8Options(seed)
		o.Ctx = ctx
		ipc, edp, err := experiments.Fig8And9(o)
		if err != nil {
			return outcome{}, err
		}
		if err := checkGrids(ipc, edp); err != nil {
			return outcome{}, err
		}
		var instr uint64
		for _, s := range specs {
			instr += s.InstrPerCore * uint64(s.Sys.Cores)
		}
		return outcome{digest: gridDigest(ipc, edp), instr: instr, cells: len(specs)}, nil
	}
	spec := specs[0]
	spec.Limits = &system.Limits{WallClock: runDeadline}
	res, err := system.Run(spec)
	if err != nil {
		return outcome{}, err
	}
	if err := checkResult(spec, res); err != nil {
		return outcome{}, err
	}
	return outcome{digest: resultDigest(res), instr: retired(res), cells: 1}, nil
}

func retired(r system.Result) uint64 {
	var n uint64
	for _, c := range r.PerCore {
		n += c.Instructions
	}
	return n
}

// resultDigest hashes every simulated output a single run reports: IPC,
// runtime, the controllers' statistics, the energy breakdown and each
// core's counters. Floats are hashed by their exact bits.
func resultDigest(r system.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "ipc=%x rt=%d mem=%+v energy=%+v", math.Float64bits(r.IPC), r.RuntimePS, r.Mem, r.Breakdown)
	for _, c := range r.PerCore {
		fmt.Fprintf(h, " core=%+v", c)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gridDigest hashes the Fig. 8 (IPC) and Fig. 9 (1/EDP) grids cell by
// cell, in fixed axis order.
func gridDigest(ipc, edp []*experiments.GridData) string {
	h := sha256.New()
	for _, gs := range [][]*experiments.GridData{ipc, edp} {
		for _, g := range gs {
			fmt.Fprintf(h, "%s/%s:", g.Workload, g.Metric)
			for _, nB := range experiments.Axis {
				for _, nW := range experiments.Axis {
					fmt.Fprintf(h, " %x", math.Float64bits(g.At(nW, nB)))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkResult rejects a run whose outputs break the model's own
// invariants: every core retires exactly its budget, and the reported
// rates are finite and in range.
func checkResult(spec system.Spec, r system.Result) error {
	if len(r.PerCore) != spec.Sys.Cores {
		return fmt.Errorf("result has %d cores, spec %d", len(r.PerCore), spec.Sys.Cores)
	}
	for i, c := range r.PerCore {
		if c.Instructions != spec.InstrPerCore {
			return fmt.Errorf("core %d retired %d of %d instructions", i, c.Instructions, spec.InstrPerCore)
		}
	}
	finitePos := func(name string, v float64) error {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %v, want finite and positive", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"IPC", r.IPC}, {"runtime", float64(r.RuntimePS)}, {"energy", r.Breakdown.TotalPJ()},
		{"DRAM reads", float64(r.Mem.Reads)}} {
		if err := finitePos(c.name, c.v); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"row-hit rate", r.RowHitRate}, {"L1 hit rate", r.L1HitRate}, {"L2 hit rate", r.L2HitRate}} {
		if !(c.v >= 0 && c.v <= 1) {
			return fmt.Errorf("%s = %v, want within [0,1]", c.name, c.v)
		}
	}
	return nil
}

// checkGrids requires every grid cell to be finite and positive and
// every grid to be normalized to its (1,1) cell.
func checkGrids(ipc, edp []*experiments.GridData) error {
	for _, gs := range [][]*experiments.GridData{ipc, edp} {
		if len(gs) != len(experiments.Fig8Workloads) {
			return fmt.Errorf("%d grids, want %d", len(gs), len(experiments.Fig8Workloads))
		}
		for _, g := range gs {
			if len(g.Missing) > 0 {
				return fmt.Errorf("%s %s grid is missing %d cells", g.Workload, g.Metric, len(g.Missing))
			}
			for _, nB := range experiments.Axis {
				for _, nW := range experiments.Axis {
					if v := g.At(nW, nB); !(v > 0) || math.IsInf(v, 0) {
						return fmt.Errorf("%s %s (%d,%d) = %v", g.Workload, g.Metric, nW, nB, v)
					}
				}
			}
			if v := g.At(1, 1); math.Abs(v-1) > 1e-12 {
				return fmt.Errorf("%s %s (1,1) = %v, want 1", g.Workload, g.Metric, v)
			}
		}
	}
	return nil
}

// expectedDigests holds the recorded digest of every workload's outputs
// for the default seed and one held-out seed, keyed by workload then
// seed. Regenerate an entry with -digest after a change that is meant
// to alter simulated results.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigest(name string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	d, ok := all[name][fmt.Sprint(seed)]
	return d, ok
}
