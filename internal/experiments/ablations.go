package experiments

// Ablation studies for the design choices DESIGN.md calls out beyond
// the paper's own figures:
//
//   - scheduler: FCFS vs FR-FCFS vs PAR-BS under multiprogrammed
//     interference (the paper always uses PAR-BS);
//   - queue depth: §V argues μbanks drain the request queue so far
//     that queue-inspecting policies lose their information — this
//     ablation measures average queue occupancy directly;
//   - activation-window scaling: this model widens tRRD/tFAW with nW
//     (activation current ∝ activated bits); the ablation quantifies
//     how much of the nW benefit depends on that assumption;
//   - refresh: all-bank vs LPDDR-style per-bank refresh vs none,
//     with and without μbanks.

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// AblationRow is one variant measurement.
type AblationRow struct {
	Study   string
	Variant string
	IPC     float64
	RelIPC  float64 // vs the study's first variant
	Extra   float64 // study-specific metric (see Table header)
}

// AblationScheduler compares the three memory schedulers on a
// multiprogrammed mix over one busy channel.
func AblationScheduler(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	scheds := []config.Scheduler{config.SchedFCFS, config.SchedFRFCFS, config.SchedPARBS}
	results, err := mapRuns(o, scheds, func(env runEnv, sched config.Scheduler) (system.Result, error) {
		return runMulti(workload.MixHigh().ForCore, config.LPDDRTSI, 1, 1,
			func(s *config.System) {
				s.Ctrl.Scheduler = sched
				s.Mem.Org.Channels = 2 // concentrate interference
			}, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base float64
	for i, sched := range scheds {
		res := results[i]
		if base == 0 {
			base = res.IPC
		}
		rows = append(rows, AblationRow{
			Study: "scheduler", Variant: sched.String(),
			IPC: res.IPC, RelIPC: res.IPC / base,
			Extra: res.AvgReadLatencyNS,
		})
	}
	return rows, nil
}

// AblationQueueDepth sweeps the controller queue depth on TPC-H for
// the baseline and a μbank device, reporting mean queue occupancy —
// the §V observation that μbanks starve queue-inspecting policies.
func AblationQueueDepth(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	type job struct {
		cfg   [2]int
		depth int
	}
	var jobs []job
	for _, cfg := range [][2]int{{1, 1}, {2, 8}} {
		for _, depth := range []int{8, 16, 32, 64} {
			jobs = append(jobs, job{cfg, depth})
		}
	}
	results, err := mapRuns(o, jobs, func(env runEnv, j job) (system.Result, error) {
		return runSingle("TPC-H", config.LPDDRTSI, j.cfg[0], j.cfg[1],
			func(s *config.System) { s.Ctrl.QueueDepth = j.depth }, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base float64
	for i, j := range jobs {
		res := results[i]
		if base == 0 {
			base = res.IPC
		}
		occ := 0.0
		if res.RuntimePS > 0 {
			occ = res.Mem.QueueOccIntegral / float64(res.RuntimePS)
		}
		rows = append(rows, AblationRow{
			Study:   "queue-depth",
			Variant: fmt.Sprintf("(%d,%d) depth=%d", j.cfg[0], j.cfg[1], j.depth),
			IPC:     res.IPC, RelIPC: res.IPC / base,
			Extra: occ,
		})
	}
	return rows, nil
}

// AblationActWindow quantifies the tRRD/tFAW-scaling assumption at a
// wordline-heavy configuration on 429.mcf.
func AblationActWindow(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	variants := []bool{false, true}
	results, err := mapRuns(o, variants, func(env runEnv, noScale bool) (system.Result, error) {
		return runSingle("429.mcf", config.LPDDRTSI, 16, 1,
			func(s *config.System) { s.Mem.Timing.NoActWindowScaling = noScale }, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base float64
	for i, noScale := range variants {
		res := results[i]
		name := "tRRD/tFAW scaled by nW (default)"
		if noScale {
			name = "unscaled activation windows"
		}
		if base == 0 {
			base = res.IPC
		}
		rows = append(rows, AblationRow{
			Study: "act-window", Variant: name,
			IPC: res.IPC, RelIPC: res.IPC / base,
			Extra: res.AvgReadLatencyNS,
		})
	}
	return rows, nil
}

// AblationBankHash measures XOR bank hashing (permutation-based
// interleaving) on a stream-heavy workload: power-of-two array strides
// that alias onto one bank under plain row interleaving spread out
// under the hash.
func AblationBankHash(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	type job struct {
		cfg  [2]int
		hash bool
	}
	var jobs []job
	for _, cfg := range [][2]int{{1, 1}, {2, 8}} {
		for _, hash := range []bool{false, true} {
			jobs = append(jobs, job{cfg, hash})
		}
	}
	results, err := mapRuns(o, jobs, func(env runEnv, j job) (system.Result, error) {
		return runSingle("TPC-H", config.LPDDRTSI, j.cfg[0], j.cfg[1],
			func(s *config.System) { s.Ctrl.XORBankHash = j.hash }, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base float64
	for i, j := range jobs {
		res := results[i]
		if base == 0 {
			base = res.IPC
		}
		rows = append(rows, AblationRow{
			Study: "bank-hash", Variant: fmt.Sprintf("(%d,%d) xor=%v", j.cfg[0], j.cfg[1], j.hash),
			IPC: res.IPC, RelIPC: res.IPC / base,
			Extra: res.RowHitRate,
		})
	}
	return rows, nil
}

// AblationRefresh measures the refresh overhead with and without
// μbanks.
func AblationRefresh(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	type job struct {
		cfg  [2]int
		mode string
	}
	var jobs []job
	for _, cfg := range [][2]int{{1, 1}, {4, 4}} {
		for _, mode := range []string{"all-bank", "per-bank", "off"} {
			jobs = append(jobs, job{cfg, mode})
		}
	}
	results, err := mapRuns(o, jobs, func(env runEnv, j job) (system.Result, error) {
		return runSingle("470.lbm", config.LPDDRTSI, j.cfg[0], j.cfg[1],
			func(s *config.System) {
				switch j.mode {
				case "off":
					s.Mem.Timing.TREFI = 0
					s.Mem.Timing.TRFC = 0
				case "per-bank":
					s.Mem.Timing.PerBankRefresh = true
				}
			}, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base float64
	for i, j := range jobs {
		res := results[i]
		if base == 0 {
			base = res.IPC
		}
		rows = append(rows, AblationRow{
			Study: "refresh", Variant: fmt.Sprintf("(%d,%d) refresh=%s", j.cfg[0], j.cfg[1], j.mode),
			IPC: res.IPC, RelIPC: res.IPC / base,
			Extra: float64(res.Mem.Energy.Refreshes),
		})
	}
	return rows, nil
}

// Ablations runs every ablation study and renders one table.
func Ablations(o Options) (*stats.Table, error) {
	t := stats.NewTable("Ablations (DESIGN.md §6)",
		"Study", "Variant", "IPC", "RelIPC", "Extra (lat ns / occupancy / refreshes)")
	studies := []func(Options) ([]AblationRow, error){
		AblationScheduler, AblationQueueDepth, AblationActWindow,
		AblationBankHash, AblationRefresh,
	}
	for i, f := range studies {
		rows, err := f(o)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			t.AddSeparator()
		}
		for _, r := range rows {
			t.AddRow(r.Study, r.Variant, r.IPC, r.RelIPC, r.Extra)
		}
	}
	return t, nil
}
