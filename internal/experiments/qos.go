package experiments

// QoS & scheduling sweep: tail latency and fairness across the three
// ways this model can multiply row buffers or police them —
//
//   - SALP-style subarray parallelism (Kim et al., ISCA 2012; see
//     PAPERS.md), which splits each bank into pseudo-banks that share
//     the bank's I/O but keep private row buffers;
//   - the paper's μbank partitioning, which genuinely multiplies
//     banks (and pays the area/energy for it);
//   - a MemGuard-style per-(thread, bank) bandwidth regulator
//     (Yun et al., 2013/2014; see PAPERS.md) composed under the
//     scheduler.
//
// Where the paper's figures report throughput means, this sweep
// reports the distribution tail: p50/p95/p99/max request latency,
// worst-thread slowdown, and Jain's fairness index, on the
// multiprogrammed high-MAPKI mix over two busy channels. The
// analytic worst-case counterpart to the regulated rows lives in
// internal/qos.

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// QoSRow is one (organization, policy) measurement.
type QoSRow struct {
	Org    string
	Policy string
	IPC    float64
	// Whole-run request-latency quantiles in nanoseconds (histograms
	// cannot be warm-subtracted, so unlike IPC these include warm-up).
	P50NS, P95NS, P99NS, MaxNS float64
	MaxSlowdown                float64
	Fairness                   float64
}

// QoSSweep measures the organization × policy matrix: conventional,
// SALP-16 (same row-buffer count as the μbank point, none of its bank
// parallelism), and the (2,8) μbank device, each under FR-FCFS,
// PAR-BS, and PAR-BS with the bandwidth regulator.
func QoSSweep(o Options) ([]QoSRow, error) {
	o = o.withDefaults()
	orgs := []struct {
		name   string
		nw, nb int
		subs   int
	}{
		{"conventional (1,1)", 1, 1, 0},
		{"SALP-16 (1,1)", 1, 1, 16},
		{"ubank (2,8)", 2, 8, 0},
	}
	policies := []struct {
		name   string
		sched  config.Scheduler
		budget int
	}{
		{"FR-FCFS", config.SchedFRFCFS, 0},
		{"PAR-BS", config.SchedPARBS, 0},
		{"PAR-BS+reg", config.SchedPARBS, 4},
	}
	type job struct {
		org int
		pol int
	}
	var jobs []job
	for oi := range orgs {
		for pi := range policies {
			jobs = append(jobs, job{oi, pi})
		}
	}
	results, err := mapRuns(o, jobs, func(env runEnv, j job) (system.Result, error) {
		org, pol := orgs[j.org], policies[j.pol]
		return runMulti(workload.MixHigh().ForCore, config.LPDDRTSI, org.nw, org.nb,
			func(s *config.System) {
				s.Mem.Org.Channels = 2 // concentrate interference
				s.Mem.Org.SubarraysPerBank = org.subs
				s.Ctrl.Scheduler = pol.sched
				s.Ctrl.BankBudget = pol.budget
			}, o, env)
	})
	if err != nil {
		return nil, err
	}
	var rows []QoSRow
	for i, j := range jobs {
		res := results[i]
		rows = append(rows, QoSRow{
			Org: orgs[j.org].name, Policy: policies[j.pol].name,
			IPC:   res.IPC,
			P50NS: res.LatP50NS, P95NS: res.LatP95NS,
			P99NS: res.LatP99NS, MaxNS: res.LatMaxNS,
			MaxSlowdown: res.MaxSlowdown,
			Fairness:    res.FairnessIndex,
		})
	}
	return rows, nil
}

// QoSTable renders the sweep with separators between organizations.
func QoSTable(rows []QoSRow) *stats.Table {
	t := stats.NewTable("QoS & scheduling: tail latency and fairness (mix-high, 2 channels)",
		"Organization", "Policy", "IPC", "p50 ns", "p95 ns", "p99 ns", "max ns", "MaxSlowdown", "Fairness")
	prev := ""
	for _, r := range rows {
		if prev != "" && r.Org != prev {
			t.AddSeparator()
		}
		prev = r.Org
		t.AddRow(r.Org, r.Policy, r.IPC,
			fmt.Sprintf("%.1f", r.P50NS), fmt.Sprintf("%.1f", r.P95NS),
			fmt.Sprintf("%.1f", r.P99NS), fmt.Sprintf("%.1f", r.MaxNS),
			fmt.Sprintf("%.3f", r.MaxSlowdown), fmt.Sprintf("%.3f", r.Fairness))
	}
	return t
}
