package main

import (
	"testing"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/system"
)

// smallSpec is a short 8-core run on the membound machine: two busy
// channels under PAR-BS, long enough to write dirty lines back.
func smallSpec(seed int64) system.Spec {
	s := multiSpec([]string{"429.mcf", "RADIX"}, seed, func(s *config.System) {
		s.Cores = 8
		s.Mem.Org.Channels = 2
		s.Ctrl.Scheduler = config.SchedPARBS
	})
	s.InstrPerCore, s.WarmupInstr = 20000, 10000
	return s
}

// TestTracedRunMatchesUntraced is observer invariance: the hooks,
// including the GeneratorFor replica, leave every simulated output
// bit-identical.
func TestTracedRunMatchesUntraced(t *testing.T) {
	spec := smallSpec(3)
	plain, err := system.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traceRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultDigest(plain), resultDigest(tr.res); a != b {
		t.Fatalf("traced digest %s, untraced %s", b, a)
	}
	if tr.diag.events == 0 || tr.nextCalls() == 0 || tr.dram.counts(-1)[obs.CmdWR] == 0 {
		t.Fatalf("traced run recorded too little: %d events, %d generator calls, %v commands",
			tr.diag.events, tr.nextCalls(), tr.dram.counts(-1))
	}
}

// TestReplaysAreDeterministic replays one traced run twice, and a
// second traced run of the same spec once: every replay must reproduce
// the traced counts and perform the same operations each time.
func TestReplaysAreDeterministic(t *testing.T) {
	spec := smallSpec(5)
	var ops [][6]uint64
	for run := 0; run < 2; run++ {
		tr, err := traceRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2-run; rep++ {
			r, err := replayAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, [6]uint64{r.sim.ops, r.next.ops, r.l1.ops, r.l2.ops, r.ctl.ops, r.dram.ops})
			if r.sim.ops != tr.diag.events || r.next.ops != tr.nextCalls() || r.l1.ops != tr.l1Accesses() {
				t.Fatalf("replay ops %v do not match traced counts (%d events, %d calls, %d L1 accesses)",
					ops[len(ops)-1], tr.diag.events, tr.nextCalls(), tr.l1Accesses())
			}
		}
	}
	for _, o := range ops[1:] {
		if o != ops[0] {
			t.Fatalf("replays differ: %v", ops)
		}
	}
}

// TestReplayDetectsDivergence corrupts a recorded stream and expects the
// replays to report it, as an error and not a crash, rather than time
// it.
func TestReplayDetectsDivergence(t *testing.T) {
	corrupt := map[string]func(*tracedRun){
		"workload": func(tr *tracedRun) { tr.gens[0].hash ^= 1 },
		"dram": func(tr *tracedRun) {
			for i, k := range tr.dram.perChan[0] {
				if k.kind == obs.CmdRD {
					tr.dram.perChan[0][i].kind = obs.CmdWR
					return
				}
			}
		},
		"dram-order": func(tr *tracedRun) {
			cmds := tr.dram.perChan[1]
			cmds[0], cmds[1] = cmds[1], cmds[0]
		},
	}
	for name, fn := range corrupt {
		tr, err := traceRun(smallSpec(9))
		if err != nil {
			t.Fatal(err)
		}
		fn(tr)
		if _, err := replayAll(tr); err == nil {
			t.Errorf("%s: replay accepted a corrupted stream", name)
		}
	}
}

// TestFig8SpecsMatchSweep checks that the benchmark's copy of the
// sweep's cell list is the one experiments runs, cell for cell.
func TestFig8SpecsMatchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 8/9 sweep")
	}
	w, _ := findWorkload("fig8sweep")
	o, err := runOnce(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	var cells []system.Result
	for _, s := range w.specs(42) {
		res, err := system.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, res)
	}
	if d := recomputedGridDigest(cells); d != o.digest {
		t.Fatalf("grids rebuilt from the benchmark's cells hash to %s, Fig8And9 to %s", d, o.digest)
	}
	if want, ok := expectedDigest("fig8sweep", 42); !ok || want != o.digest {
		t.Fatalf("recorded digest %q (present %v), sweep %s", want, ok, o.digest)
	}
}

func TestRecordedDigestsHoldForEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		if w.sweep {
			continue // covered by TestFig8SpecsMatchSweep
		}
		for _, seed := range []int64{42, 7} {
			want, ok := expectedDigest(w.name, seed)
			if !ok {
				t.Fatalf("%s seed %d: no recorded digest", w.name, seed)
			}
			o, err := runOnce(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if o.digest != want {
				t.Errorf("%s seed %d: digest %s, recorded %s", w.name, seed, o.digest, want)
			}
		}
	}
}
