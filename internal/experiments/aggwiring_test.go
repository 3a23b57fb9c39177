package experiments

// Tests for the campaign-aggregator wiring in mapRuns: cell lifecycle
// events, per-cell registry merging, failure/retry accounting, and the
// invariant that attaching an aggregator changes no result.

import (
	"errors"
	"reflect"
	"testing"

	"microbank/internal/obs"
	"microbank/internal/system"
)

func aggValue(t *testing.T, agg *obs.Aggregator, name string) float64 {
	t.Helper()
	for _, s := range agg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("aggregator did not gather %q", name)
	return 0
}

func TestMapRunsFeedsAggregator(t *testing.T) {
	agg := obs.NewAggregator("test")
	o := Options{Quick: true, Instr: 6000, Parallelism: 2, Agg: agg}
	jobs := []int{10, 20, 30}
	results, err := mapRuns(o, jobs, func(env runEnv, j int) (system.Result, error) {
		if env.obs == nil {
			t.Error("aggregated sweep cell ran without an observer")
		} else {
			env.obs.Registry.Counter("test.units").Add(uint64(j))
		}
		return system.Result{IPC: float64(j)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.IPC != float64(jobs[i]) {
			t.Fatalf("cell %d: result=%+v", i, r)
		}
	}
	if v := aggValue(t, agg, "sweep.done"); v != 3 {
		t.Fatalf("sweep.done = %v, want 3", v)
	}
	if v := aggValue(t, agg, "sweep.inflight"); v != 0 {
		t.Fatalf("sweep.inflight = %v, want 0", v)
	}
	// Per-cell snapshots merge by summation: 10+20+30.
	if v := aggValue(t, agg, "test.units"); v != 60 {
		t.Fatalf("merged test.units = %v, want 60", v)
	}
}

func TestMapRunsAggregatorFailures(t *testing.T) {
	agg := obs.NewAggregator("test")
	res := &Resilience{Mode: FailCollect}
	o := Options{Quick: true, Instr: 6000, Parallelism: 2, Res: res, Agg: agg}
	_, failed, err := mapRunsMasked(o, []int{0, 1}, func(_ runEnv, j int) (system.Result, error) {
		if j == 1 {
			return system.Result{}, errors.New("hard failure")
		}
		return system.Result{IPC: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed[1] || failed[0] {
		t.Fatalf("failed mask = %v", failed)
	}
	if v := aggValue(t, agg, "sweep.failures"); v != 1 {
		t.Fatalf("sweep.failures = %v, want 1", v)
	}
	if v := aggValue(t, agg, "sweep.failures{kind=error}"); v != 1 {
		t.Fatalf("failure kind taxonomy = %v, want 1", v)
	}
	if v := aggValue(t, agg, "sweep.done"); v != 2 { // 1 done + 1 failed
		t.Fatalf("sweep.done = %v, want 2", v)
	}
}

// TestAggregatorDoesNotPerturbSweep: the same real sweep with and
// without an aggregator attached must produce identical tables — the
// observability plane is read-only.
func TestAggregatorDoesNotPerturbSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep")
	}
	o := Options{Quick: true, Instr: 6000, Parallelism: 2}
	plain, err := Headline(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Agg = obs.NewAggregator("headline")
	observed, err := Headline(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, plain) {
		t.Errorf("aggregated sweep diverged:\n got: %+v\nwant: %+v", observed, plain)
	}
	if v := aggValue(t, o.Agg, "sweep.done"); v == 0 {
		t.Error("aggregator saw no cells during the headline sweep")
	}
	// Real per-cell registries merged: the memory-controller series must
	// be present in the campaign view.
	if v := aggValue(t, o.Agg, "cpu.instr_retired"); v <= 0 {
		t.Errorf("merged cpu.instr_retired = %v, want > 0", v)
	}
}
