package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 7}, 5.25, 1.8125, 8.5},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{2, 2, 2, 10, 1, 7.5, 3.25}, 2, 2, 7.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("input reordered: %v", c.xs)
			}
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    int
		have bool
	}{
		{5, 0, false},
		{10, 0, false},
		{20, 50, true},
		{100, 90, true},
		{1000, 99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.have || p != c.p {
			t.Errorf("tailPercentile(%d) = %d, %v, want %d, %v", c.n, p, ok, c.p, c.have)
		}
	}
	// The definition itself, for every size up to 2000.
	for n := 1; n <= 2000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			continue
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, p)
		beyond := n - 1 - int(v)
		if beyond < 10 {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond)
		}
		if p < 99 {
			if q := percentile(xs, p+1); n-1-int(q) >= 10 {
				t.Fatalf("n=%d: p%d also has ten samples beyond it", n, p+1)
			}
		}
	}
}

func TestValidName(t *testing.T) {
	for _, n := range []string{"setup_s", "cache.l1.ns_per_access", "sim-1", "0x", "a"} {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, n := range []string{"", "_x", ".x", "a b", "a/b", "µbank", "a{b}", string(long)} {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
}

// TestBenchmarkJSONNames checks that the benchmark's declared names
// are legal and that a traced and an untraced run emit exactly the
// declared metrics, so a reader of the result line never finds a
// declared metric missing or an undeclared one present.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !validName(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, m := range append(append([]struct{ Name, Unit string }{}, spec.EndToEnd...), spec.PerLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("benchmark defines %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if testing.Short() {
		return
	}
	w, _ := findWorkload("fig8sweep")
	for _, c := range []struct {
		b    *bench
		want map[string]string
	}{
		{measure(w, 42, 1), declared(spec.EndToEnd)},
		{measureTraced(w, 42, 1), declared(spec.PerLayer)},
	} {
		r := c.b.result()
		if !r.Correct || r.Failed != 0 {
			t.Errorf("run not correct: %v", c.b.problems)
		}
		for name, unit := range c.want {
			if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("metric %s: got %+v, declared unit %q", name, m, unit)
			}
		}
		for name := range r.Metrics {
			if _, ok := c.want[name]; !ok {
				t.Errorf("metric %s emitted but not declared", name)
			}
		}
	}
}

// TestCompareFlagsOtherHosts checks that records from different hosts
// are compared with a warning rather than silently.
func TestCompareFlagsOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint, v float64) string {
		rec := record{Host: fp, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"sim_minstr_per_s": {Value: v, Unit: "Minstr/s"}}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := hostFingerprint("membound", 42, 20, false)
	other := fp
	other.CPUModel, other.NumCPU = "another CPU", fp.NumCPU+2
	same := fp
	same.Seed, same.GitRev = 7, "0123abc"
	for _, c := range []struct {
		fp   fingerprint
		warn bool
	}{{same, false}, {other, true}} {
		var out strings.Builder
		if err := compareRecords(&out, write("a.json", fp, 2), write("b.json", c.fp, 2.5)); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if strings.Contains(got, "host fingerprints differ") != c.warn {
			t.Errorf("warning = %v, want %v:\n%s", !c.warn, c.warn, got)
		}
		if !strings.Contains(got, "+25.00%") {
			t.Errorf("comparison does not show the change:\n%s", got)
		}
	}
}
