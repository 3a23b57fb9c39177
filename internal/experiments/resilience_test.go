package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"microbank/internal/check"
	"microbank/internal/check/golden"
	"microbank/internal/obs"
	"microbank/internal/parallel"
	"microbank/internal/system"
)

// resOpts is the small, fast campaign all resilience tests use: the
// quick headline sweep (3 benchmarks × 2 runs = 6 cells).
func resOpts(r *Resilience) Options {
	return Options{Quick: true, Instr: 6000, Parallelism: 2, Res: r}
}

// headlineReport runs the headline experiment and renders the report
// the CLI would write, failures included.
func headlineReport(t *testing.T, o Options) []byte {
	t.Helper()
	h, err := Headline(o)
	if err != nil {
		t.Fatalf("Headline: %v", err)
	}
	rep := NewReport("headline", o)
	rep.SetMetric("ipc_gain", h.IPCGain)
	rep.SetMetric("inv_edp_gain", h.InvEDPGain)
	if o.Res != nil {
		rep.AddFailures(o.Res.Log)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepParallelismResilience drives the fault-injection sweep at
// several -j widths: the collect-mode report — healthy gains plus the
// deadline failure record with its diagnostic snapshot — must be
// byte-identical whatever the worker count, because cells carry their
// own seeds and limits and results reduce in job order. Under -race it
// exercises concurrent panic isolation and failure collection.
func TestSweepParallelismResilience(t *testing.T) {
	mk := func(par int) []byte {
		res := &Resilience{Mode: FailCollect}
		if err := res.SetInject("timeout:3"); err != nil {
			t.Fatal(err)
		}
		o := resOpts(res)
		o.Parallelism = par
		h, err := Headline(o)
		if err != nil {
			t.Fatalf("-j %d: degraded sweep did not complete: %v", par, err)
		}
		fails := res.Log.Failures()
		if len(fails) != 1 || fails[0].Kind != system.LimitDeadline || fails[0].Diag == nil {
			t.Fatalf("-j %d: failures = %+v, want one deadline with a diagnostic", par, fails)
		}
		// The header records the -j width; pin it so the comparison
		// covers only results and failure records.
		o.Parallelism = 1
		rep := NewReport("headline", o)
		rep.SetMetric("ipc_gain", h.IPCGain)
		rep.SetMetric("inv_edp_gain", h.InvEDPGain)
		rep.AddFailures(res.Log)
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := mk(1)
	for _, par := range []int{2, runtime.NumCPU() + 1} {
		if got := mk(par); !bytes.Equal(got, want) {
			t.Fatalf("-j %d report drifted from -j 1:\n%s", par, golden.Diff(want, got))
		}
	}
}

// TestDegradedSweepAcceptance is the issue's acceptance scenario: a
// sweep with one injected panicking cell and one deadline-exceeding
// cell completes under collect, returns the healthy results, and
// records both failures with their diagnostics.
func TestDegradedSweepAcceptance(t *testing.T) {
	res := &Resilience{Mode: FailCollect}
	if err := res.SetInject("panic:1,timeout:3"); err != nil {
		t.Fatal(err)
	}
	o := resOpts(res)
	h, err := Headline(o)
	if err != nil {
		t.Fatalf("degraded sweep did not complete: %v", err)
	}
	if h.IPCGain <= 0 || h.InvEDPGain <= 0 {
		t.Fatalf("healthy pair produced no result: %+v", h)
	}
	fails := res.Log.Failures()
	if len(fails) != 2 {
		t.Fatalf("recorded %d failures, want 2: %+v", len(fails), fails)
	}
	pan, dl := fails[0], fails[1]
	if pan.Kind != FailKindPanic || pan.Cell != 1 {
		t.Fatalf("failure 0 = %+v, want panic at cell 1", pan)
	}
	if pan.Stack == "" || strings.Contains(pan.Stack, " +0x") || strings.Contains(pan.Stack, "goroutine ") {
		t.Fatalf("panic stack missing or not cleaned:\n%s", pan.Stack)
	}
	if dl.Kind != system.LimitDeadline || dl.Cell != 3 {
		t.Fatalf("failure 1 = %+v, want deadline at cell 3", dl)
	}
	if dl.Diag == nil || dl.Diag.Events == 0 {
		t.Fatalf("deadline failure carries no diagnostic snapshot: %+v", dl)
	}
	if pan.Digest == "" || dl.Digest == "" {
		t.Fatalf("failures missing config digests: %+v", fails)
	}
}

// TestProtocolViolationIsolated runs a sweep where one cell panics with
// the sanitizer's fatal-mode violation: siblings must complete and the
// failure must be classified as a protocol violation.
func TestProtocolViolationIsolated(t *testing.T) {
	res := &Resilience{Mode: FailCollect}
	o := resOpts(res)
	jobs := []int{0, 1, 2, 3}
	results, failed, err := mapRunsMasked(o, jobs, func(_ runEnv, j int) (system.Result, error) {
		if j == 2 {
			panic(&check.FatalViolation{V: check.Violation{
				Rule: check.RuleTRCD, Cmd: obs.CmdRD, At: 100, Earliest: 200}})
		}
		return system.Result{IPC: float64(j) + 1}, nil
	})
	if err != nil {
		t.Fatalf("degraded sweep errored: %v", err)
	}
	for i, r := range results {
		if i != 2 && r.IPC != float64(i)+1 {
			t.Fatalf("sibling %d lost its result: %+v", i, r)
		}
	}
	if !failed[2] || failed[0] || failed[1] || failed[3] {
		t.Fatalf("failed mask = %v, want only cell 2", failed)
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || fails[0].Kind != FailKindProtocol {
		t.Fatalf("failures = %+v, want one protocol violation", fails)
	}
	if !strings.Contains(fails[0].Error, "tRCD") {
		t.Fatalf("protocol failure lost the violation text: %q", fails[0].Error)
	}
}

// TestCollectModeFailsCampaign: collect runs every cell and reduces
// the healthy ones, but the campaign-level verdict is an error.
func TestCollectModeFailsCampaign(t *testing.T) {
	res := &Resilience{Mode: FailCollect}
	if err := res.SetInject("error:0"); err != nil {
		t.Fatal(err)
	}
	o := resOpts(res)
	if _, err := Headline(o); err != nil {
		t.Fatalf("collect-mode sweep must still complete: %v", err)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "1 cell(s) failed") {
		t.Fatalf("campaign verdict = %v, want collect-mode failure", err)
	}
}

func TestSetInjectErrors(t *testing.T) {
	for _, bad := range []string{"panic", "frob:1", "flaky:0", "panic:-1", "panic:x", "panic:1,"} {
		r := &Resilience{}
		if err := r.SetInject(bad); err == nil {
			t.Errorf("SetInject(%q) accepted", bad)
		}
	}
	r := &Resilience{}
	if err := r.SetInject("panic:1,timeout:3,budget:0"); err != nil {
		t.Fatalf("SetInject rejected a valid spec: %v", err)
	}
	if r.injectionAt(3) != "timeout" || r.injectionAt(2) != "" {
		t.Fatalf("inject map wrong: %+v", r.inject)
	}
}

// FuzzSetInject: the -inject parser never panics, and every spec it
// accepts arms only non-negative cells with a kind mapRuns knows.
func FuzzSetInject(f *testing.F) {
	for _, seed := range []string{"panic:1,timeout:3", "flaky:0", "panic:1,"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r := &Resilience{}
		if r.SetInject(spec) != nil {
			return
		}
		for cell, kind := range r.inject {
			switch kind {
			case "panic", "error", "timeout", "budget":
			default:
				t.Fatalf("SetInject(%q) armed unknown kind %q", spec, kind)
			}
			if cell < 0 {
				t.Fatalf("SetInject(%q) armed negative cell %d", spec, cell)
			}
		}
	})
}

func TestParseFailMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FailMode
	}{{"fail-fast", FailFast}, {"collect", FailCollect}} {
		got, err := ParseFailMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFailMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, bad := range []string{"explode", "degrade"} {
		if _, err := ParseFailMode(bad); err == nil || !strings.Contains(err.Error(), "unknown fail mode") {
			t.Fatalf("ParseFailMode(%q) = %v, want unknown fail mode", bad, err)
		}
	}
}

// TestMapRunsDefaultPanicIsFailure: with no Resilience configured, a
// panicking cell fails the sweep with an error value — a
// *parallel.TaskError carrying the cleaned stack — instead of crashing
// the process.
func TestMapRunsDefaultPanicIsFailure(t *testing.T) {
	results, err := mapRuns(Options{}, []int{0, 1, 2}, func(_ runEnv, j int) (system.Result, error) {
		if j == 1 {
			panic("cell 1 explodes")
		}
		return system.Result{IPC: 1}, nil
	})
	var te *parallel.TaskError
	if !errors.As(err, &te) || !te.Panicked || te.Index != 1 {
		t.Fatalf("err = %v, want the panicked cell 1 as a *parallel.TaskError", err)
	}
	if results != nil {
		t.Fatalf("fail-fast sweep returned partial results: %v", results)
	}
	if st := te.CleanStack(); st == "" || !strings.Contains(st, "resilience_test.go") {
		t.Fatalf("cleaned stack missing the panic site:\n%s", st)
	}
}

func TestCampaignKey(t *testing.T) {
	a := CampaignKey("headline", Options{Quick: true, Instr: 6000, Parallelism: 2})
	b := CampaignKey("headline", Options{Quick: true, Instr: 6000, Parallelism: 8})
	if a != b {
		t.Fatalf("parallelism leaked into the campaign key: %q vs %q", a, b)
	}
	c := CampaignKey("headline", Options{Quick: true, Instr: 7000, Parallelism: 2})
	if a == c {
		t.Fatalf("instruction budget not in the campaign key: %q", a)
	}
	want := "headline|schema=1|quick=true|instr=6000|cores=16|seed=42"
	if a != want {
		t.Fatalf("CampaignKey = %q, want %q", a, want)
	}
}

// TestResilientHealthySweepByteIdentical: arming resilience (with
// generous limits) must not change a healthy campaign's results.
func TestResilientHealthySweepByteIdentical(t *testing.T) {
	plain := headlineReport(t, resOpts(nil))
	res := &Resilience{Mode: FailCollect, Timeout: time.Hour, EventBudget: 1 << 40}
	armed := headlineReport(t, resOpts(res))
	// The reports echo identical options either way; only the failures
	// section could differ, and a healthy run must not have one.
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(armed, &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := b["failures"]; ok {
		t.Fatal("healthy armed run emitted a failures section")
	}
	if string(plain) != string(armed) {
		t.Fatalf("resilience perturbed a healthy campaign:\n--- plain\n%s\n--- armed\n%s", plain, armed)
	}
}
