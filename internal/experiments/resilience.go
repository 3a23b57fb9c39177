package experiments

// Sweep resilience: Options.Res configures how a sweep survives a bad
// cell — per-cell panic isolation (parallel.MapPolicy), the failure
// mode, per-run limits (system.Limits), a structured failure log that
// flows into the Report's failures section, and checkpointing into the
// content-addressed result store that lets an interrupted or partially
// failed campaign resume from its completed cells. Cells are addressed
// as (sweep, cell): experiments begin their sweeps serially in
// deterministic order, so the addressing — and therefore the store
// entries and the failure log — is stable across runs and across -j
// widths.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"microbank/internal/check"
	"microbank/internal/parallel"
	"microbank/internal/store"
	"microbank/internal/system"
)

// Failure kinds beyond the limit taxonomy of system.LimitError (whose
// Kind strings — deadline, event-budget, livelock, cancelled, stall —
// are reported verbatim).
const (
	FailKindPanic    = "panic"    // cell panicked (stack recorded)
	FailKindProtocol = "protocol" // DRAM timing sanitizer fatal violation
	FailKindError    = "error"    // ordinary error return
)

// FailKind classifies a run failure with the sweep taxonomy: protocol
// (sanitizer fatal violation), a limit kind (with the machine
// diagnostic the watchdog captured), or plain error. A panicking cell
// whose value classifies as plain error is reported as FailKindPanic
// by the caller, which alone knows it panicked.
func FailKind(err error) (kind string, diag *system.Diag) {
	var fv *check.FatalViolation
	var le *system.LimitError
	switch {
	case errors.As(err, &fv):
		return FailKindProtocol, nil
	case errors.As(err, &le):
		d := le.Diag
		return le.Kind, &d
	}
	return FailKindError, nil
}

// FailMode selects how a campaign reacts to a failed sweep cell.
type FailMode int

const (
	// FailFast aborts the campaign at the first failure, reporting the
	// lowest-index failure of the sweep it occurred in.
	FailFast FailMode = iota
	// FailCollect runs every cell, records every failure and checkpoints
	// the healthy cells. Experiments with a partial form (the Fig. 8/9
	// grids and the headline) reduce the healthy cells with the failed
	// ones marked; every other sweep fails with a "no degraded form"
	// error. Either way the campaign verdict (Resilience.Err) is non-nil,
	// so the CLI exits nonzero.
	FailCollect
)

// ParseFailMode maps a CLI flag value onto a FailMode.
func ParseFailMode(s string) (FailMode, error) {
	switch s {
	case "fail-fast":
		return FailFast, nil
	case "collect":
		return FailCollect, nil
	default:
		return FailFast, fmt.Errorf("unknown fail mode %q (fail-fast | collect)", s)
	}
}

// injectCheckEvents is the watchdog period used for injected limit
// faults: small enough that the injected limit trips at the very first
// check, making the trip point — and the whole failure record —
// deterministic.
const injectCheckEvents = 256

// CampaignKey identifies a campaign within the result store: experiment
// name plus every option that influences results, plus the report
// schema version (a schema bump invalidates old checkpoints).
// Parallelism is deliberately excluded — results are identical at any
// -j width.
func CampaignKey(experiment string, o Options) string {
	o = o.withDefaults()
	return fmt.Sprintf("%s|schema=%d|quick=%v|instr=%d|cores=%d|seed=%d",
		experiment, reportSchemaVersion, o.Quick, o.Instr, o.Cores, o.Seed)
}

// Resilience configures sweep survival for one experiment campaign.
// The zero value is the default campaign — fail-fast, unbounded runs,
// no store, no injection — and is what a nil *Resilience in Options
// means.
type Resilience struct {
	// Mode decides what a failed cell does to the campaign: FailFast
	// aborts at the first failure; FailCollect runs every cell and
	// reports failures in the log.
	Mode FailMode
	// Timeout and EventBudget bound every run of the campaign
	// (system.Limits.WallClock / EventBudget).
	Timeout     time.Duration
	EventBudget uint64
	// Store, when non-nil, checkpoints completed cells into the
	// content-addressed result store and replays them on later runs of
	// the same campaign — across resumes, -j widths and processes
	// sharing the directory. Entries are keyed by CampaignKey(o.Exp, o),
	// which binds them to everything that influences results; different
	// campaigns never share entries.
	Store *store.Store
	// OnDegrade, when non-nil, receives the one-line warning emitted
	// when store writes fail mid-campaign. Nil prints to stderr. It
	// fires at most once; the campaign itself never fails because its
	// checkpoints cannot persist.
	OnDegrade func(msg string)
	// Log accumulates structured failure records across the campaign's
	// sweeps (created on first use if nil).
	Log *FailureLog

	inject map[int]string // campaign cell index -> injected fault kind

	storeWarn sync.Once

	mu     sync.Mutex
	sweeps int
	cells  int
}

// SetInject arms deterministic fault injection from a CLI spec like
// "panic:1,timeout:3": a comma-separated list of kind:cell pairs,
// where cell counts campaign cells (across sweeps, in enumeration
// order) and kind is one of panic, error, timeout, budget.
func (r *Resilience) SetInject(spec string) error {
	if spec == "" {
		return nil
	}
	r.inject = map[int]string{}
	for _, part := range strings.Split(spec, ",") {
		kind, cellStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad inject spec %q (want kind:cell)", part)
		}
		cell, err := strconv.Atoi(cellStr)
		if err != nil || cell < 0 {
			return fmt.Errorf("bad inject cell in %q", part)
		}
		switch kind {
		case "panic", "error", "timeout", "budget":
		default:
			return fmt.Errorf("unknown inject kind %q (panic | error | timeout | budget)", kind)
		}
		r.inject[cell] = kind
	}
	return nil
}

// injectionAt returns the armed fault kind for a campaign cell.
func (r *Resilience) injectionAt(g int) string { return r.inject[g] }

// beginSweep assigns the next sweep id and the campaign-cell base
// index for a sweep of the given size. Sweeps begin serially (each
// sweep completes before the next starts), so ids and bases are
// deterministic.
func (r *Resilience) beginSweep(total int) (base, sweep int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Log == nil {
		r.Log = &FailureLog{}
	}
	base, sweep = r.cells, r.sweeps
	r.sweeps++
	r.cells += total
	return base, sweep
}

// storeCellAddr is the cell's address within the result store,
// derived from (sweep, cell) alone.
func storeCellAddr(sweep, cell int) string {
	return fmt.Sprintf("sweep %d cell %d", sweep, cell)
}

// storeLookup consults the result store, if any. The store verifies
// checksums on read and quarantines anything invalid, so an ok result
// is exactly the bytes a completed run committed — and JSON round-trips
// float64 exactly, so the decoded Result is bit-identical to the
// original.
func (r *Resilience) storeLookup(key string, sweep, cell int) (system.Result, bool) {
	if r.Store == nil {
		return system.Result{}, false
	}
	data, ok := r.Store.Get(key, storeCellAddr(sweep, cell))
	if !ok {
		return system.Result{}, false
	}
	var res system.Result
	if err := json.Unmarshal(data, &res); err != nil {
		// Checksummed payloads do not fail to decode unless the schema
		// moved underneath them; treat as a miss and re-simulate.
		return system.Result{}, false
	}
	return res, true
}

// degrade surfaces a persistence warning: OnDegrade when set, stderr
// otherwise.
func (r *Resilience) degrade(msg string) {
	if r.OnDegrade != nil {
		r.OnDegrade(msg)
		return
	}
	fmt.Fprintln(os.Stderr, "microbank: "+msg)
}

// storeCheckpoint commits a freshly simulated cell to the result
// store, degrading on failure: the first write error (disk full,
// permissions, torn device) produces a single warning and the store's
// own sticky write-disable — it never fails the cell, whose simulation
// result is healthy.
func (r *Resilience) storeCheckpoint(key string, sweep, cell int, res system.Result) {
	if r.Store == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if err := r.Store.Put(key, storeCellAddr(sweep, cell), payload); err != nil {
		r.storeWarn.Do(func() {
			r.degrade("warning: " + err.Error())
		})
	}
}

// Err returns the campaign-level verdict once every sweep has run:
// any recorded failure is an error.
func (r *Resilience) Err() error {
	if n := r.Log.Len(); n > 0 {
		return fmt.Errorf("sweep: %d cell(s) failed (failure records in the report)", n)
	}
	return nil
}

// limitsFor builds the per-run limits for campaign cell g: the
// campaign-wide timeout/event budget, or an injected limit fault that
// deterministically trips at the first watchdog check. A caller
// context (Options.Ctx — the CLI's signal handler) rides along so an
// interrupt cancels in-flight cells at the next watchdog check; the
// armed watchdog is read-only and never perturbs results. o.Res must
// be non-nil (mapRunsMasked defaults it).
func (o Options) limitsFor(g int) *system.Limits {
	switch o.Res.injectionAt(g) {
	case "timeout":
		return &system.Limits{WallClock: time.Nanosecond, CheckEvents: injectCheckEvents}
	case "budget":
		return &system.Limits{EventBudget: 1, CheckEvents: injectCheckEvents}
	}
	return o.Res.RunLimits(o.Ctx)
}

// RunLimits returns the limits a run — a sweep cell without an
// injected limit, or an ad-hoc -exp run — inherits from the campaign
// flags: the wall-clock deadline and event budget, or nil when
// unbounded. ctx (which may be nil) threads the caller's
// cancellation — the CLI's signal handler — into the run's watchdog.
func (r *Resilience) RunLimits(ctx context.Context) *system.Limits {
	if r.Timeout <= 0 && r.EventBudget == 0 {
		if ctx != nil {
			return &system.Limits{Ctx: ctx}
		}
		return nil
	}
	return &system.Limits{Ctx: ctx, WallClock: r.Timeout, EventBudget: r.EventBudget}
}

// FailureLog accumulates structured failure records across every
// sweep of a campaign. Safe for concurrent use.
type FailureLog struct {
	mu    sync.Mutex
	fails []ReportFailure
}

func (l *FailureLog) add(f ReportFailure) {
	l.mu.Lock()
	l.fails = append(l.fails, f)
	l.mu.Unlock()
}

// Len returns the number of recorded failures (none for a nil log, a
// campaign that ran no sweep).
func (l *FailureLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fails)
}

// Failures returns a copy of the recorded failures, in (sweep, cell)
// order of recording (sweeps are serial; within a sweep, records are
// added sorted by cell). A nil log, a campaign that ran no sweep, has
// none.
func (l *FailureLog) Failures() []ReportFailure {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ReportFailure(nil), l.fails...)
}

// failureRecord converts a task failure into its report form,
// classified by FailKind (a panic that is neither a protocol violation
// nor a limit trip is FailKindPanic) with the cleaned stack of a panic
// attached. Records hold no wall-clock values — they must be
// byte-identical across runs for store-backed resume.
func failureRecord(sweep int, te *parallel.TaskError) ReportFailure {
	f := ReportFailure{Sweep: sweep, Cell: te.Index, Digest: te.Digest, Error: te.Err.Error()}
	f.Kind, f.Diag = FailKind(te.Err)
	if te.Panicked {
		if f.Kind == FailKindError {
			f.Kind = FailKindPanic
		}
		f.Stack = te.CleanStack()
	}
	return f
}
