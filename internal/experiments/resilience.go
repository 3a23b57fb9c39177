package experiments

// Sweep resilience: Options.Res arms the resilient execution path of
// mapRuns — per-cell panic isolation and retries (parallel.MapPolicy),
// per-run limits (system.Limits), a structured failure log that flows
// into the Report's failures section, and checkpointing into the
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
	"microbank/internal/obs"
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
// The zero value of each field is the conservative default; a nil
// *Resilience in Options selects the original fail-fast path with no
// overhead.
type Resilience struct {
	// Mode decides what a failed cell does to the campaign: FailFast
	// aborts at the first failure; FailCollect and FailDegrade both run
	// every cell and report failures in the log (collect additionally
	// makes Err() non-nil so the CLI exits nonzero).
	Mode parallel.FailMode
	// Retries/Backoff bound re-attempts of transient failures
	// (wall-clock deadline trips; everything else in a deterministic
	// simulator fails identically on retry).
	Retries int
	Backoff time.Duration
	// Timeout and EventBudget bound every run of the campaign
	// (system.Limits.WallClock / EventBudget).
	Timeout     time.Duration
	EventBudget uint64
	// Store, when non-nil, checkpoints completed cells into the
	// content-addressed result store and replays them on later runs of
	// the same campaign — across resumes, -j widths and processes
	// sharing the directory. StoreKey is this campaign's key within it
	// (CampaignKey), binding entries to everything that influences
	// results; different campaigns never share entries.
	Store    *store.Store
	StoreKey string
	// OnDegrade, when non-nil, receives the one-line warning emitted
	// when store writes fail mid-campaign. Nil prints to stderr. It
	// fires at most once; the campaign itself never fails because its
	// checkpoints cannot persist.
	OnDegrade func(msg string)
	// Log accumulates structured failure records across the campaign's
	// sweeps (created on first use if nil).
	Log *FailureLog

	inject map[int]string // campaign cell index -> injected fault kind
	flaky  sync.Map       // cells whose injected transient already fired

	storeWarn sync.Once

	mu     sync.Mutex
	sweeps int
	cells  int
}

// SetInject arms deterministic fault injection from a CLI spec like
// "panic:1,timeout:3": a comma-separated list of kind:cell pairs,
// where cell counts campaign cells (across sweeps, in enumeration
// order) and kind is one of panic, error, timeout, budget, flaky
// (fails the first attempt with a retryable error, then succeeds).
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
		case "panic", "error", "timeout", "budget", "flaky":
		default:
			return fmt.Errorf("unknown inject kind %q (panic | error | timeout | budget | flaky)", kind)
		}
		r.inject[cell] = kind
	}
	return nil
}

// injectionAt returns the armed fault kind for a campaign cell.
func (r *Resilience) injectionAt(g int) string { return r.inject[g] }

// firstAttempt reports (once) that the flaky injection at campaign
// cell g has not fired yet.
func (r *Resilience) firstAttempt(g int) bool {
	_, loaded := r.flaky.LoadOrStore(g, true)
	return !loaded
}

// beginSweep assigns the next sweep id and the campaign-cell base
// index for a sweep of the given size. Sweeps begin serially (each
// mapRuns call completes before the next starts), so ids and bases are
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
func (r *Resilience) storeLookup(sweep, cell int) (system.Result, bool) {
	if r.Store == nil {
		return system.Result{}, false
	}
	data, ok := r.Store.Get(r.StoreKey, storeCellAddr(sweep, cell))
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
func (r *Resilience) storeCheckpoint(sweep, cell int, res system.Result) {
	if r.Store == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if err := r.Store.Put(r.StoreKey, storeCellAddr(sweep, cell), payload); err != nil {
		r.storeWarn.Do(func() {
			r.degrade("warning: " + err.Error())
		})
	}
}

// Err returns the campaign-level verdict once every sweep has run:
// non-nil in collect mode when failures were recorded. Degrade mode
// returns nil — partial results are the contract — and fail-fast
// campaigns never reach this point with failures.
func (r *Resilience) Err() error {
	if r == nil || r.Log == nil {
		return nil
	}
	if n := r.Log.Len(); n > 0 && r.Mode == parallel.FailCollect {
		return fmt.Errorf("sweep: %d cell(s) failed (failure records in the report)", n)
	}
	return nil
}

// RegisterMetrics exports the campaign's failure/retry counters into
// an obs registry as sweep.failures and sweep.retries gauges.
func (r *Resilience) RegisterMetrics(reg *obs.Registry) {
	r.mu.Lock()
	if r.Log == nil {
		r.Log = &FailureLog{}
	}
	log := r.Log
	r.mu.Unlock()
	reg.GaugeFunc("sweep.failures", func() float64 { return float64(log.Len()) })
	reg.GaugeFunc("sweep.retries", func() float64 { return float64(log.Retries()) })
	if s := r.Store; s != nil {
		reg.GaugeFunc("store.hits", func() float64 { return float64(s.Stats().Hits) })
		reg.GaugeFunc("store.misses", func() float64 { return float64(s.Stats().Misses) })
		reg.GaugeFunc("store.quarantined", func() float64 { return float64(s.Stats().Quarantined) })
	}
}

// limitsFor builds the per-run limits for campaign cell g: the
// campaign-wide timeout/event budget, or an injected limit fault that
// deterministically trips at the first watchdog check. A caller
// context (Options.Ctx — the CLI's signal handler) rides along so an
// interrupt cancels in-flight cells at the next watchdog check; the
// armed watchdog is read-only and never perturbs results.
func (o Options) limitsFor(g int) *system.Limits {
	r := o.Res
	if r == nil {
		if o.Ctx != nil {
			return &system.Limits{Ctx: o.Ctx}
		}
		return nil
	}
	switch r.injectionAt(g) {
	case "timeout":
		return &system.Limits{WallClock: time.Nanosecond, CheckEvents: injectCheckEvents}
	case "budget":
		return &system.Limits{EventBudget: 1, CheckEvents: injectCheckEvents}
	}
	if r.Timeout <= 0 && r.EventBudget == 0 {
		if o.Ctx != nil {
			return &system.Limits{Ctx: o.Ctx}
		}
		return nil
	}
	return &system.Limits{Ctx: o.Ctx, WallClock: r.Timeout, EventBudget: r.EventBudget}
}

// RunLimits returns the limits a single ad-hoc run (-exp run) inherits
// from the campaign flags: the wall-clock deadline and event budget,
// or nil when unbounded. ctx (which may be nil) threads the caller's
// cancellation — the CLI's signal handler — into the run's watchdog.
func (r *Resilience) RunLimits(ctx context.Context) *system.Limits {
	if r == nil || (r.Timeout <= 0 && r.EventBudget == 0) {
		if ctx != nil {
			return &system.Limits{Ctx: ctx}
		}
		return nil
	}
	return &system.Limits{Ctx: ctx, WallClock: r.Timeout, EventBudget: r.EventBudget}
}

// errInjectedTransient is the retryable error the flaky injection
// produces on a cell's first attempt.
var errInjectedTransient = errors.New("injected transient failure")

// retryable classifies a cell failure as worth re-attempting. Only
// wall-clock deadline trips qualify (host contention can clear); every
// other failure of a deterministic simulation repeats identically.
func retryable(err error) bool {
	if errors.Is(err, errInjectedTransient) {
		return true
	}
	var le *system.LimitError
	return errors.As(err, &le) && le.Kind == system.LimitDeadline
}

// FailureLog accumulates structured failure records and retry counts
// across every sweep of a campaign. Safe for concurrent use.
type FailureLog struct {
	mu      sync.Mutex
	fails   []ReportFailure
	retries uint64
}

func (l *FailureLog) add(f ReportFailure) {
	l.mu.Lock()
	l.fails = append(l.fails, f)
	l.mu.Unlock()
}

// NoteRetry counts one retry attempt.
func (l *FailureLog) NoteRetry() {
	l.mu.Lock()
	l.retries++
	l.mu.Unlock()
}

// Len returns the number of recorded failures.
func (l *FailureLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fails)
}

// Retries returns the total retry count.
func (l *FailureLog) Retries() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retries
}

// Failures returns a copy of the recorded failures, in (sweep, cell)
// order of recording (sweeps are serial; within a sweep, records are
// added sorted by cell).
func (l *FailureLog) Failures() []ReportFailure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ReportFailure(nil), l.fails...)
}

// failureRecord converts a task failure into its report form,
// classifying the error: protocol (sanitizer fatal violation), a limit
// kind (deadline/event-budget/livelock/cancelled/stall, with the
// machine diagnostic attached), panic (cleaned stack attached), or
// plain error. Elapsed time is deliberately dropped — failure records
// must be byte-identical across runs for store-backed resume.
func failureRecord(sweep int, te *parallel.TaskError) ReportFailure {
	f := ReportFailure{
		Sweep:    sweep,
		Cell:     te.Index,
		Kind:     FailKindError,
		Digest:   te.Digest,
		Attempts: te.Attempts,
		Error:    te.Err.Error(),
	}
	var fv *check.FatalViolation
	var le *system.LimitError
	switch {
	case errors.As(te.Err, &fv):
		f.Kind = FailKindProtocol
	case errors.As(te.Err, &le):
		f.Kind = le.Kind
		d := le.Diag
		f.Diag = &d
	case te.Panicked:
		f.Kind = FailKindPanic
	}
	if te.Panicked {
		f.Stack = te.CleanStack()
	}
	return f
}

// partialUnsupported is the error an experiment returns when cells
// failed under collect/degrade but its reduction has no degraded form.
func partialUnsupported(exp string, failed []bool) error {
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d cell(s) failed and this experiment's reduction has no degraded form; fix the failures and -resume, or rerun with -fail-mode=fail-fast", exp, n)
}
