package parallel

// Resilient sweep execution: MapPolicy is the one worker pool. Every
// item runs under a recover, so a pathological cell becomes a
// structured TaskError (item index, config digest, panic stack)
// instead of tearing the process down, and the policy decides whether
// one failure cancels the sweep or the sweep runs to completion with
// its failures listed. The experiment layer turns TaskErrors into
// report entries and metrics.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// TaskError describes one failed work item: which item and how it
// failed (error or recovered panic). Digest carries the caller's
// description of the item's configuration so a failure in a
// multi-hour sweep names its cell without cross-referencing the job
// list.
type TaskError struct {
	Index    int
	Digest   string
	Panicked bool
	// Stack is the raw panic stack (debug.Stack); empty unless
	// Panicked. CleanStack strips its nondeterministic parts for
	// report embedding.
	Stack string
	Err   error
}

// Error renders the failure.
func (e *TaskError) Error() string {
	what := fmt.Sprintf("task %d", e.Index)
	if e.Digest != "" {
		what += " (" + e.Digest + ")"
	}
	verb := "failed"
	if e.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("%s %s: %v", what, verb, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// CleanStack returns the panic stack with its nondeterministic content
// removed, suitable for byte-stable reports.
func (e *TaskError) CleanStack() string { return CleanStack(e.Stack) }

// CleanStack strips the parts of a runtime stack trace that vary
// between otherwise identical runs of the same binary — goroutine ids,
// hexadecimal argument values, and instruction offsets — keeping only
// function names and file:line locations. Two runs that fail on the
// same code path therefore produce byte-identical cleaned stacks,
// which is what lets a resumed campaign reproduce its report exactly.
func CleanStack(s string) string {
	var out []string
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		switch {
		case strings.HasPrefix(ln, "goroutine "):
			continue
		case strings.HasPrefix(ln, "\t"):
			// Location line: "\t/path/file.go:123 +0x5e".
			if i := strings.LastIndex(ln, " +0x"); i >= 0 {
				ln = ln[:i]
			}
		default:
			// Function line: strip the trailing argument list (the last
			// parenthesized group) and "in goroutine N" suffixes.
			if i := strings.Index(ln, " in goroutine "); i >= 0 {
				ln = ln[:i]
			}
			if strings.HasSuffix(ln, ")") {
				if i := strings.LastIndex(ln, "("); i >= 0 {
					ln = ln[:i]
				}
			}
		}
		if ln != "" {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// Policy configures MapPolicy.
type Policy struct {
	// FailFast cancels the sweep at the first failure. Otherwise every
	// item runs and the failures come back beside the healthy results,
	// so callers can produce a partial grid with failed cells marked.
	FailFast bool
	// Digest, when non-nil, labels item i in failures — conventionally
	// a human-readable config digest of the sweep cell.
	Digest func(i int) string
}

// MapPolicy applies f to every element of items using at most
// Width(width) concurrent workers and returns the results in input
// order, so healthy cells are byte-identical to a serial run at any
// width. Each item runs under a recover: a panicking item becomes a
// *TaskError carrying its stack, exactly like an item that returned an
// error.
//
// Failures are returned sorted by item index; failed items hold the
// zero R. Under pol.FailFast the first failure cancels the derived
// context, no further items start, the partial results are discarded,
// and the returned error is the lowest-index *TaskError — panic or
// error alike. Otherwise the returned error is nil once every item has
// run. Either way, a cancelled ctx with no failure to report returns
// the context's error: an interrupted sweep must not be mistaken for a
// complete (or degraded-but-complete) one.
func MapPolicy[T, R any](ctx context.Context, width int, items []T, pol Policy,
	f func(context.Context, T) (R, error)) ([]R, []*TaskError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil, ctx.Err()
	}
	w := Width(width)
	if w > n {
		w = n
	}
	wctx := ctx
	cancel := func() {}
	if pol.FailFast {
		wctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []*TaskError
	)
	runItem := func(i int) {
		r, err, pv, stack, panicked := guard(wctx, items[i], f)
		if !panicked && err == nil {
			results[i] = r
			return
		}
		te := &TaskError{Index: i, Panicked: panicked, Err: err}
		if pol.Digest != nil {
			te.Digest = pol.Digest(i)
		}
		if panicked {
			te.Stack = stack
			if perr, ok := pv.(error); ok {
				te.Err = perr
			} else {
				te.Err = fmt.Errorf("panic: %v", pv)
			}
		}
		mu.Lock()
		failures = append(failures, te)
		mu.Unlock()
		cancel()
	}
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				runItem(i)
			}
		}()
	}
	wg.Wait()
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })

	if pol.FailFast && len(failures) > 0 {
		return nil, failures, failures[0]
	}
	if err := ctx.Err(); err != nil {
		return nil, failures, err
	}
	return results, failures, nil
}
