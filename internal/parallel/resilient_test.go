package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestMapPanicRacingParentCancellation: a panic that lands after the
// caller's own context was cancelled still surfaces as the sweep's
// error — a recorded failure outranks context.Canceled, so a bug is not
// hidden behind a routine interruption.
func TestMapPanicRacingParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var oneInFlight sync.WaitGroup
	oneInFlight.Add(1)
	_, _, err := MapPolicy(ctx, 2, []int{0, 1}, Policy{FailFast: true},
		func(ctx context.Context, v int) (int, error) {
			if v == 0 {
				oneInFlight.Wait()
				cancel()
				return 0, nil
			}
			oneInFlight.Done()
			<-ctx.Done()
			panic("post-cancel panic")
		})
	var te *TaskError
	if !errors.As(err, &te) || !te.Panicked || te.Index != 1 ||
		te.Err.Error() != "panic: post-cancel panic" {
		t.Fatalf("err = %v, want the item-1 panic", err)
	}
}

// TestMapLowestIndexPanic: fail-fast returns the lowest-index failure
// whatever its kind — a slow panic at item 0 outranks a fast error at
// item 3 (in flight together), and the panic arrives as a value
// carrying the worker's stack, never as a re-raised panic.
func TestMapLowestIndexPanic(t *testing.T) {
	var zeroIn, release sync.WaitGroup
	zeroIn.Add(1)
	release.Add(1)
	_, _, err := MapPolicy(context.Background(), 8, []int{0, 1, 2, 3}, Policy{FailFast: true},
		func(_ context.Context, v int) (int, error) {
			switch v {
			case 0:
				zeroIn.Done()
				release.Wait() // panic last...
				panic("slow panic at 0")
			case 3:
				zeroIn.Wait()
				defer release.Done()
				return 0, errors.New("fast error at 3") // ...after item 3 failed
			}
			return v, nil
		})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 || !te.Panicked {
		t.Fatalf("err = %v, want the item-0 panic", err)
	}
	if !strings.Contains(te.Stack, "resilient_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", te.Stack)
	}
}

// TestMapPolicyDegrade: a panicking cell and an erroring cell without
// fail-fast leave the sweep healthy — every item runs, full-length
// results with the failed cells zeroed, failures reported
// structurally, nil error.
func TestMapPolicyDegrade(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	for _, width := range []int{1, 3} {
		res, fails, err := MapPolicy(context.Background(), width, items,
			Policy{Digest: func(i int) string { return fmt.Sprintf("cell%d", i) }},
			func(_ context.Context, v int) (int, error) {
				switch v {
				case 2:
					panic("bad cell")
				case 4:
					return 0, errors.New("sim diverged")
				}
				return v * 10, nil
			})
		if err != nil {
			t.Fatalf("width %d: degrade sweep errored: %v", width, err)
		}
		want := []int{0, 10, 0, 30, 0, 50}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("width %d: res[%d] = %d, want %d", width, i, res[i], want[i])
			}
		}
		if len(fails) != 2 || fails[0].Index != 2 || fails[1].Index != 4 {
			t.Fatalf("width %d: failures = %+v", width, fails)
		}
		if !fails[0].Panicked || fails[0].Stack == "" || fails[0].Digest != "cell2" {
			t.Fatalf("width %d: panic failure not fully described: %+v", width, fails[0])
		}
		if fails[1].Panicked || fails[1].Err.Error() != "sim diverged" {
			t.Fatalf("width %d: error failure mislabelled: %+v", width, fails[1])
		}
	}
}

// TestMapPolicyFailFast: the sweep cancels early and returns the
// lowest-index TaskError; a panic becomes an error value, not a panic,
// at every width.
func TestMapPolicyFailFast(t *testing.T) {
	for _, width := range []int{1, 2} {
		_, fails, err := MapPolicy(context.Background(), width, []int{0, 1, 2}, Policy{FailFast: true},
			func(_ context.Context, v int) (int, error) {
				if v == 1 {
					panic("cell explodes")
				}
				return v, nil
			})
		var te *TaskError
		if !errors.As(err, &te) || !te.Panicked || te.Index != 1 {
			t.Fatalf("width %d: err = %v, want a panicked *TaskError for item 1", width, err)
		}
		if len(fails) == 0 || fails[0] != te {
			t.Fatalf("width %d: returned error is not the lowest-index failure", width)
		}
	}
}

// TestMapPolicyParentCancellation: caller-level cancellation of a
// sweep that is not fail-fast is an interruption, not a degraded
// completion — the context error comes back so partial results aren't
// mistaken for a finished grid.
func TestMapPolicyParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.Once
	res, _, err := MapPolicy(ctx, 2, make([]int, 1000), Policy{},
		func(context.Context, int) (int, error) {
			started.Do(cancel)
			return 0, nil
		})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err = %v, want context.Canceled and no results", res, err)
	}
}

func TestTaskErrorRendering(t *testing.T) {
	te := &TaskError{Index: 7, Digest: "nW=4 nB=8", Err: errors.New("boom")}
	if got := te.Error(); got != "task 7 (nW=4 nB=8) failed: boom" {
		t.Fatalf("Error() = %q", got)
	}
	te = &TaskError{Index: 2, Panicked: true, Err: errors.New("panic: bad")}
	if got := te.Error(); got != "task 2 panicked: panic: bad" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestCleanStackDeterministic: two panics on the same code path clean
// to byte-identical stacks — goroutine ids, argument hex, and +0x
// offsets are the only parts that differ run to run.
func TestCleanStackDeterministic(t *testing.T) {
	grab := func() string {
		_, fails, _ := MapPolicy(context.Background(), 2, []int{0, 1}, Policy{},
			func(_ context.Context, v int) (int, error) {
				if v == 1 {
					panic("same path")
				}
				return v, nil
			})
		if len(fails) != 1 {
			t.Fatalf("fails = %v", fails)
		}
		return fails[0].CleanStack()
	}
	a, b := grab(), grab()
	if a != b {
		t.Fatalf("cleaned stacks differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" || strings.Contains(a, "goroutine ") || strings.Contains(a, "+0x") {
		t.Fatalf("stack not cleaned:\n%s", a)
	}
	if !strings.Contains(a, "resilient_test.go") {
		t.Fatalf("cleaned stack lost the panic site:\n%s", a)
	}
}
