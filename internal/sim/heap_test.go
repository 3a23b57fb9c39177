package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapOrderProperty drives a randomized schedule/cancel workload
// and asserts events fire in exactly (when, priority, seq) order — the
// same total order the container/heap implementation guaranteed. Its
// times all fall in one wheel bucket, so it exercises the bucket's
// ordered insert and cancel; TestQueueOrderProperty covers the whole
// wheel and the overflow heap.
func TestHeapOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		type rec struct {
			when     Time
			priority int
			seq      int
		}
		var want []rec
		var got []rec
		var handles []Event
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			r := rec{when: Time(rng.Intn(50)), priority: rng.Intn(3) - 1, seq: i}
			handles = append(handles, e.ScheduleP(r.when, r.priority, func(*Engine) {
				got = append(got, r)
			}))
			want = append(want, r)
		}
		// Cancel a random subset before running.
		cancelled := map[int]bool{}
		for i := 0; i < n/4; i++ {
			k := rng.Intn(n)
			e.Cancel(handles[k])
			cancelled[k] = true
		}
		var kept []rec
		for _, r := range want {
			if !cancelled[r.seq] {
				kept = append(kept, r)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].when != kept[j].when {
				return kept[i].when < kept[j].when
			}
			if kept[i].priority != kept[j].priority {
				return kept[i].priority < kept[j].priority
			}
			return kept[i].seq < kept[j].seq
		})
		e.Run()
		if len(got) != len(kept) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(kept))
		}
		for i := range got {
			if got[i] != kept[i] {
				t.Fatalf("trial %d: event %d fired as %+v, want %+v", trial, i, got[i], kept[i])
			}
		}
	}
}

// TestHeapCancelMiddle cancels interior events of a crowded bucket and
// checks the rest still fire in time order.
func TestHeapCancelMiddle(t *testing.T) {
	e := NewEngine()
	var hs []Event
	for i := 0; i < 64; i++ {
		hs = append(hs, e.Schedule(Time(64-i), func(*Engine) {}))
	}
	// Cancel every third event, including the current root's children.
	for i := 0; i < len(hs); i += 3 {
		e.Cancel(hs[i])
	}
	var last Time
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}
}

// TestScheduleArg covers the payload-carrying callback form: the arg
// round-trips, fire time is the scheduled instant, cancellation works,
// and records recycle cleanly back into the closure form.
func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ hits int }
	p := &payload{}
	fn := func(eng *Engine, arg any) {
		if eng.Now() != 5 {
			t.Errorf("fired at %d, want 5", eng.Now())
		}
		arg.(*payload).hits++
	}
	ev := e.ScheduleArg(5, fn, p)
	if !ev.Pending() || ev.When() != 5 {
		t.Fatalf("handle not pending at 5: %v %v", ev.Pending(), ev.When())
	}
	e.Run()
	if p.hits != 1 {
		t.Fatalf("arg callback hits = %d, want 1", p.hits)
	}

	// Cancelled arg events never fire and their records recycle.
	ev = e.ScheduleArg(e.Now()+1, fn, p)
	e.Cancel(ev)
	// The recycled record must not leak the old argFn into a plain
	// Schedule reuse.
	ran := false
	e.Schedule(e.Now()+1, func(*Engine) { ran = true })
	e.Run()
	if p.hits != 1 || !ran {
		t.Fatalf("recycled record misbehaved: hits=%d ran=%v", p.hits, ran)
	}

	// Priority ordering applies to arg events too.
	var order []int
	e.ScheduleArgP(e.Now()+1, 1, func(_ *Engine, a any) { order = append(order, a.(int)) }, 1)
	e.ScheduleArgP(e.Now()+1, 0, func(_ *Engine, a any) { order = append(order, a.(int)) }, 0)
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("priority order = %v, want [0 1]", order)
	}
}

func TestScheduleArgPanics(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e.Schedule(10, func(*Engine) {})
	e.Run()
	mustPanic("past", func() { e.ScheduleArg(e.Now()-1, func(*Engine, any) {}, nil) })
	mustPanic("nil fn", func() { e.ScheduleArg(e.Now()+1, nil, nil) })
}
