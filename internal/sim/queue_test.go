package sim

import (
	"math/rand"
	"testing"
)

// horizon is the wheel's reach in picoseconds: an event whose bucket is
// wheelSize or more buckets past now's goes to the overflow heap.
const horizon Time = wheelSize << bucketShift

// script feeds an order check its decisions from a byte string; once
// the bytes run out every read returns zero and done reports true.
type script struct {
	b []byte
	i int
}

func (s *script) done() bool { return s.i >= len(s.b) }

func (s *script) byte() byte {
	if s.done() {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// delay draws a schedule delay from one of five classes: zero, within
// one bucket, across several buckets, past the horizon, and straddling
// the horizon's edge, where the event's bucket wraps onto the slot just
// behind now's.
func (s *script) delay() Time {
	class := s.byte() % 5
	v := Time(s.byte())<<8 | Time(s.byte())
	switch class {
	case 0:
		return 0
	case 1:
		return 1 + v%(1<<bucketShift-1)
	case 2:
		return 1<<bucketShift + v%(horizon-1<<bucketShift)
	case 3:
		return horizon + v*8
	default:
		return horizon - 1<<bucketShift + v%(2<<bucketShift)
	}
}

// priority draws a same-instant priority, nonzero one time in three.
func (s *script) priority() int {
	if b := s.byte(); b%3 == 0 {
		return int(b%5) - 2
	}
	return 0
}

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	when     Time
	priority int
	seq      uint64
	h        Event
	overflow bool // scheduled past the horizon
	kids     []kid
}

// kid is a schedule an event's handler makes, relative to Now().
type kid struct {
	delay    Time
	priority int
	arg      bool
}

func refLess(a, b *refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// checkOrder runs a byte-coded mix of ScheduleP, ScheduleArgP, Cancel,
// Step and RunUntil against a reference model. Every fired event must
// be the live reference event with the least (when, priority, seq) and
// fire at its time; Pending must equal the live count after every
// operation; and QueueStats must match the model's own counts.
func checkOrder(t *testing.T, data []byte) {
	t.Helper()
	s := &script{b: data}
	e := NewEngine()
	var (
		live     []*refEvent
		all      []*refEvent
		seq      uint64
		cancels  uint64
		overflow uint64
		peak     int
		failed   bool
	)
	fail := func(format string, args ...any) {
		if !failed {
			t.Errorf(format, args...)
			failed = true
		}
	}
	var schedule func(at Time, priority int, arg bool, kids []kid)
	fire := func(r *refEvent) {
		least := 0
		for i, l := range live {
			if refLess(l, live[least]) {
				least = i
			}
		}
		if len(live) == 0 || live[least] != r {
			fail("event (when %d, priority %d, seq %d) fired out of order", r.when, r.priority, r.seq)
			return
		}
		if e.Now() != r.when {
			fail("event due at %d fired at %d", r.when, e.Now())
		}
		live = append(live[:least], live[least+1:]...)
		for _, k := range r.kids {
			schedule(e.Now()+k.delay, k.priority, k.arg, nil)
		}
	}
	schedule = func(at Time, priority int, arg bool, kids []kid) {
		r := &refEvent{when: at, priority: priority, seq: seq, kids: kids,
			overflow: at>>bucketShift-e.Now()>>bucketShift >= wheelSize}
		seq++
		if r.overflow {
			overflow++
		}
		if arg {
			r.h = e.ScheduleArgP(at, priority, func(_ *Engine, a any) { fire(a.(*refEvent)) }, r)
		} else {
			r.h = e.ScheduleP(at, priority, func(*Engine) { fire(r) })
		}
		live = append(live, r)
		all = append(all, r)
		peak = max(peak, len(live))
	}
	cancel := func(r *refEvent) {
		pending := r.h.Pending()
		e.Cancel(r.h)
		if !pending {
			return
		}
		cancels++
		for i, l := range live {
			if l == r {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
		fail("handle of a retired event reported pending")
	}
	for ops := 0; !s.done() && !failed && ops < 4096; ops++ {
		switch op := s.byte() % 8; op {
		case 0, 1, 2:
			at, priority := e.Now()+s.delay(), s.priority()
			kids := make([]kid, s.byte()%3)
			for i := range kids {
				kids[i] = kid{delay: s.delay(), priority: s.priority(), arg: s.byte()%2 == 0}
			}
			schedule(at, priority, op == 2, kids)
		case 3:
			// Any handle ever issued: fired and cancelled ones are no-ops.
			if len(all) > 0 {
				cancel(all[int(s.byte())%len(all)])
			}
		case 4:
			// A pending overflow event, which after the clock has moved
			// may sit inside the wheel's range.
			for _, r := range live {
				if r.overflow {
					cancel(r)
					break
				}
			}
		case 5, 6:
			before := len(live)
			if got := e.Step(); got != (before > 0) {
				fail("Step with %d pending returned %v", before, got)
			}
		case 7:
			deadline := e.Now() + s.delay()
			e.RunUntil(deadline)
			for _, r := range live {
				if r.when <= deadline {
					fail("RunUntil(%d) left an event due at %d", deadline, r.when)
				}
			}
			if e.Now() != deadline {
				fail("RunUntil(%d) left the clock at %d", deadline, e.Now())
			}
		}
		if e.Pending() != len(live) {
			fail("Pending() = %d, want %d live events", e.Pending(), len(live))
		}
	}
	e.Run()
	if len(live) != 0 || e.Pending() != 0 {
		fail("after Run: %d reference events live, Pending() = %d", len(live), e.Pending())
	}
	want := QueueStats{Pushes: seq, OverflowPushes: overflow, Cancels: cancels, PeakPending: peak}
	if got := e.QueueStats(); got != want {
		fail("QueueStats() = %+v, want %+v", got, want)
	}
}

// TestQueueOrderProperty checks the two-level queue against the
// reference order on random operation scripts whose delays span the
// whole wheel, the horizon's edge and the overflow heap.
func TestQueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 64+rng.Intn(4096))
		rng.Read(data)
		checkOrder(t, data)
		if t.Failed() {
			t.Fatalf("trial %d failed; script %x", trial, data)
		}
	}
}

// FuzzEngineOrder is TestQueueOrderProperty's check on arbitrary
// operation scripts.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0x80, 0, 0, 0, 1, 0, 0, 0, 7, 2, 0xff, 0xff, 4, 5, 5})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		data := make([]byte, 512)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		checkOrder(t, data)
	})
}

// TestCancelOverflowInsideHorizon cancels an event that went to the
// overflow heap after the clock has advanced far enough that its
// bucket is inside the wheel's range, where a wheel event now shares
// that bucket's slot.
func TestCancelOverflowInsideHorizon(t *testing.T) {
	e := NewEngine()
	far := 3 * horizon / 2
	var got []Time
	note := func(e *Engine) { got = append(got, e.Now()) }
	x := e.Schedule(far, note)
	e.Schedule(far+1, note)
	if qs := e.QueueStats(); qs.OverflowPushes != 2 {
		t.Fatalf("%d overflow pushes, want both far events in the overflow heap", qs.OverflowPushes)
	}
	e.RunUntil(horizon)
	// far's bucket is now within the horizon: this lands in the wheel.
	e.Schedule(far, note)
	if qs := e.QueueStats(); qs.OverflowPushes != 2 {
		t.Fatalf("%d overflow pushes, want the third event in the wheel", qs.OverflowPushes)
	}
	e.Cancel(x)
	if e.Pending() != 2 || x.Pending() {
		t.Fatalf("after cancel: Pending() = %d, x pending %v", e.Pending(), x.Pending())
	}
	e.Run()
	if len(got) != 2 || got[0] != far || got[1] != far+1 {
		t.Fatalf("fired at %v, want [%d %d]", got, far, far+1)
	}
}

// TestCancelForeignHandlePanics checks that a handle from another
// engine is refused rather than used to search (and corrupt) the
// receiver's queue.
func TestCancelForeignHandlePanics(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	fired := false
	b.Schedule(5, func(*Engine) { fired = true })
	ev := a.Schedule(5, func(*Engine) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cancel of another engine's event did not panic")
			}
		}()
		b.Cancel(ev)
	}()
	if !ev.Pending() || b.Pending() != 1 {
		t.Fatalf("foreign cancel touched a queue: ev pending %v, b pending %d", ev.Pending(), b.Pending())
	}
	b.Run()
	if !fired {
		t.Fatal("the receiver's own event did not fire")
	}
	b.Cancel(Event{}) // the zero handle stays a no-op on any engine
}

// TestRunUntilHaltKeepsClock checks that a Halt with events still due
// before the deadline leaves the clock at the last fired event, so
// those events fire later at their own times.
func TestRunUntilHaltKeepsClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(e *Engine) { e.Halt() })
	var at Time
	e.Schedule(20, func(e *Engine) { at = e.Now() })
	if n := e.RunUntil(100); n != 1 || e.Now() != 10 {
		t.Fatalf("halted RunUntil fired %d, clock %d; want 1 at 10", n, e.Now())
	}
	e.RunUntil(100)
	if at != 20 || e.Now() != 100 {
		t.Fatalf("second RunUntil: event at %d, clock %d; want 20 and 100", at, e.Now())
	}
}

// TestBucketCompactsInsteadOfGrowing holds one bucket non-empty while
// events are pushed to it and popped from it, and checks it reuses its
// home array instead of growing.
func TestBucketCompactsInsteadOfGrowing(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	// Bucket 1 spans [512, 1024): keep bucketCap-1 events in it and
	// cycle one more through it many times over.
	for i := 0; i < bucketCap-1; i++ {
		e.Schedule(512+Time(i), fn)
	}
	for i := 0; i < 100; i++ {
		e.Schedule(600+Time(i), fn)
		e.Step()
	}
	if b := &e.wheel[1]; len(b.nodes) != bucketCap || b.end-b.head != bucketCap-1 {
		t.Fatalf("bucket holds %d events in a %d-node array, want %d in its %d-node home",
			b.end-b.head, len(b.nodes), bucketCap-1, bucketCap)
	}
}

// TestGrownBucketsShareSpareArrays overfills one bucket after another
// and checks that each reuses the array the previous one grew into:
// had any of them allocated a new one, two arrays would be spare once
// both drained.
func TestGrownBucketsShareSpareArrays(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	for round := Time(0); round < 3; round++ {
		base := round * 4 << bucketShift
		for i := Time(0); i < 2*bucketCap; i++ {
			e.Schedule(base+i, fn)
		}
		for e.Step() {
		}
		if e.spares != 1 {
			t.Fatalf("round %d: %d spare arrays, want the one grown array back", round, e.spares)
		}
	}
}
