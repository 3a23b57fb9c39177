// Package sim provides a small deterministic discrete-event simulation
// kernel used by every timed component in the microbank simulator.
//
// Time is measured in picoseconds (type Time) so that the 2 GHz core
// domain (500 ps), the 250 MHz DRAM mat domain (4000 ps), and arbitrary
// interface clocks can coexist without rounding. Events scheduled for
// the same instant fire in the order of their (priority, sequence)
// pair, making runs bit-for-bit reproducible.
//
// The event queue has two levels. Most events are scheduled a few
// nanoseconds ahead, so the first level is a calendar wheel of 64
// buckets, 512 ps each, covering 32.8 ns from the start of the current
// instant's bucket: a push lands in its bucket by index arithmetic,
// each bucket is a short slice kept in event order, and an occupancy
// bitmap finds the earliest non-empty bucket in a few instructions.
// Events beyond that horizon wait in a 4-ary min-heap, the second
// level; Step fires whichever of the two minima is earlier, so the
// fire order is exactly the (time, priority, sequence) order.
//
// The engine recycles event records through an internal free list
// (fired and cancelled events are reused by later Schedule calls), so
// steady-state scheduling does not allocate. Event handles carry a
// generation number, which makes operations on already-fired or
// already-cancelled handles safe no-ops even after the record has been
// reused.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp in picoseconds.
type Time uint64

// Common time units, expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
)

// Never is a sentinel timestamp that compares after every reachable
// simulation instant. It marks idle resources.
const Never Time = ^Time(0)

// event is the engine-owned record of a scheduled callback. Records
// live by value in the engine's slab and are addressed by index —
// never by pointer, so the slab can grow and the queue nodes stay
// pointer-free (a pointer per node would drag a GC write barrier into
// every node move). Records are recycled: gen increments every time
// the record is retired, which invalidates any Event handles still
// naming it.
type event struct {
	when Time
	key  uint64 // packed (priority, seq) same-instant tiebreak
	gen  uint64
	fn   func(*Engine)
	// argFn/arg are the payload-carrying callback form (ScheduleArg):
	// a shared, pre-allocated function pointer plus a per-event value,
	// so hot paths that would otherwise close over per-event state
	// (e.g. one retirement callback per memory request) schedule
	// without a fresh closure allocation.
	argFn func(*Engine, any)
	arg   any
}

// Event is a handle to a scheduled callback, returned by Schedule and
// friends. The zero Event is a valid "no event" handle: Cancel on it
// is a no-op and Pending reports false.
type Event struct {
	eng *Engine
	id  int32
	gen uint64
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool { return ev.eng != nil && ev.gen == ev.eng.records[ev.id].gen }

// When returns the instant the event is scheduled to fire, or Never if
// the event already fired, was cancelled, or is the zero handle.
func (ev Event) When() Time {
	if !ev.Pending() {
		return Never
	}
	return ev.eng.records[ev.id].when
}

// Cancelled reports whether the event was retired (fired or removed)
// after being scheduled. The zero handle reports false.
func (ev Event) Cancelled() bool { return ev.eng != nil && ev.gen != ev.eng.records[ev.id].gen }

// seqBits splits the packed same-instant key: the low bits hold the
// schedule sequence number and the high bits the biased priority, so
// the (priority, seq) tiebreak is a single integer compare. 2^40
// events per engine and 2^24 priority levels are both far beyond any
// run; packKey enforces the limits with panics rather than silently
// misordering.
const (
	seqBits      = 40
	priorityBias = 1 << 23 // maps priority [-2^23, 2^23) onto 24 unsigned bits
	maxSeq       = uint64(1) << seqBits
)

// node is one queue entry, in a wheel bucket or the overflow heap: the
// full sort key inlined next to the record's slab index, so ordering
// compares read the queue's own arrays sequentially instead of
// dereferencing two event records per comparison, and node moves are
// barrier-free because the node holds no pointer.
type node struct {
	when Time
	key  uint64 // priority<<seqBits | seq
	id   int32
}

// nodeLess is the total event order; seq is unique per engine, so the
// order is strict and pop order is deterministic.
func nodeLess(a, b node) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.key < b.key
}

// Wheel geometry. A bucket spans 512 ps, just over one 500 ps core
// cycle, so events a cycle apart land in different buckets; 64 buckets
// give one occupancy bit each and a 32.8 ns horizon, past which a
// 16-core run schedules well under 1% of its events (0.03-0.06% on the
// perfbench workloads; TestEventWheelHorizonCoversTraffic guards it).
const (
	bucketShift = 9 // log2 of the bucket width in picoseconds
	wheelSize   = 64
	wheelMask   = wheelSize - 1
	// bucketCap is each bucket's home capacity, carved from one flat
	// array of 512 nodes. Same-instant bursts (16 cores stepping on one
	// clock edge) fill a bucket past it for a while; such a bucket
	// moves to a grown array of at least grownCap nodes and returns
	// home when it drains, leaving the array to the next bucket that
	// fills (up to spareArrays are kept).
	bucketCap   = 8
	grownCap    = 32
	spareArrays = 4
	// overflowCap pre-sizes the overflow heap, which holds only the
	// few far-future timers (refresh, epoch ticks) at a time.
	overflowCap = 16
)

// bucket holds the wheel events of one 512 ps slot: nodes[head:end],
// in nodeLess order. Pops advance head, so the front is consumed
// without moving the rest, and no operation short of moving the bucket
// to another array rewrites the slice header.
type bucket struct {
	nodes     []node
	head, end int
}

// search returns the index of the first pending node not less than n.
func (b *bucket) search(n node) int {
	lo, hi := b.head, b.end
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nodeLess(b.nodes[m], n) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert places n in order; the bucket must have a free slot past its
// end (Engine.makeRoom). The nodes on whichever side of n's slot is
// shorter shift: the front side into the slot the last pop left before
// head, the back side into the free slot.
func (b *bucket) insert(n node) {
	i := b.search(n)
	if b.head > 0 && i-b.head <= b.end-i {
		copy(b.nodes[b.head-1:], b.nodes[b.head:i])
		b.head--
		b.nodes[i-1] = n
		return
	}
	copy(b.nodes[i+1:], b.nodes[i:b.end])
	b.nodes[i] = n
	b.end++
}

// remove deletes the pending node at index i, shifting the shorter
// side of it.
func (b *bucket) remove(i int) {
	if i-b.head < b.end-1-i {
		copy(b.nodes[b.head+1:], b.nodes[b.head:i])
		b.head++
	} else {
		copy(b.nodes[i:], b.nodes[i+1:b.end])
		b.end--
	}
}

// eventHeap is the overflow level: a 4-ary min-heap over (when,
// priority, seq) holding the events scheduled past the wheel's
// horizon. Sift-up/sift-down hold the moving node in a local and shift
// the others, so each step is one node copy plus one index write, and
// nothing passes through an interface.
type eventHeap []node

// up restores the heap property from index i toward the root.
func (h eventHeap) up(i int) {
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = n
}

// down restores the heap property from index i toward the leaves,
// reporting whether the element moved.
func (h eventHeap) down(i int) bool {
	n, start, size := h[i], i, len(h)
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		least := first
		end := first + 4
		if end > size {
			end = size
		}
		for j := first + 1; j < end; j++ {
			if nodeLess(h[j], h[least]) {
				least = j
			}
		}
		if !nodeLess(h[least], n) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = n
	return i > start
}

// push adds n and sifts it into position.
func (h *eventHeap) push(n node) {
	*h = append(*h, n)
	h.up(len(*h) - 1)
}

// pop removes the earliest node, returning its slab index.
func (h *eventHeap) pop() int32 {
	old := *h
	n := len(old) - 1
	id := old[0].id
	if n > 0 {
		old[0] = old[n]
	}
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	return id
}

// remove deletes the node at heap index i (Cancel's path).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
	}
	*h = old[:n]
	if i != n {
		if !(*h).down(i) {
			(*h).up(i)
		}
	}
}

// eventBlock pre-sizes the record slab and its free list; both then
// grow by amortized appends, so allocs/op stays near zero even while
// the pending-event population is still growing.
const eventBlock = 128

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now      Time
	occ      uint64 // bit s set while wheel slot s is non-empty
	overflow eventHeap
	records  []event // record slab; Event handles and queue nodes hold indices
	free     []int32 // retired record indices awaiting reuse
	seq      uint64  // events scheduled so far; also the next sequence number
	fired    uint64
	halted   bool
	// Queue counters (QueueStats); pushes are seq.
	overflowPushes uint64
	cancels        uint64
	peakPending    int
	// Control hook (SetControl): ctrlNext is the fired count at which
	// the hook runs next, kept at noControl when the hook is disarmed so
	// the run loops pay exactly one always-false integer compare per
	// event — no nil check, no extra branch.
	ctrlNext  uint64
	ctrlEvery uint64
	ctrlFn    func(*Engine) error
	stopCause error
	home      []node // the buckets' home arrays, bucketCap nodes each
	spare     [spareArrays][]node
	spares    int // spare[:spares] are grown arrays free for reuse
	// The wheel holds every pending event whose bucket (when >>
	// bucketShift) lies within wheelSize buckets of now's; slot s holds
	// bucket numbers congruent to s. The wheel's base is now's bucket,
	// so it advances with the clock and needs no state of its own. It
	// comes last so the fields above share cache lines.
	wheel [wheelSize]bucket
}

// noControl parks ctrlNext beyond any reachable fired count.
const noControl = ^uint64(0)

// NewEngine returns an engine with time set to zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{
		home:     make([]node, wheelSize*bucketCap),
		overflow: make(eventHeap, 0, overflowCap),
		records:  make([]event, 0, eventBlock),
		free:     make([]int32, 0, eventBlock),
		ctrlNext: noControl,
	}
	for s := range e.wheel {
		e.wheel[s].nodes = e.homeOf(s)
	}
	return e
}

// alloc returns the slab index of a fresh or recycled event record.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.records = append(e.records, event{})
	return int32(len(e.records) - 1)
}

// recycle retires a record onto the free list, invalidating every
// outstanding handle to it. The callback fields are deliberately NOT
// cleared here: Schedule/ScheduleArg overwrite them at reuse (ScheduleP
// clears argFn so dispatch cannot see a stale payload callback), which
// halves the GC write-barrier traffic on the fire path. The stale
// references keep at most one retired callback per slab slot alive —
// bounded, and far cheaper than three barrier-ed nil stores per event.
func (e *Engine) recycle(id int32) {
	e.records[id].gen++
	e.free = append(e.free, id)
}

// push queues n: into its wheel bucket when that lies within
// wheelSize buckets of now's, otherwise into the overflow heap. The
// clock never passes a pending event, so every wheel event stays in
// range; an overflow event comes into range as the clock advances but
// stays in the heap.
func (e *Engine) push(n node) {
	if p := e.Pending(); p > e.peakPending {
		e.peakPending = p
	}
	if n.when>>bucketShift-e.now>>bucketShift >= wheelSize {
		e.overflow.push(n)
		e.overflowPushes++
		return
	}
	s := int(n.when>>bucketShift) & wheelMask
	e.occ |= 1 << uint(s)
	b := &e.wheel[s]
	if b.end < len(b.nodes) && (b.end == b.head || !nodeLess(n, b.nodes[b.end-1])) {
		// The common case: the bucket's latest event, with room to spare.
		b.nodes[b.end] = n
		b.end++
		return
	}
	if b.end == len(b.nodes) {
		e.makeRoom(b)
	}
	b.insert(n)
}

// homeOf returns wheel slot s's home array.
func (e *Engine) homeOf(s int) []node {
	return e.home[s*bucketCap : (s+1)*bucketCap : (s+1)*bucketCap]
}

// makeRoom frees a slot past the end of a full bucket. A bucket with
// popped slots before head compacts to the front, so a bucket that is
// pushed to and popped from without ever draining keeps its array.
// Otherwise the nodes move to a larger array: a spare one when there
// is one large enough, else a new one.
func (e *Engine) makeRoom(b *bucket) {
	if b.head > 0 {
		b.end = copy(b.nodes, b.nodes[b.head:b.end])
		b.head = 0
		return
	}
	var grown []node
	if e.spares > 0 {
		e.spares--
		grown, e.spare[e.spares] = e.spare[e.spares], nil
	}
	if len(grown) <= b.end {
		grown = make([]node, max(grownCap, 2*b.end))
	}
	copy(grown, b.nodes[:b.end])
	e.keepSpare(b.nodes)
	b.nodes = grown
}

// keepSpare keeps a grown array a bucket no longer uses for reuse,
// while there is room; home arrays are never spares.
func (e *Engine) keepSpare(nodes []node) {
	if len(nodes) > bucketCap && e.spares < spareArrays {
		e.spare[e.spares] = nodes
		e.spares++
	}
}

// minSlot returns the wheel slot holding the earliest wheel event; the
// wheel must not be empty. The scan starts at now's bucket: rotating
// occ by that slot puts the earliest occupied bucket at the lowest set
// bit.
func (e *Engine) minSlot() int {
	base := int(e.now>>bucketShift) & wheelMask
	return (base + bits.TrailingZeros64(bits.RotateLeft64(e.occ, -base))) & wheelMask
}

// next returns the earliest pending node, or nil when none is pending.
func (e *Engine) next() *node {
	var n *node
	if e.occ != 0 {
		b := &e.wheel[e.minSlot()]
		n = &b.nodes[b.head]
	}
	if len(e.overflow) > 0 && (n == nil || nodeLess(e.overflow[0], *n)) {
		n = &e.overflow[0]
	}
	return n
}

// drained rewinds wheel slot s's bucket, now empty, to the start of
// its home array and clears the slot's occupancy bit.
func (e *Engine) drained(s int) {
	b := &e.wheel[s]
	if len(b.nodes) > bucketCap {
		e.keepSpare(b.nodes)
		b.nodes = e.homeOf(s)
	}
	b.head, b.end = 0, 0
	e.occ &^= 1 << uint(s)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return int(e.seq - e.fired - e.cancels) }

// QueueStats counts the event queue's work since NewEngine. The counts
// depend only on the schedule, so a run repeats them exactly.
type QueueStats struct {
	Pushes         uint64 // events scheduled
	OverflowPushes uint64 // of those, scheduled past the wheel's horizon
	Cancels        uint64 // pending events removed by Cancel
	PeakPending    int    // most events pending at once
}

// QueueStats returns the engine's queue counters.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{
		Pushes:         e.seq,
		OverflowPushes: e.overflowPushes,
		Cancels:        e.cancels,
		PeakPending:    e.peakPending,
	}
}

// Schedule enqueues fn to run at the given absolute time with priority
// zero. Scheduling in the past panics: that is always a model bug.
func (e *Engine) Schedule(at Time, fn func(*Engine)) Event {
	return e.ScheduleP(at, 0, fn)
}

// ScheduleP enqueues fn at the given absolute time with an explicit
// priority. Lower priorities fire first among same-instant events.
// Priority must fit in [-2^23, 2^23).
func (e *Engine) ScheduleP(at Time, priority int, fn func(*Engine)) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	key := e.packKey(at, priority)
	id := e.alloc()
	rec := &e.records[id]
	rec.when, rec.key, rec.fn = at, key, fn
	rec.argFn = nil // recycle leaves the previous use's fields in place
	e.push(node{at, key, id})
	return Event{eng: e, id: id, gen: rec.gen}
}

// packKey validates the schedule arguments and returns the packed
// (priority, seq) tiebreak, consuming one sequence number.
func (e *Engine) packKey(at Time, priority int) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	if priority < -priorityBias || priority >= priorityBias {
		panic(fmt.Sprintf("sim: priority %d outside [%d, %d)", priority, -priorityBias, priorityBias))
	}
	if e.seq >= maxSeq {
		panic("sim: event sequence space exhausted")
	}
	key := uint64(priority+priorityBias)<<seqBits | e.seq
	e.seq++
	return key
}

// ScheduleArg enqueues fn to run at the given absolute time with
// priority zero, passing arg back at fire time. Because fn can be a
// shared package-level function and arg a pointer to existing state,
// this form schedules per-item callbacks (request retirement, per-bank
// timeouts) without allocating a closure per event.
func (e *Engine) ScheduleArg(at Time, fn func(*Engine, any), arg any) Event {
	return e.ScheduleArgP(at, 0, fn, arg)
}

// ScheduleArgP is ScheduleArg with an explicit same-instant priority.
// Priority must fit in [-2^23, 2^23).
func (e *Engine) ScheduleArgP(at Time, priority int, fn func(*Engine, any), arg any) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	key := e.packKey(at, priority)
	id := e.alloc()
	rec := &e.records[id]
	rec.when, rec.key, rec.argFn, rec.arg = at, key, fn, arg
	// rec.fn may be stale from a prior use; dispatch checks argFn first.
	e.push(node{at, key, id})
	return Event{eng: e, id: id, gen: rec.gen}
}

// After enqueues fn to run delay picoseconds from now.
func (e *Engine) After(delay Time, fn func(*Engine)) Event {
	return e.Schedule(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or zero-handle event is a no-op. Cancelling
// another engine's event panics: that is always a model bug.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e {
		if ev.eng == nil {
			return
		}
		panic("sim: cancel of an event scheduled on another engine")
	}
	if !ev.Pending() {
		return
	}
	// A pending record's id names exactly one queued node, so a match
	// in the bucket its time maps to proves the event is there; no
	// match means it went to the overflow heap.
	rec := &e.records[ev.id]
	s := int(rec.when>>bucketShift) & wheelMask
	b := &e.wheel[s]
	if last := b.end - 1; last >= b.head && b.nodes[last].id == ev.id {
		// The bucket's latest event is the common case (a wake
		// reprogrammed soon after it was set) and needs no search.
		b.end = last
	} else if i := b.search(node{rec.when, rec.key, ev.id}); i < b.end && b.nodes[i].id == ev.id {
		b.remove(i)
	} else {
		// The overflow heap holds a handful of far-future timers, so a
		// scan is cheaper than keeping a heap index per record, which
		// would add a slab store to every sift move.
		for i := range e.overflow {
			if e.overflow[i].id == ev.id {
				e.overflow.remove(i)
				break
			}
		}
	}
	if b.head == b.end {
		e.drained(s)
	}
	e.cancels++
	e.recycle(ev.id)
}

// Halt stops Run/RunUntil after the in-flight event returns.
func (e *Engine) Halt() { e.halted = true }

// SetControl arms a control hook that Run/RunUntil invoke every
// `every` fired events. A non-nil return stops the run (like Halt) and
// becomes StopCause. The hook is where callers enforce wall-clock
// deadlines, event budgets, context cancellation, and livelock
// detection without touching the per-event hot path: when disarmed
// (nil fn or zero interval) the run loops pay a single always-false
// integer compare per event, and when armed the hook itself runs only
// once per interval.
func (e *Engine) SetControl(every uint64, fn func(*Engine) error) {
	if fn == nil || every == 0 {
		e.ctrlFn, e.ctrlEvery, e.ctrlNext = nil, 0, noControl
		return
	}
	e.ctrlFn, e.ctrlEvery = fn, every
	e.ctrlNext = e.fired + every
}

// StopCause returns the error that stopped the most recent Run or
// RunUntil via the control hook, or nil if the run ended normally
// (queue drained, deadline reached, or plain Halt).
func (e *Engine) StopCause() error { return e.stopCause }

// runControl fires the armed control hook and schedules its next
// invocation. Kept out of the run loops so their bodies stay small
// enough to inline the common path around.
func (e *Engine) runControl() {
	e.ctrlNext = e.fired + e.ctrlEvery
	if err := e.ctrlFn(e); err != nil {
		e.stopCause = err
		e.halted = true
	}
}

// Step executes the single earliest pending event. It reports false if
// the queue was empty.
func (e *Engine) Step() bool {
	var id int32
	if e.occ != 0 {
		s := e.minSlot()
		b := &e.wheel[s]
		n := &b.nodes[b.head]
		if len(e.overflow) > 0 && nodeLess(e.overflow[0], *n) {
			id = e.overflow.pop()
		} else {
			id = n.id
			if b.head++; b.head == b.end {
				e.drained(s)
			}
		}
	} else if len(e.overflow) > 0 {
		id = e.overflow.pop()
	} else {
		return false
	}
	rec := &e.records[id]
	if rec.when < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	e.now = rec.when
	fn, argFn, arg := rec.fn, rec.argFn, rec.arg
	e.recycle(id)
	e.fired++
	if argFn != nil {
		argFn(e, arg)
	} else {
		fn(e)
	}
	return true
}

// Run executes events until the queue drains, Halt is called, or the
// control hook (SetControl) stops the run — in which case StopCause
// reports why.
func (e *Engine) Run() {
	e.halted = false
	e.stopCause = nil
	for !e.halted && e.Step() {
		if e.fired >= e.ctrlNext {
			e.runControl()
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to the deadline (if it is later than the last event). It
// returns the number of events fired during this call. The control
// hook applies here too; a hook stop leaves the clock at the last fired
// event rather than advancing it to the deadline, and so does a Halt
// while events at or before the deadline are still pending, so the
// clock never passes a pending event.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.halted = false
	e.stopCause = nil
	start := e.fired
	for !e.halted {
		if n := e.next(); n == nil || n.when > deadline {
			break
		}
		e.Step()
		if e.fired >= e.ctrlNext {
			e.runControl()
		}
	}
	if n := e.next(); (n == nil || n.when > deadline) && e.stopCause == nil && e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// Clock converts between a fixed-period clock domain and absolute time.
type Clock struct {
	period Time
}

// NewClock returns a clock with the given period. A zero period panics.
func NewClock(period Time) Clock {
	if period == 0 {
		panic("sim: zero clock period")
	}
	return Clock{period: period}
}

// Period returns the clock period in picoseconds.
func (c Clock) Period() Time { return c.period }

// FreqMHz returns the clock frequency in megahertz.
func (c Clock) FreqMHz() float64 {
	return 1e6 / float64(c.period)
}

// Cycles converts a duration to whole cycles, rounding up.
func (c Clock) Cycles(d Time) uint64 {
	return uint64((d + c.period - 1) / c.period)
}

// Duration converts a cycle count to a duration.
func (c Clock) Duration(cycles uint64) Time {
	return Time(cycles) * c.period
}

// NextEdge returns the first clock edge at or after t.
func (c Clock) NextEdge(t Time) Time {
	rem := t % c.period
	if rem == 0 {
		return t
	}
	return t + c.period - rem
}
