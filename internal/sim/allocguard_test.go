package sim

import "testing"

// TestScheduleStepZeroAllocGuard is the benchmark guard behind the
// observability layer's "disabled means free" contract: with no tracer
// or sampler attached, the engine's steady-state schedule/fire and
// schedule/cancel paths must not allocate. A regression here (a new
// per-event allocation, an interface box on the hot path) fails this
// test rather than silently shifting the benchmark baselines.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestScheduleStepZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEngine()
	fn := func(*Engine) {}
	// Warm the event free list past several block grants so the
	// measured window recycles records instead of growing the arena.
	for i := 0; i < 4*eventBlock; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("schedule+step allocates %.2f allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(e.Now()+1, fn)
		e.Cancel(ev)
	}); avg != 0 {
		t.Errorf("schedule+cancel allocates %.2f allocs/op, want 0", avg)
	}

	// The payload-carrying form must be equally free when arg is a
	// pointer (interface conversion of a pointer does not box).
	afn := func(*Engine, any) {}
	arg := &struct{ n int }{}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(e.Now()+1, afn, arg)
		e.Step()
	}); avg != 0 {
		t.Errorf("ScheduleArg+step allocates %.2f allocs/op, want 0", avg)
	}

	// Multicore-like traffic (BenchmarkEngineNearFuture's mix, 32
	// pending) bursts past a bucket's home array now and then; once
	// warm, those bursts reuse spare grown arrays instead of allocating.
	mix := nearFutureMix(4096)
	next := 0
	var near func(*Engine)
	near = func(e *Engine) {
		k := mix[next%len(mix)]
		next++
		e.ScheduleP(e.Now()+k.delay, k.priority, near)
	}
	e = NewEngine()
	for i := 0; i < 32; i++ {
		near(e)
	}
	for i := 0; i < 100000; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(10000, func() { e.Step() }); avg != 0 {
		t.Errorf("near-future traffic allocates %.4f allocs/step, want 0", avg)
	}
}
