package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineScheduleStep measures the schedule-then-fire churn of
// a single in-flight event, the engine's steady-state hot path.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel path
// (the controller's wake-event reprogramming pattern).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+1, fn)
		e.Cancel(ev)
	}
}

// BenchmarkEngineChurn mixes the two realistic event lifecycles — a
// fired timer and a cancelled-and-reprogrammed wake — against a
// moderately deep pending population, approximating the controller's
// per-command event traffic in a multicore run.
func BenchmarkEngineChurn(b *testing.B) {
	const depth = 256
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+depth/2, fn) // speculative wake
		e.Schedule(e.Now()+depth, fn)         // command completion
		e.Cancel(ev)                          // wake reprogrammed away
		e.Step()
	}
}

// BenchmarkEngineDeepQueue keeps 1024 events pending within about 2 ns,
// far denser than any simulated machine, so every push appends to and
// every step pops from a wheel bucket hundreds of events deep.
func BenchmarkEngineDeepQueue(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+depth, fn)
		e.Step()
	}
}

// nearEvent is one schedule of BenchmarkEngineNearFuture.
type nearEvent struct {
	delay    Time
	priority int
}

// nearFutureMix returns n (delay, priority) pairs with the delay mix
// the event queue sees in a 16-core cache-resident run (perfbench's
// cacheres workload, counted over the whole run): 12% zero-delay,
// 77.5% at most 2 ns ahead, 6% at most 8 ns, 4% at most 16 ns, 0.2% at
// most 32 ns, and one in 1024 past 64 ns, beyond the wheel's horizon.
// Delays are whole 500 ps core cycles; 4.5% of events carry a nonzero
// priority.
func nearFutureMix(n int) []nearEvent {
	const cycle = 500 * Picosecond
	rng := rand.New(rand.NewSource(1))
	mix := make([]nearEvent, n)
	for i := range mix {
		var lo, cycles Time // delay is lo plus 1 to cycles whole cycles
		switch r := rng.Intn(1024); {
		case r < 124:
		case r < 124+794:
			cycles = 4
		case r < 124+794+63:
			lo, cycles = 2*Nanosecond, 12
		case r < 124+794+63+40:
			lo, cycles = 8*Nanosecond, 16
		case r < 1023:
			lo, cycles = 16*Nanosecond, 32
		default:
			lo, cycles = 64*Nanosecond, 1872
		}
		if cycles > 0 {
			mix[i].delay = lo + cycle*Time(1+rng.Intn(int(cycles)))
		}
		if rng.Intn(200) < 9 {
			mix[i].priority = 1 - 2*rng.Intn(2)
		}
	}
	return mix
}

// BenchmarkEngineNearFuture holds the queue about 32 deep, as a 16-core
// run does, and fires events whose handlers each schedule one successor
// with a delay and priority from nearFutureMix: the event kernel's real
// traffic, with no model work around it.
func BenchmarkEngineNearFuture(b *testing.B) {
	const depth = 32
	mix := nearFutureMix(4096)
	e := NewEngine()
	next := 0
	var fn func(*Engine)
	fn = func(e *Engine) {
		k := mix[next%len(mix)]
		next++
		e.ScheduleP(e.Now()+k.delay, k.priority, fn)
	}
	for i := 0; i < depth; i++ {
		fn(e)
	}
	for i := 0; i < 10*len(mix); i++ {
		e.Step() // warm up: the first bursts grow bucket arrays once
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
