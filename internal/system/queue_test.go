package system

import (
	"testing"

	"microbank/internal/config"
	"microbank/internal/workload"
)

// TestEventWheelHorizonCoversTraffic guards the sizing of the event
// queue's wheel: on a short 16-core memory-bound run over each Table I
// interface, fewer than 5% of scheduled events may fall past the
// wheel's horizon into the overflow heap. Slower DRAM timing or a
// model change that schedules further ahead shows up here first.
func TestEventWheelHorizonCoversTraffic(t *testing.T) {
	for _, iface := range config.Interfaces() {
		sys := config.DefaultSystem(config.MemPreset(iface, 1, 1))
		sys.Cores = 16
		names := workload.Group(workload.SpecHigh)
		profs := make([]workload.Profile, sys.Cores)
		for i := range profs {
			profs[i] = workload.MustGet(names[i%len(names)])
		}
		m := build(Spec{Sys: sys, Profiles: profs, InstrPerCore: 6000, WarmupInstr: 3000, Seed: 42})
		for _, c := range m.cores {
			c.Start()
		}
		m.eng.Run()
		if m.finished != len(m.cores) {
			t.Fatalf("%s: %d of %d cores finished", iface, m.finished, len(m.cores))
		}
		qs := m.eng.QueueStats()
		t.Logf("%s: %+v", iface, qs)
		if qs.Pushes == 0 || qs.OverflowPushes*20 >= qs.Pushes {
			t.Errorf("%s: %d of %d events scheduled past the wheel's horizon, want under 5%%",
				iface, qs.OverflowPushes, qs.Pushes)
		}
	}
}
