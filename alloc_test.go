package microbank_test

import (
	"testing"

	"microbank/internal/experiments"
	"microbank/internal/system"
)

// TestAllocBounds pins the allocation counts of the headline run and of
// the quick Fig. 8 and QoS sweeps. Each bound is about 10% over the
// count measured when it was set. The counts are deterministic (the
// sweeps run at Parallelism 1; the runtime's own background allocations
// move them by about ten), so unlike wall time they gate exactly on any
// host with the same Go release. One extra allocation per simulated
// event breaks every bound; a sweep's bound breaks at about 24 extra
// allocations per cell (a quick Fig. 8 cell allocates about 232).
// Allocations per cell set a sweep's GC share.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	serial := benchOpts
	serial.Parallelism = 1
	armed := armedLimits()
	cases := []struct {
		name  string
		bound float64 // allocations per run
		run   func() error
	}{
		// Measured 2,808; the bound is 10% over the 2,810 this run
		// allocated when the gate was first set.
		{"headline run", 3091, func() error {
			_, err := system.Run(headlineRunSpec(nil))
			return err
		}},
		// Measured 2,811: the armed watchdog costs a constant 3
		// allocations per run and none per event, so it shares the
		// unarmed run's bound.
		{"headline run with armed limits", 3091, func() error {
			_, err := system.Run(headlineRunSpec(armed))
			return err
		}},
		// Measured 29,001–29,012.
		{"quick Fig. 8 sweep", 31900, func() error {
			_, err := experiments.Fig8(serial)
			return err
		}},
		// Measured 11,168.
		{"QoS sweep", 12285, func() error {
			_, err := experiments.QoSSweep(serial)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := testing.AllocsPerRun(1, func() {
				if e := c.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > c.bound {
				t.Errorf("%.0f allocations per run, bound %.0f", got, c.bound)
			}
		})
	}
}
