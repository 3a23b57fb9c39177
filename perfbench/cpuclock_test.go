package main

import (
	"runtime"
	"testing"
	"time"
)

// TestCalibrationIsFixedWork checks that the calibration loop does the
// same work on every call, so that its CPU time measures only the host.
func TestCalibrationIsFixedWork(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	d1, sum1 := calibrate()
	d2, sum2 := calibrate()
	if sum1 != sum2 {
		t.Fatalf("calibration checksums differ: %x, %x", sum1, sum2)
	}
	for _, d := range []time.Duration{d1, d2} {
		if d <= 0 || d > 100*calibrationRef {
			t.Errorf("calibration took %v of CPU, reference %v", d, calibrationRef)
		}
	}
}

// TestCPUClocks checks that both CPU clocks advance with work done on
// the calling thread and stand still across a sleep.
func TestCPUClocks(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, clock := range []int{clockProcessCPU, clockThreadCPU} {
		t0 := cpuNow(clock)
		calibrate()
		busy := cpuNow(clock) - t0
		t1 := cpuNow(clock)
		time.Sleep(50 * time.Millisecond)
		idle := cpuNow(clock) - t1
		if busy <= 0 || idle >= 25*time.Millisecond {
			t.Errorf("clock %d: %v over the loop, %v over a 50 ms sleep", clock, busy, idle)
		}
	}
}
