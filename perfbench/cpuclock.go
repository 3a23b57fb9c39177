package main

// CPU clocks and host speed. The end-to-end timings are CPU time, not
// wall time: on a shared host the wall time of a run also counts the
// time the kernel gave the CPU to other processes and, in a virtual
// machine, the time the hypervisor gave it to other guests (steal
// time). Neither belongs to the simulator, and both come and go with
// the neighbours' load. Linux leaves both out of a process's CPU clock.
//
// CPU time still stretches when the host itself slows down: a shared
// physical core, a contended last-level cache, a lower clock. So every
// repetition is bracketed by a fixed calibration loop, and the
// repetition's CPU time is scaled by how fast the loop ran, giving CPU
// seconds of a reference host on which the loop takes calibrationRef.
// The loop is shaped like the simulator's hot paths (an event heap,
// set-associative tag lookups, a directory map), so that it slows down
// with the host for the same reasons the simulator does.

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids (include/uapi/linux/time.h).
const (
	clockProcessCPU = 2 // CPU time of every thread of the process
	clockThreadCPU  = 3 // CPU time of the calling thread
)

// cpuNow reads one of the CPU clocks. A caller of clockThreadCPU must
// hold its OS thread (runtime.LockOSThread) for two readings to be
// comparable.
func cpuNow(clock int) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

const (
	// calibrationIters is the calibration loop's fixed amount of work
	// per tag array.
	calibrationIters = 300000
	// calibrationRef is the loop's CPU time on the reference host: the
	// 2-CPU machine the first numbers in README.md come from, when
	// quiet. The metrics are stated in that host's CPU seconds.
	calibrationRef = 31 * time.Millisecond
)

// calibrationTags are the sizes of the loop's tag arrays: 512 KiB,
// which a core's L2 holds on the reference host, and 4 MiB, twice that
// L2. The simulator's working set spans both levels, and a slow host
// slows the two loops by different amounts: in one slow spell on the
// reference host the 4 MiB loop alone over-corrected by about 8%, while
// the 512 KiB loop kept within 8% of the simulator.
var calibrationTags = []int{1 << 16, 1 << 19}

// calibrate runs the calibration loop once over each tag array on the
// calling thread, which must be locked to it, and returns the thread
// CPU time the loops took and a checksum of their work.
func calibrate() (time.Duration, uint64) {
	var d time.Duration
	var sum uint64
	for _, n := range calibrationTags {
		dn, sn := calibrationLoop(n)
		d += dn
		sum = sum*31 + sn
	}
	return d, sum
}

// calibrationLoop runs calibrationIters steps over a tag array of n
// entries (a power of two). Its memory is allocated and touched before
// the timed part and released on return, so that it neither adds to a
// repetition's peak RSS nor is timed while page-faulting.
func calibrationLoop(n int) (time.Duration, uint64) {
	const ways = 8
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = uint64(i)
	}
	heap := make([]uint64, 0, 256)
	dir := make(map[uint64]uint32, 8192)
	x, sum := uint64(88172645463325252), uint64(0)

	t0 := cpuNow(clockThreadCPU)
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// An 8-way set lookup; a miss replaces one way.
		set := x >> 11 & uint64(n/ways-1) * ways
		tag := x >> 59
		hit := false
		for w := uint64(0); w < ways; w++ {
			if tags[set+w] == tag {
				hit = true
				break
			}
		}
		if !hit {
			tags[set+x&(ways-1)] = tag
		}
		// An event: push onto a binary min-heap held at 128 pending,
		// popping the earliest once it is full.
		heap = append(heap, x>>20)
		for j := len(heap) - 1; j > 0; {
			p := (j - 1) / 2
			if heap[p] <= heap[j] {
				break
			}
			heap[p], heap[j] = heap[j], heap[p]
			j = p
		}
		if n := len(heap) - 1; n >= 128 {
			sum += heap[0]
			heap[0] = heap[n]
			heap = heap[:n]
			for j := 0; ; {
				l := 2*j + 1
				if l >= n {
					break
				}
				if r := l + 1; r < n && heap[r] < heap[l] {
					l = r
				}
				if heap[j] <= heap[l] {
					break
				}
				heap[j], heap[l] = heap[l], heap[j]
				j = l
			}
		}
		// A directory entry per line: sharers on a miss, dropped on a
		// hit.
		line := x & 4095
		if hit {
			delete(dir, line)
		} else {
			dir[line]++
		}
	}
	return cpuNow(clockThreadCPU) - t0, sum + uint64(len(dir))
}

// hostSpeed runs the calibration loop and returns how fast the host ran
// it against the reference host: 2 means twice as fast.
func hostSpeed() float64 {
	d, _ := calibrate()
	return calibrationRef.Seconds() / d.Seconds()
}
