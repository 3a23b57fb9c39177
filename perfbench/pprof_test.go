package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackageAndLayer(t *testing.T) {
	cases := []struct{ fn, pkg, layer string }{
		{"microbank/internal/memctrl.(*Controller).eval", "microbank/internal/memctrl", "memctrl"},
		{"microbank/internal/sim.(*eventHeap).down", "microbank/internal/sim", "sim"},
		{"microbank/internal/addr.(*Mapper).Map", "microbank/internal/addr", "memctrl"},
		{"microbank/internal/parallel.Map[...].func1", "microbank/internal/parallel", "parallel"},
		{"microbank/internal/parallel.Map[go.shape.struct { microbank/internal/system.X }]", "microbank/internal/parallel", "parallel"},
		{"microbank/internal/obs/serve.Start", "microbank/internal/obs/serve", "other"},
		{"math/rand.(*Rand).Int63", "math/rand", "workload"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "internal/runtime/atomic", "runtime"},
		{"runtime/internal/syscall.Syscall6", "runtime/internal/syscall", "runtime"},
		{"sort.Float64s", "sort", "other"},
		{"main.replaySim.func2", "main", "other"},
		{"gcBgMarkWorker", "gcBgMarkWorker", "other"},
	}
	for _, c := range cases {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(funcPackage(c.fn)); got != c.layer {
			t.Errorf("layer of %q = %q, want %q", c.fn, got, c.layer)
		}
	}
}

// protobuf encoding helpers for hand-built profiles.
func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, field, p)
}

// TestProfileAttribution builds a profile by hand: each sample must be
// charged to the innermost function of its leaf location (the inlined
// callee, not its caller), every sample must land in exactly one layer,
// and the shares must sum to 1.
func TestProfileAttribution(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"microbank/internal/memctrl.(*Controller).eval", // 5
		"microbank/internal/sim.(*Engine).Step",         // 6
		"math/rand.(*Rand).Int63",                       // 7
		"runtime.mallocgc",                              // 8
		"microbank/internal/dram.(*Channel).IssueRD",    // 9
	}
	var p []byte
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, st[0]), 2, st[1]))
	}
	// Samples: [location ids leaf-first], [count, nanoseconds].
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{1, 2}, 30}, // memctrl, called from sim
		{[]uint64{2}, 20},    // sim
		{[]uint64{3}, 10},    // math/rand -> workload
		{[]uint64{4, 1}, 25}, // inlined dram callee inside memctrl's frame -> dram
		{[]uint64{5}, 15},    // runtime
	}
	for _, s := range samples {
		m := pbPacked(nil, 1, s.locs...)
		m = pbPacked(m, 2, 1, s.ns)
		p = pbBytes(p, 2, m)
	}
	line := func(fn uint64) []byte { return pbVarint(pbVarint(nil, 1, fn), 2, 7) }
	locs := []struct {
		id  uint64
		fns []uint64 // innermost first
	}{{1, []uint64{5}}, {2, []uint64{6}}, {3, []uint64{7}}, {4, []uint64{9, 5}}, {5, []uint64{8}}}
	for _, l := range locs {
		m := pbVarint(nil, 1, l.id)
		for _, fn := range l.fns {
			m = pbBytes(m, 4, line(fn))
		}
		p = pbBytes(p, 4, m)
	}
	for id := uint64(5); id <= 9; id++ {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	shares, n, err := profileShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("read %d samples, want %d", n, len(samples))
	}
	want := map[string]float64{"memctrl": 0.30, "sim": 0.20, "workload": 0.10, "dram": 0.25, "runtime": 0.15}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(shares) != len(layers) {
		t.Errorf("%d layers reported, want %d", len(shares), len(layers))
	}
}

var spinSink uint64

// TestRealProfileParses reads a profile written by runtime/pprof.
func TestRealProfileParses(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := uint64(1)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
	pprof.StopCPUProfile()
	shares, n, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("profiler took no samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("spin loop in package main attributed %v to other, want most of it", shares["other"])
	}
}

func TestTruncatedProfileIsAnError(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pbBytes(nil, 2, []byte{0x0a, 0x05, 0x01})) // sample claims 5 bytes, has 1
	zw.Close()
	if _, _, err := profileShares(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
