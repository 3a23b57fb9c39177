package main

// The traced run: one execution of a spec with every public hook
// attached, recording the streams the per-layer replays feed back into
// each layer alone. The hooks only observe: the traced run's outputs
// must hash to the same digest as an untraced run's.
//
//   - Spec.GeneratorFor hands each core a recording wrapper around the
//     synthetic generator the machine would build itself.
//   - Spec.Obs carries a registry (NoC packet count) and a tracer that
//     records every DRAM command.
//   - Limits.OnDiag with CheckEvents=1 sees the engine after every
//     event: fired count, pending events, controller queue lengths.

import (
	"fmt"
	"time"

	"microbank/internal/obs"
	"microbank/internal/sim"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// recGen wraps one core's generator, recording every access it hands
// out and hashing the (gap, access) stream.
type recGen struct {
	inner workload.Generator
	accs  []uint64 // address<<1 | write
	hash  uint64
}

func newRecGen(inner workload.Generator) *recGen {
	return &recGen{inner: inner, hash: fnvOffset}
}

func (g *recGen) Next() (int, workload.Access) {
	gap, a := g.inner.Next()
	x := packAccess(a)
	g.accs = append(g.accs, x)
	g.hash = mix(mix(g.hash, uint64(gap)), x)
	return gap, a
}

func packAccess(a workload.Access) uint64 {
	x := a.Addr << 1
	if a.Write {
		x |= 1
	}
	return x
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one word into an FNV-1a style running hash.
func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// cmdRec is one traced DRAM command.
type cmdRec struct {
	bank  int
	kind  obs.CmdKind
	row   uint32
	issue sim.Time
}

// dramRecorder is an obs.Tracer that keeps every command, per channel,
// in issue-call order.
type dramRecorder struct {
	perChan [][]cmdRec
}

func (d *dramRecorder) TraceCmd(channel, bank int, kind obs.CmdKind, row uint32, issue, _ sim.Time) {
	for len(d.perChan) <= channel {
		d.perChan = append(d.perChan, nil)
	}
	d.perChan[channel] = append(d.perChan[channel], cmdRec{bank: bank, kind: kind, row: row, issue: issue})
}

// counts returns the number of commands of each kind on one channel
// (all channels when ch < 0).
func (d *dramRecorder) counts(ch int) [obs.CmdREF + 1]uint64 {
	var n [obs.CmdREF + 1]uint64
	for c, cmds := range d.perChan {
		if ch >= 0 && c != ch {
			continue
		}
		for _, k := range cmds {
			n[k.kind]++
		}
	}
	return n
}

// diagStats accumulates the watchdog snapshots of one run.
type diagStats struct {
	events      uint64
	lastNow     sim.Time
	peakPending int
	pendingSum  float64
	snaps       uint64
	peakQueue   int
	queueSum    []float64 // per controller
}

func (d *diagStats) observe(g system.Diag) {
	d.events = g.Events
	d.lastNow = g.NowPS
	d.snaps++
	d.pendingSum += float64(g.QueueDepth)
	d.peakPending = max(d.peakPending, g.QueueDepth)
	if d.queueSum == nil {
		d.queueSum = make([]float64, len(g.CtrlQueueLens))
	}
	for i, q := range g.CtrlQueueLens {
		d.queueSum[i] += float64(q)
		d.peakQueue = max(d.peakQueue, q)
	}
}

func (d *diagStats) meanPending() float64 { return d.pendingSum / float64(max(d.snaps, 1)) }

func (d *diagStats) meanQueue(ch int) float64 {
	if ch >= len(d.queueSum) {
		return 0
	}
	return d.queueSum[ch] / float64(max(d.snaps, 1))
}

// tracedRun is everything one traced execution of a spec recorded.
type tracedRun struct {
	spec       system.Spec
	res        system.Result
	wall       time.Duration
	diag       diagStats
	gens       []*recGen
	dram       *dramRecorder
	nocPackets float64
}

// traceRun executes spec once with every hook attached.
func traceRun(spec system.Spec) (*tracedRun, error) {
	t := &tracedRun{spec: spec, dram: &dramRecorder{}, gens: make([]*recGen, spec.Sys.Cores)}
	s := spec
	s.Obs = obs.NewObserver()
	s.Obs.Tracer = t.dram
	s.GeneratorFor = func(core int) workload.Generator {
		// The generator the machine builds when GeneratorFor is nil.
		g := newRecGen(workload.NewSynthetic(spec.Profiles[core], core%63, spec.Seed))
		t.gens[core] = g
		return g
	}
	s.Limits = &system.Limits{CheckEvents: 1, OnDiag: t.diag.observe}
	start := time.Now()
	res, err := system.Run(s)
	t.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	t.res = res
	for _, smp := range s.Obs.Registry.Gather() {
		if smp.Name == "noc.packets" {
			t.nocPackets = smp.Value
		}
	}
	return t, nil
}

// nextCalls returns the total number of generator calls.
func (t *tracedRun) nextCalls() uint64 {
	var n uint64
	for _, g := range t.gens {
		n += uint64(len(g.accs))
	}
	return n
}

// l1Accesses returns the loads and stores the cores issued to their L1s.
func (t *tracedRun) l1Accesses() uint64 {
	var n uint64
	for _, c := range t.res.PerCore {
		n += c.Loads + c.Stores
	}
	return n
}
