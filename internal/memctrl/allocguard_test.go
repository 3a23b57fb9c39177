package memctrl

// Zero-allocation guards for the controller's steady-state hot paths,
// the memctrl part of `make alloc-guard`. A regression here (a map
// rebuilt per pass, a closure per retirement, an interface box on the
// tracer seam) fails the gate outright instead of showing up only as a
// slower benchmark.

import (
	"testing"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/sim"
)

// nopTracer is an attached-but-inert DRAM command tracer: it proves the
// tracer seam itself (interface call per issued command) is free of
// allocation, per the obs layer's "observation is read-only" contract.
type nopTracer struct{}

func (nopTracer) TraceCmd(channel, bank int, kind obs.CmdKind, row uint32, issue, complete sim.Time) {
}

// TestEvalZeroAllocGuard drains a full request pool through enqueue,
// batch formation, candidate selection, DRAM issue, and retirement, and
// requires zero allocations per cycle — with and without a tracer
// attached.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestEvalZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	run := func(t *testing.T, trace bool) {
		eng, c, reqs := benchController(config.SchedPARBS, 64)
		if trace {
			c.SetTracer(nopTracer{}, 0)
		}
		// Warm cycle: grows the queue backing array, the engine free
		// list, and the selection scratch to steady-state size.
		for _, r := range reqs {
			c.Enqueue(r)
		}
		eng.Run()
		if avg := testing.AllocsPerRun(100, func() {
			resetRequests(reqs)
			for _, r := range reqs {
				c.Enqueue(r)
			}
			eng.Run()
		}); avg != 0 {
			t.Errorf("eval drain cycle allocates %.2f allocs/op, want 0", avg)
		}
	}
	t.Run("noTracer", func(t *testing.T) { run(t, false) })
	t.Run("tracer", func(t *testing.T) { run(t, true) })
}

// TestFormBatchZeroAllocGuard pins the single-thread PAR-BS batch
// formation path, which used to allocate a struct-keyed map entry per
// (thread, bank) pair per formation.
func TestFormBatchZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	_, c, reqs := benchController(config.SchedPARBS, 32)
	for _, r := range reqs {
		r.Thread = 0 // single-thread path
		c.Enqueue(r)
	}
	c.formBatch() // warm the scratch
	if avg := testing.AllocsPerRun(100, func() {
		for _, r := range reqs {
			r.marked = false
		}
		for i := range c.markedPerThread {
			c.markedPerThread[i] = 0
		}
		c.batchLive = 0
		c.formBatch()
	}); avg != 0 {
		t.Errorf("formBatch allocates %.2f allocs/op, want 0", avg)
	}
}
