package main

// Per-layer replays. Each one feeds a layer's real stream, recorded in
// the traced run, into that layer alone through its public API and
// times the loop, so a layer's cost per operation is measured on the
// traffic the full system gives it rather than on a synthetic
// microbenchmark. Each replay also checks that it reproduces the counts
// the traced run saw.

import (
	"fmt"
	"math"
	"time"

	"microbank/internal/addr"
	"microbank/internal/cache"
	"microbank/internal/dram"
	"microbank/internal/memctrl"
	"microbank/internal/obs"
	"microbank/internal/sim"
	"microbank/internal/workload"
)

// replayed is the time and operation count of one layer's replay.
type replayed struct {
	wall time.Duration
	ops  uint64
}

func (r *replayed) add(o replayed) {
	r.wall += o.wall
	r.ops += o.ops
}

func (r replayed) nsPerOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(r.wall.Nanoseconds()) / float64(r.ops)
}

// replays holds every layer's replay of one traced run.
type replays struct {
	sim, next, l1, l2, ctl, dram replayed
}

func (r *replays) add(o replays) {
	r.sim.add(o.sim)
	r.next.add(o.next)
	r.l1.add(o.l1)
	r.l2.add(o.l2)
	r.ctl.add(o.ctl)
	r.dram.add(o.dram)
}

// replayAll runs every layer's replay of t. A replay that panics (the
// layer refused a stream the full system accepted) is reported as an
// error.
func replayAll(t *tracedRun) (r replays, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replay panicked: %v", p)
		}
	}()
	if r.sim, err = replaySim(t); err != nil {
		return r, err
	}
	if r.next, err = replayWorkload(t); err != nil {
		return r, err
	}
	if r.l1, r.l2, err = replayCaches(t); err != nil {
		return r, err
	}
	if r.dram, err = replayDRAM(t); err != nil {
		return r, err
	}
	r.ctl, err = replayCtrl(t)
	return r, err
}

// replaySim drives a bare engine through as many events as the traced
// run fired, holding the queue at the traced run's mean pending depth.
// Each fired event schedules one successor; delays are drawn so that,
// by Little's law, the mean event lifetime matches the traced run's
// (depth × simulated time per event).
func replaySim(t *tracedRun) (replayed, error) {
	events := t.diag.events
	depth := max(int(math.Round(t.diag.meanPending())), 1)
	life := uint64(float64(depth) * float64(t.diag.lastNow) / float64(max(events, 1)))
	life = max(life, 1)
	rng := uint64(0x9E3779B97F4A7C15)
	delay := func() sim.Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return sim.Time(1 + rng%(2*life))
	}
	eng := sim.NewEngine()
	var scheduled, fired uint64
	var fn func(*sim.Engine)
	fn = func(e *sim.Engine) {
		fired++
		if scheduled < events {
			scheduled++
			e.After(delay(), fn)
		}
	}
	for scheduled < events && scheduled < uint64(depth) {
		scheduled++
		eng.After(delay(), fn)
	}
	start := time.Now()
	for eng.Step() {
	}
	wall := time.Since(start)
	if fired != events {
		return replayed{}, fmt.Errorf("sim replay fired %d events, traced run %d", fired, events)
	}
	return replayed{wall: wall, ops: fired}, nil
}

// replayWorkload regenerates every core's stream from a fresh
// generator and checks it against the traced run's, call for call.
func replayWorkload(t *tracedRun) (replayed, error) {
	var r replayed
	for core, g := range t.gens {
		gen := workload.NewSynthetic(t.spec.Profiles[core], core%63, t.spec.Seed)
		n := len(g.accs)
		h := uint64(fnvOffset)
		start := time.Now()
		for i := 0; i < n; i++ {
			gap, a := gen.Next()
			h = mix(mix(h, uint64(gap)), packAccess(a))
		}
		r.wall += time.Since(start)
		r.ops += uint64(n)
		if h != g.hash {
			return replayed{}, fmt.Errorf("workload replay of core %d diverged from the traced stream", core)
		}
	}
	return r, nil
}

// replayCaches feeds each core's recorded L1 access stream into a
// standalone L1, interleaving cores round-robin, and each cluster's
// resulting L1-miss and writeback stream into a standalone L2. Fills
// complete at once, so the replay times lookup, fill and eviction, not
// the timing model around them.
func replayCaches(t *tracedRun) (l1r, l2r replayed, err error) {
	sys := t.spec.Sys
	period := sys.CoreClock().Period()
	eng := sim.NewEngine()
	clusters := (sys.Cores + sys.CoresPerL2 - 1) / sys.CoresPerL2
	l2in := make([][]uint64, clusters)
	l1s := make([]*cache.Cache, sys.Cores)
	want := make([]int, sys.Cores)
	longest := 0
	for core := range l1s {
		cl := core / sys.CoresPerL2
		l1s[core] = cache.New(eng, sys.L1D, period,
			func(block uint64, write bool, _ int, done func(sim.Time)) {
				x := block << 1
				if write {
					x |= 1
				}
				l2in[cl] = append(l2in[cl], x)
				done(eng.Now())
			},
			func(block uint64, _ int) { l2in[cl] = append(l2in[cl], block<<1|1) })
		st := t.res.PerCore[core]
		want[core] = int(st.Loads + st.Stores)
		// The core may draw one access it never issues: the one pending
		// when its budget ran out.
		if n := len(t.gens[core].accs); n < want[core] || n > want[core]+1 {
			return l1r, l2r, fmt.Errorf("core %d issued %d accesses but drew %d", core, want[core], n)
		}
		longest = max(longest, want[core])
	}
	start := time.Now()
	for i := 0; i < longest; i++ {
		for core, c := range l1s {
			if i < want[core] {
				x := t.gens[core].accs[i]
				c.Access(x>>1, x&1 == 1, core, nil)
			}
		}
	}
	l1r.wall = time.Since(start)
	for core, c := range l1s {
		if got := c.Stats().Accesses; got != uint64(want[core]) {
			return l1r, l2r, fmt.Errorf("L1 replay of core %d made %d accesses, traced run %d", core, got, want[core])
		}
		l1r.ops += uint64(want[core])
	}
	for cl, stream := range l2in {
		l2 := cache.New(eng, sys.L2, period,
			func(_ uint64, _ bool, _ int, done func(sim.Time)) { done(eng.Now()) },
			func(uint64, int) {})
		start := time.Now()
		for _, x := range stream {
			l2.Access(x>>1, x&1 == 1, cl, nil)
		}
		l2r.wall += time.Since(start)
		l2r.ops += uint64(len(stream))
	}
	return l1r, l2r, nil
}

// replayDRAM re-issues every traced command on a fresh channel in the
// order the controller issued them, asking the channel for each
// command's earliest legal instant first. The channel must find every
// command legal at its traced instant and end with the traced command
// counts.
func replayDRAM(t *tracedRun) (replayed, error) {
	var r replayed
	for ch, cmds := range t.dram.perChan {
		c := dram.NewChannel(t.spec.Sys.Mem)
		late := 0
		start := time.Now()
		for _, k := range cmds {
			var at sim.Time
			switch k.kind {
			case obs.CmdACT:
				at = c.EarliestACT(k.bank, k.issue)
				c.IssueACT(k.bank, k.row, k.issue)
			case obs.CmdRD:
				at = c.EarliestCol(k.bank, false, k.issue)
				c.IssueRD(k.bank, k.issue)
			case obs.CmdWR:
				at = c.EarliestCol(k.bank, true, k.issue)
				c.IssueWR(k.bank, k.issue)
			case obs.CmdPRE:
				at = c.EarliestPRE(k.bank, k.issue)
				c.IssuePRE(k.bank, k.issue)
			case obs.CmdREF:
				at = k.issue
				if !c.MaybeRefresh(k.issue) {
					at = sim.Never
				}
			}
			if at != k.issue {
				late++
			}
		}
		r.wall += time.Since(start)
		r.ops += uint64(len(cmds))
		if late > 0 {
			return r, fmt.Errorf("DRAM replay of channel %d: %d commands not legal at their traced instant", ch, late)
		}
		e := c.Energy()
		n := t.dram.counts(ch)
		got := [...]uint64{e.Acts, e.Reads, e.Writes, e.Pres, e.Refreshes}
		if got != n {
			return r, fmt.Errorf("DRAM replay of channel %d counted ACT/RD/WR/PRE/REF %v, traced %v", ch, got, n)
		}
	}
	return r, nil
}

// replayCtrl drives a standalone controller per channel with the
// channel's traced column commands as requests, rebuilt into addresses
// of the same bank and row. The loop is closed: the controller holds
// the traced run's mean queue length, and each retirement admits the
// next request. Requests are spread over the run's hardware threads
// round-robin, since the command trace does not carry the thread.
func replayCtrl(t *tracedRun) (replayed, error) {
	sys := t.spec.Sys
	org := sys.Mem.Org
	if org.SubarraysPerBank > 1 {
		return replayed{}, fmt.Errorf("controller replay does not rebuild SALP subarray addresses")
	}
	perBank := org.NW * org.NB
	var r replayed
	for ch, cmds := range t.dram.perChan {
		eng := sim.NewEngine()
		ctl := memctrl.New(eng, sys.Mem, sys.Ctrl, sys.Cores)
		m := ctl.Mapper()
		var reqs []memctrl.Request
		done := func(sim.Time) {}
		for _, k := range cmds {
			if k.kind != obs.CmdRD && k.kind != obs.CmdWR {
				continue
			}
			within := k.bank % (org.BanksPerRank * perBank)
			a := m.Unmap(addr.Loc{Channel: ch, Rank: k.bank / (org.BanksPerRank * perBank),
				Bank: within / perBank, Micro: within % perBank, Row: k.row})
			if l := m.Map(a); m.LocalBank(l) != k.bank || l.Row != k.row {
				return r, fmt.Errorf("controller replay cannot rebuild channel %d bank %d row %d", ch, k.bank, k.row)
			}
			req := memctrl.Request{Addr: a, Write: k.kind == obs.CmdWR, Thread: len(reqs) % sys.Cores}
			if !req.Write {
				req.Done = done
			}
			reqs = append(reqs, req)
		}
		n := len(reqs)
		depth := max(int(math.Round(t.diag.meanQueue(ch))), 1)
		var scheduled, admitted, retired int
		arrive := func(*sim.Engine) {
			ctl.Enqueue(&reqs[admitted])
			admitted++
		}
		ctl.OnRetire = func(*memctrl.Request) {
			retired++
			if scheduled < n {
				scheduled++
				eng.Schedule(eng.Now(), arrive)
			}
		}
		for scheduled < n && scheduled < depth {
			scheduled++
			eng.Schedule(0, arrive)
		}
		start := time.Now()
		eng.Run()
		r.wall += time.Since(start)
		r.ops += uint64(n)
		cnt := t.dram.counts(ch)
		st := ctl.Stats()
		if retired != n || st.Reads != cnt[obs.CmdRD] || st.Writes != cnt[obs.CmdWR] {
			return r, fmt.Errorf("controller replay of channel %d retired %d (%d reads, %d writes), traced %d reads, %d writes",
				ch, retired, st.Reads, st.Writes, cnt[obs.CmdRD], cnt[obs.CmdWR])
		}
	}
	return r, nil
}
