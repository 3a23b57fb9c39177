package experiments

// Integration tests for the content-addressed result store under the
// campaign layer: byte-identity with the store on and off, replay
// across processes, corruption healing, resume of an interrupted
// campaign with injected failures, and the degrade-don't-fail contract
// for checkpoint write failures (which the fault-injecting FS makes
// testable).

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"microbank/internal/check/golden"
	"microbank/internal/store"
	"microbank/internal/system"
)

// storeRes builds a collect-mode Resilience checkpointing into a store
// at dir, collecting degrade warnings instead of printing them.
func storeRes(t *testing.T, dir string, fsys store.FS, warns *[]string) *Resilience {
	t.Helper()
	s, err := store.Open(dir, fsys)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	r := &Resilience{Mode: FailCollect, Store: s}
	if warns != nil {
		r.OnDegrade = func(msg string) { *warns = append(*warns, msg) }
	}
	return r
}

// storeOpts is resOpts for a store-backed headline campaign: the store
// keys its entries by CampaignKey(o.Exp, o), as the CLI's -store does.
func storeOpts(r *Resilience) Options {
	o := resOpts(r)
	o.Exp = "headline"
	return o
}

// TestStoreKeyedByCampaign: campaigns that share a store directory
// replay only their own cells. The key is derived from the experiment
// name and options, so a store-backed Resilience needs no key of its
// own.
func TestStoreKeyedByCampaign(t *testing.T) {
	dir := t.TempDir()
	sweep := func(exp string) (ran int, st store.Stats) {
		r := storeRes(t, dir, nil, nil)
		o := Options{Quick: true, Parallelism: 1, Exp: exp, Res: r}
		if _, err := mapRuns(o, []int{1, 2}, func(_ runEnv, j int) (system.Result, error) {
			ran++
			return system.Result{IPC: float64(j)}, nil
		}); err != nil {
			t.Fatal(err)
		}
		return ran, r.Store.Stats()
	}
	if ran, _ := sweep("a"); ran != 2 {
		t.Fatalf("first campaign simulated %d cells, want 2", ran)
	}
	if ran, st := sweep("b"); ran != 2 || st.Hits != 0 {
		t.Fatalf("campaign b simulated %d cells with %d store hits; want 2 and 0 (it must not replay campaign a)", ran, st.Hits)
	}
	if ran, st := sweep("a"); ran != 0 || st.Hits != 2 {
		t.Fatalf("rerun of campaign a simulated %d cells with %d store hits; want 0 and 2", ran, st.Hits)
	}
}

// TestStoreSweepByteIdenticalAndShared is the tentpole acceptance
// test: a store-backed campaign's report is byte-identical to a plain
// one, and a second campaign over the same store simulates nothing —
// every cell replays from disk.
func TestStoreSweepByteIdenticalAndShared(t *testing.T) {
	plain := headlineReport(t, storeOpts(&Resilience{Mode: FailCollect}))

	dir := t.TempDir()
	r1 := storeRes(t, dir, nil, nil)
	first := headlineReport(t, storeOpts(r1))
	if !bytes.Equal(first, plain) {
		t.Fatalf("store-backed report drifted from plain run:\n%s", golden.Diff(plain, first))
	}
	st := r1.Store.Stats()
	if st.Puts == 0 || st.Hits != 0 {
		t.Fatalf("first campaign stats = %+v, want puts > 0 and no hits", st)
	}

	// A different process (modeled as a fresh handle over the same
	// directory) re-running the same campaign: all cells replay.
	r2 := storeRes(t, dir, nil, nil)
	second := headlineReport(t, storeOpts(r2))
	if !bytes.Equal(second, plain) {
		t.Fatalf("replayed report drifted:\n%s", golden.Diff(plain, second))
	}
	st2 := r2.Store.Stats()
	if st2.Puts != 0 || st2.Hits == 0 || st2.Misses != 0 {
		t.Fatalf("replay campaign stats = %+v, want hits only", st2)
	}
}

// TestStoreCorruptEntryResimulated flips bytes in a committed entry:
// the next campaign must quarantine it, re-simulate that one cell, and
// still produce a byte-identical report — degrade, never a crash or a
// silently wrong result.
func TestStoreCorruptEntryResimulated(t *testing.T) {
	plain := headlineReport(t, storeOpts(&Resilience{Mode: FailCollect}))
	dir := t.TempDir()
	headlineReport(t, storeOpts(storeRes(t, dir, nil, nil)))

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".res" {
			continue
		}
		p := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
		break // one poisoned entry is the scenario
	}
	if corrupted == 0 {
		t.Fatal("no store entries found to corrupt")
	}

	r := storeRes(t, dir, nil, nil)
	got := headlineReport(t, storeOpts(r))
	if !bytes.Equal(got, plain) {
		t.Fatalf("post-corruption report drifted:\n%s", golden.Diff(plain, got))
	}
	st := r.Store.Stats()
	if st.Quarantined == 0 {
		t.Fatalf("corrupt entry was not quarantined: %+v", st)
	}
	if st.Puts == 0 {
		t.Fatalf("re-simulated cell was not re-committed: %+v", st)
	}
	if des, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(des) == 0 {
		t.Fatalf("quarantine directory empty (%v) after corruption", err)
	}
}

// TestResumeByteIdenticalReport interrupts a store-backed campaign with
// injected failures — two committed entries survive, a third is torn
// to half its length, the rest are lost, and an interrupted writer
// left debris in the staging area — then resumes it and requires the
// final report (gains, failure records, everything) to be
// byte-identical to an uninterrupted run's.
func TestResumeByteIdenticalReport(t *testing.T) {
	newRes := func(dir string) *Resilience {
		r := storeRes(t, dir, nil, nil)
		if err := r.SetInject("panic:1,timeout:3"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := headlineReport(t, storeOpts(newRes(t.TempDir())))

	// Interrupted run: complete once, then cut the store down.
	dir := t.TempDir()
	headlineReport(t, storeOpts(newRes(dir)))
	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("store too small to interrupt: %d entries", len(entries))
	}
	torn := entries[2]
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range entries[3:] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	debris := filepath.Join(dir, "tmp", filepath.Base(entries[3])+".1.1")
	if err := os.WriteFile(debris, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume from the interrupted store.
	r := newRes(dir)
	got := headlineReport(t, storeOpts(r))
	if st := r.Store.Stats(); st.Hits != 2 || st.Quarantined != 1 {
		t.Fatalf("resume stats = %+v, want 2 hits (the surviving entries) and 1 quarantined (the torn one)", st)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("staging debris survived recovery (stat err %v)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s", golden.Diff(want, got))
	}
}

// TestStoreWriteFailureDegrades: a mid-campaign store write failure
// (ENOSPC on every staged write) must not fail the healthy cells it
// was checkpointing — the campaign completes with zero failure
// records and byte-identical results, one warning fires, and store
// commits are disabled.
func TestStoreWriteFailureDegrades(t *testing.T) {
	efs := store.NewErrFS(nil)
	var warns []string
	r := storeRes(t, t.TempDir(), efs, &warns)
	efs.Inject(store.Fault{Op: store.OpWrite, Match: "tmp",
		Count: 1 << 20, Err: store.ErrNoSpace})

	plain := headlineReport(t, storeOpts(&Resilience{Mode: FailCollect}))
	got := headlineReport(t, storeOpts(r))
	if !bytes.Equal(got, plain) {
		t.Fatalf("store-degraded report drifted from plain run:\n%s", golden.Diff(plain, got))
	}
	if n := r.Log.Len(); n != 0 {
		t.Fatalf("store write failure produced %d cell failures: %+v", n, r.Log.Failures())
	}
	if len(warns) != 1 {
		t.Fatalf("got %d degrade warnings, want exactly 1: %q", len(warns), warns)
	}
	if r.Store.WriteErr() == nil {
		t.Fatal("store writes not disabled after injected ENOSPC")
	}
}
