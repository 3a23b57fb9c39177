package workload

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordLoadRoundTrip(t *testing.T) {
	gen := NewSynthetic(MustGet("450.soplex"), 0, 99)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 500); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	// Replay must match a fresh generator with the same seed.
	ref := NewSynthetic(MustGet("450.soplex"), 0, 99)
	for i := 0; i < 500; i++ {
		g1, a1 := ref.Next()
		g2, a2 := tr.Next()
		if g1 != g2 || a1 != a2 {
			t.Fatalf("replay diverged at %d: (%d %+v) vs (%d %+v)", i, g1, a1, g2, a2)
		}
	}
	// Wrap-around: next access equals the first.
	tr.Reset()
	_, first := tr.Next()
	for i := 1; i < 500; i++ {
		tr.Next()
	}
	_, wrapped := tr.Next()
	if first != wrapped {
		t.Fatal("wrap-around mismatch")
	}
}

func TestLoadCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n3 1f40 R\n  \n0 80 W\n"
	tr, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	g, a := tr.Next()
	if g != 3 || a.Addr != 0x1f40 || a.Write {
		t.Fatalf("first = %d %+v", g, a)
	}
	_, a2 := tr.Next()
	if !a2.Write || a2.Addr != 0x80 {
		t.Fatalf("second = %+v", a2)
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	bad := []string{
		"",               // empty
		"1 2\n",          // 2 fields
		"x 40 R\n",       // bad gap
		"-1 40 R\n",      // negative gap
		"1 zz R\n",       // bad hex
		"1 40 X\n",       // bad op
		"1 40 R extra\n", // 4 fields
	}
	for i, in := range bad {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

func TestEmptyTracePanics(t *testing.T) {
	tr := &Trace{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.Next()
}

// Property: round-trip is lossless for arbitrary access streams.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, addrs []uint32, writes []bool) bool {
		n := len(gaps)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(writes) < n {
			n = len(writes)
		}
		if n == 0 {
			return true
		}
		src := &Trace{}
		for i := 0; i < n; i++ {
			src.Gaps = append(src.Gaps, int(gaps[i]))
			src.Accs = append(src.Accs, Access{Addr: uint64(addrs[i]), Write: writes[i]})
		}
		var buf bytes.Buffer
		if err := Record(&buf, src, n); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Gaps[i] != src.Gaps[i] || got.Accs[i] != src.Accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTraceReader feeds arbitrary bytes to the trace decoder. Load
// must reject them with an error or accept them, never panic; and an
// accepted trace must survive Record followed by Load unchanged.
func FuzzTraceReader(f *testing.F) {
	var rec bytes.Buffer
	if err := Record(&rec, NewSynthetic(MustGet("450.soplex"), 0, 99), 8); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add([]byte("# header\n\n3 1f40 R\n  \n0 80 w\n"))
	f.Add([]byte("+7 FFFFFFFFFFFFFFFF W\n"))
	f.Add([]byte("1 40 R extra\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tr.Gaps) != tr.Len() || tr.Len() == 0 {
			t.Fatalf("accepted trace with %d gaps and %d accesses", len(tr.Gaps), tr.Len())
		}
		var buf bytes.Buffer
		if err := Record(&buf, tr, tr.Len()); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-loading a recorded trace: %v", err)
		}
		if !slices.Equal(again.Gaps, tr.Gaps) || !slices.Equal(again.Accs, tr.Accs) {
			t.Fatalf("Record+Load changed the trace:\n got %v %v\nwant %v %v",
				again.Gaps, again.Accs, tr.Gaps, tr.Accs)
		}
	})
}
