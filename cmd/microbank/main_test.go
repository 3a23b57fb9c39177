package main

import (
	"bytes"
	"strings"
	"testing"

	"microbank/internal/experiments"
)

// TestSummarizeFailuresListsEachCellOnce runs the quick headline with a
// panic injected at cell 1 and requires the failure summary to name that
// cell exactly once, with its address once: under fail-fast the run's
// error is the failed cell's own TaskError and must not print it again,
// and under collect the summary line must not prefix the digest with a
// second copy of the address.
func TestSummarizeFailuresListsEachCellOnce(t *testing.T) {
	for _, mode := range []string{"fail-fast", "collect"} {
		t.Run(mode, func(t *testing.T) {
			o := experiments.Options{Quick: true, Instr: 4000, Seed: 42, Parallelism: 1, Exp: "headline"}
			res, err := buildResilience(mode, 0, 0, "", "panic:1")
			if err != nil {
				t.Fatal(err)
			}
			o.Res = res
			_, err = experiments.Headline(o)
			if err == nil {
				err = res.Err()
			}
			if err == nil {
				t.Fatal("injected panic did not fail the run")
			}
			var w bytes.Buffer
			summarizeFailures(&w, res, err)
			out := w.String()
			for _, want := range []string{"sweep 0 cell 1", "injected panic at campaign cell 1"} {
				if n := strings.Count(out, want); n != 1 {
					t.Errorf("%q appears %d times, want once:\n%s", want, n, out)
				}
			}
			if !strings.Contains(out, "[panic]") {
				t.Errorf("summary lacks the failure kind:\n%s", out)
			}
		})
	}
}
