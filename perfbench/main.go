// Command perfbench is the simulator's benchmark. One invocation runs
// one workload in this process and prints every metric by name with its
// unit, then one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 it times closed-loop repetitions of the workload and
// reports the end-to-end metrics; with -trace 1 it profiles untraced
// repetitions, makes one traced run with every public hook attached,
// replays each layer's recorded stream into that layer alone, and
// reports the per-layer metrics. See README.md for the metric map.
//
// Usage:
//
//	perfbench -workload membound -seed 42 -seconds 10 -trace 0 [-out rec.json]
//	perfbench -workload membound -seed 42 -digest
//	perfbench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: membound, cacheres, writeshare or fig8sweep")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 10, "measured host seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	out := fs.String("out", "", "also write the full record (host fingerprint, metrics, samples) to this file")
	digest := fs.Bool("digest", false, "run the workload once and print its output digest")
	compare := fs.Bool("compare", false, "compare two records given as arguments: old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two record files")
			return 2
		}
		if err := compareRecords(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *digest {
		o, err := runOnce(w, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(o.digest)
		return 0
	}

	fp := hostFingerprint(w.name, *seed, *seconds, *trace == 1)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("host %s\n", fpJSON)
	var b *bench
	if *trace == 1 {
		b = measureTraced(w, *seed, *seconds)
	} else {
		b = measure(w, *seed, *seconds)
	}
	res := b.result()
	printMetrics(res, b.samples)
	if *out != "" {
		rec, _ := json.MarshalIndent(record{Host: fp, Result: res, Samples: b.samples}, "", "  ")
		if err := os.WriteFile(*out, append(rec, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// bench accumulates one invocation's checks and metrics.
type bench struct {
	w         benchWorkload
	seed      int64
	attempted int
	failed    int
	problems  []string
	ref       string // digest every run of this seed must produce
	want      string // recorded digest for this seed, if any
	metrics   map[string]metric
	samples   map[string][]float64
}

func newBench(w benchWorkload, seed int64) *bench {
	b := &bench{w: w, seed: seed, metrics: map[string]metric{}, samples: map[string][]float64{}}
	b.want, _ = expectedDigest(w.name, seed)
	b.ref = b.want
	return b
}

// check counts one attempted run and records it as failed when it
// returned an error or its digest differs from the recorded digest or
// from the digest of the first run of this invocation.
func (b *bench) check(o outcome, err error) bool {
	b.attempted++
	if err == nil && b.ref == "" {
		b.ref = o.digest
	}
	switch {
	case err != nil:
		b.fail(err.Error())
	case o.digest != b.ref:
		b.fail(fmt.Sprintf("digest %s, want %s", o.digest, b.ref))
	default:
		return true
	}
	return false
}

func (b *bench) fail(msg string) {
	b.failed++
	b.problem(msg)
}

// problem records a failed check that is not a run (a replay or
// invariance check).
func (b *bench) problem(msg string) {
	b.problems = append(b.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.w.name, msg)
}

func (b *bench) set(name string, v float64, unit string) {
	if !validName(name) {
		panic("perfbench: invalid metric name " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problem(fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) result() result {
	return result{
		Correct:   len(b.problems) == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

func printMetrics(r result, samples map[string][]float64) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, m.Value, m.Unit)
		if s := samples[n]; len(s) > 1 {
			line += "  (" + summary(s) + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-28s %14.6g %s\n", "error_rate", float64(r.Failed)/float64(r.Attempted), "frac")
	// Samples kept for the reader that are not metrics, such as the
	// repetitions' wall time.
	var extra []string
	for n, s := range samples {
		if _, ok := r.Metrics[n]; !ok && len(s) > 0 {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Printf("%-28s (%s)\n", n, summary(samples[n]))
	}
}
