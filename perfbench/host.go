package main

// Host fingerprint, provenance and cross-record comparison. Wall-clock
// figures only compare on the same host, so every record carries the
// facts that decide host speed, and a comparison between records whose
// fingerprints differ is printed with a warning instead of a verdict.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the host and the code a record was measured
// with.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func hostFingerprint(workload string, seed int64, seconds int, trace bool) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     "unknown",
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
	}
	// The build stamps version-control facts only when it ran inside a
	// git work tree; a plain source checkout records "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.GitRev = s.Value
			case "vcs.modified":
				fp.GitDirty = s.Value == "true"
			}
		}
	}
	return fp
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// returns "unknown" where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostDiff reports the fingerprint fields that differ between two
// records, ignoring the ones that describe the run rather than the
// host (seed, workload, git revision).
func hostDiff(a, b fingerprint) []string {
	var diff []string
	check := func(name string, x, y any) {
		if x != y {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	check("num_cpu", a.NumCPU, b.NumCPU)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("go_version", a.GoVersion, b.GoVersion)
	check("goos", a.GOOS, b.GOOS)
	check("goarch", a.GOARCH, b.GOARCH)
	return diff
}

// record is the full output of one run, written by -out.
type record struct {
	Host    fingerprint          `json:"host"`
	Result  result               `json:"result"`
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints each metric of two records side by side. It
// never gates: when the host fingerprints differ it says so first, and
// the reader decides what the numbers mean.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if d := hostDiff(a.Host, b.Host); len(d) > 0 {
		fmt.Fprintf(w, "WARNING: host fingerprints differ (%s); timed metrics are not comparable\n",
			strings.Join(d, "; "))
	}
	if a.Host.Workload != b.Host.Workload || a.Host.Trace != b.Host.Trace {
		fmt.Fprintf(w, "WARNING: records measure different runs (%s trace=%v vs %s trace=%v)\n",
			a.Host.Workload, a.Host.Trace, b.Host.Workload, b.Host.Trace)
	}
	fmt.Fprintf(w, "old: rev %s dirty=%v seed %d; new: rev %s dirty=%v seed %d\n",
		a.Host.GitRev, a.Host.GitDirty, a.Host.Seed, b.Host.GitRev, b.Host.GitDirty, b.Host.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		om := a.Result.Metrics[n]
		nm, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-28s %14.6g %s  MISSING in new\n", n, om.Value, om.Unit)
			continue
		}
		change := "n/a"
		if om.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", (nm.Value/om.Value-1)*100)
		}
		fmt.Fprintf(w, "%-28s %14.6g -> %-14.6g %-6s %s\n", n, om.Value, nm.Value, om.Unit, change)
	}
	return nil
}
