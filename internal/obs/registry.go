package obs

// The metrics registry. Components register counters, gauge functions,
// and histograms under stable labelled names; the epoch sampler (and
// any other consumer) gathers every series in registration order, which
// is deterministic because wiring happens single-threaded at build
// time. The registry is not safe for concurrent use — one Observer
// belongs to exactly one simulation run.

import (
	"fmt"

	"microbank/internal/stats"
)

// Kind discriminates registered metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Sample is one gathered (series name, value) pair.
type Sample struct {
	Name  string
	Value float64
}

type entry struct {
	name    string
	kind    Kind
	counter *stats.Counter
	gauge   func() float64
	hist    *stats.Histogram
}

// Registry holds all metrics of one simulation run.
type Registry struct {
	entries []entry
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// register adds an entry, panicking on a duplicate name: metric names
// are part of the tool's stable interface, and a collision is a wiring
// bug, not a runtime condition.
func (r *Registry) register(e entry) int {
	if _, dup := r.index[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.index[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
	return len(r.entries) - 1
}

// Counter registers (or returns the existing) named counter.
func (r *Registry) Counter(name string, labels ...Label) *stats.Counter {
	fn := fullName(name, labels)
	if i, ok := r.index[fn]; ok {
		e := r.entries[i]
		if e.kind != KindCounter {
			panic(fmt.Sprintf("obs: metric %q re-registered as counter (was kind %d)", fn, e.kind))
		}
		return e.counter
	}
	c := &stats.Counter{}
	r.register(entry{name: fn, kind: KindCounter, counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is computed on demand. The
// function is invoked exactly once per Gather, in registration order —
// stateful gauges (epoch-delta rates) may rely on that.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(entry{name: fullName(name, labels), kind: KindGauge, gauge: fn})
}

// Histogram registers (or returns the existing) named histogram. A
// histogram expands to five gathered series: .count, .mean, .p50, .p99,
// and .max.
func (r *Registry) Histogram(name string, labels ...Label) *stats.Histogram {
	fn := fullName(name, labels)
	if i, ok := r.index[fn]; ok {
		e := r.entries[i]
		if e.kind != KindHistogram {
			panic(fmt.Sprintf("obs: metric %q re-registered as histogram (was kind %d)", fn, e.kind))
		}
		return e.hist
	}
	h := &stats.Histogram{}
	r.register(entry{name: fn, kind: KindHistogram, hist: h})
	return h
}

// histSuffixes are the expanded series of one histogram.
var histSuffixes = [...]string{".count", ".mean", ".p50", ".p99", ".max"}

// SeriesNames returns every gathered series name in registration order.
func (r *Registry) SeriesNames() []string {
	var out []string
	for _, e := range r.entries {
		if e.kind == KindHistogram {
			for _, s := range histSuffixes {
				out = append(out, e.name+s)
			}
			continue
		}
		out = append(out, e.name)
	}
	return out
}

// Gather evaluates every metric and returns one sample per series, in
// the same order as SeriesNames.
func (r *Registry) Gather() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		switch e.kind {
		case KindCounter:
			out = append(out, Sample{e.name, float64(e.counter.Value())})
		case KindGauge:
			out = append(out, Sample{e.name, e.gauge()})
		case KindHistogram:
			h := e.hist
			out = append(out,
				Sample{e.name + ".count", float64(h.Count())},
				Sample{e.name + ".mean", h.Mean()},
				Sample{e.name + ".p50", float64(h.Quantile(0.5))},
				Sample{e.name + ".p99", float64(h.Quantile(0.99))},
				Sample{e.name + ".max", float64(h.Max())})
		}
	}
	return out
}
