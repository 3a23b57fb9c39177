package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads the benchmark prints are the ones
// an external checker computes from the same values. With fewer than
// two values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples beyond it, and false when n is too
// small for any percentile at or above the median to qualify.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 50; p-- {
		// Samples strictly beyond the p-th percentile's rank.
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary describes one metric's per-repetition samples for the
// human-readable report: median, quartile spread, sample count and,
// when there are enough samples, the highest percentile with ten
// samples beyond it.
func summary(xs []float64) string {
	med := median(xs)
	q1, q3 := quartiles(xs)
	out := fmt.Sprintf("median=%.6g iqr/median=%.3f n=%d", med, (q3-q1)/med, len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		out += fmt.Sprintf(" p%d=%.6g", p, percentile(xs, p))
	}
	return out
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name:
// it starts with a letter or digit and uses only letters, digits, '_',
// '.' and '-', at most 64 characters in all.
func validName(name string) bool { return metricNameRE.MatchString(name) }
