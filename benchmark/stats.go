package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule chooses from,
// highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest rank of the p-th percentile among n
// samples. The tolerance keeps products such as 0.9999 * 100000 from
// rounding up past an exact rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie strictly past the rank of
// the p-th percentile.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - rank(p, n)
}

// reportable reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond it.
func reportable(p float64, n int) bool { return beyond(p, n) >= minBeyond }

// percentile returns the nearest-rank p-th percentile of sorted, or
// NaN when there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile applies the reporting rule: it returns the highest
// candidate percentile with at least minBeyond samples beyond it and
// its value. ok is false when even the median does not qualify.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	for _, c := range tailCandidates {
		if reportable(c, len(sorted)) {
			return c, percentile(sorted, c), true
		}
	}
	return 0, math.NaN(), false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durationsIn converts durations to float64 in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// backlogGrowing reports whether an open-loop generator fell steadily
// further behind its schedule. late holds, in issue order, how late
// each operation was sent relative to its due time. A system that keeps
// up with the offered rate shows bounded lateness: stalls make it spike
// and then recover. A system over capacity falls behind linearly, so
// the lateness at the end of the phase exceeds the lateness at its
// start by a margin that grows with the phase. The rule compares the
// median lateness of the last tenth of the operations with that of the
// first tenth, and calls the backlog growing when the difference
// exceeds both ten operation intervals and one percent of the phase.
func backlogGrowing(late []time.Duration, interval, phase time.Duration) bool {
	n := len(late) / 10
	if n == 0 {
		return false
	}
	first := median(durationsIn(late[:n], time.Nanosecond))
	last := median(durationsIn(late[len(late)-n:], time.Nanosecond))
	margin := 10 * float64(interval)
	if m := float64(phase) / 100; m > margin {
		margin = m
	}
	return last-first > margin
}
