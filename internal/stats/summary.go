package stats

import (
	"math"
	"sort"
)

// Summary is a sort-once view of a sample set. Construction sorts the data
// a single time and accumulates the mean in the same pass; every query
// afterwards — Min, Max, Mean, any percentile, CDF evaluation — is O(1) or
// O(log n). Use it wherever more than one order statistic of the same slice
// is needed: each standalone Percentile/Median call re-copies and re-sorts
// the input, which on the paper's hot paths (Figures 6-14, Table 6) used to
// cost three or more redundant O(n log n) sorts per series.
//
// A Summary is immutable after construction and safe for concurrent use.
type Summary struct {
	sorted []float64
	mean   float64
}

// Summarize builds a Summary from xs without modifying it (the data is
// copied). For a slice the caller no longer needs, SummarizeInPlace avoids
// the copy.
func Summarize(xs []float64) *Summary {
	s := make([]float64, len(xs))
	copy(s, xs)
	return SummarizeInPlace(s)
}

// SummarizeInPlace builds a Summary taking ownership of xs: the slice is
// sorted in place and must not be used by the caller afterwards.
func SummarizeInPlace(xs []float64) *Summary {
	sort.Float64s(xs)
	sum := &Summary{sorted: xs}
	for i, x := range xs {
		d := x - sum.mean
		sum.mean += d / float64(i+1)
	}
	return sum
}

// Len returns the sample count.
func (s *Summary) Len() int { return len(s.sorted) }

// Mean returns the arithmetic mean, 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample, or +Inf for an empty summary (matching
// the package-level Min).
func (s *Summary) Min() float64 {
	if len(s.sorted) == 0 {
		return math.Inf(1)
	}
	return s.sorted[0]
}

// Max returns the largest sample, or -Inf for an empty summary.
func (s *Summary) Max() float64 {
	if len(s.sorted) == 0 {
		return math.Inf(-1)
	}
	return s.sorted[len(s.sorted)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation between closest ranks. Edge cases are pinned by tests: an
// empty summary yields 0 for every p (matching the package-level
// Percentile), and a single-element summary yields that element for every
// p. It panics on p outside [0,100].
func (s *Summary) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	return percentileSorted(s.sorted, p)
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Percentiles evaluates several percentiles at once.
func (s *Summary) Percentiles(ps ...float64) []float64 {
	return PercentilesSorted(s.sorted, ps...)
}

// Gap returns the P95/P5 ratio, the paper's imbalance measure, with the 5th
// percentile clamped below at floor to keep the ratio finite. It matches
// GapRatio but reuses the summary's single sort.
func (s *Summary) Gap(floor float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	p5 := percentileSorted(s.sorted, 5)
	p95 := percentileSorted(s.sorted, 95)
	if p5 < floor {
		p5 = floor
	}
	if p5 == 0 {
		return 0
	}
	return p95 / p5
}

// CDFAt evaluates the empirical CDF at v — the fraction of samples <= v —
// by binary search in O(log n).
func (s *Summary) CDFAt(v float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	// Upper bound: the first index with sorted[i] > v, so equal values are
	// counted ("<= v") without a linear scan over duplicates.
	n := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] > v })
	return float64(n) / float64(len(s.sorted))
}
