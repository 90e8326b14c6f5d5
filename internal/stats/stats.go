// Package stats implements the descriptive statistics the paper's analysis
// relies on: percentiles, coefficient of variation, Pearson correlation,
// CDFs, error metrics, and the P95/P5 "gap" ratios used to quantify load
// imbalance. Sketch is their streaming counterpart: a mergeable t-digest
// with a stated rank-error bound, whose memory Footprint reports and Trim
// cuts to its exact size once its stream has ended.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// VarianceWithMean is Variance with a caller-supplied mean: when m is
// bit-identical to Mean(xs) the result is bit-identical to Variance(xs).
// It exists so running-mean caches (timeseries.Series) can skip the
// first pass over the data.
func VarianceWithMean(xs []float64, m float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// CVWithMean is CV with a caller-supplied mean, under the same
// bit-exactness contract as VarianceWithMean.
func CVWithMean(xs []float64, m float64) float64 {
	if m == 0 {
		return 0
	}
	return math.Sqrt(VarianceWithMean(xs, m)) / math.Abs(m)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean), the paper's jitter
// and usage-variance metric. It returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Min returns the smallest element, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs and runs a quickselect
// on the copy (expected O(n), bit-identical to the former sort-based
// implementation). It returns 0 for an empty slice and panics on p outside
// [0,100]. Loops that query many slices should reuse a Scratch instead.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return quantileSelect(s, p)
}

// PercentilesSorted computes several percentiles in one pass over a slice the
// caller has already sorted ascending.
func PercentilesSorted(sorted []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			panic("stats: percentile out of range")
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// GapRatio returns the P95/P5 ratio of xs, the paper's imbalance measure
// (e.g. "the cross-VM usage gap is 50×"). Values at or below zero in the 5th
// percentile are clamped to floor to keep the ratio finite. The input is
// copied and sorted once; both quantiles come from the same sorted copy.
func GapRatio(xs []float64, floor float64) float64 {
	return Summarize(xs).Gap(floor)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics if the lengths differ and returns 0 when either side has zero
// variance or fewer than two points.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// RMSE returns the root mean square error between predictions and truth.
// It panics on length mismatch and returns 0 for empty input.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0,1]
}

// CDF returns the empirical cumulative distribution of xs as sorted points.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{X: v, P: float64(i+1) / n}
	}
	return out
}

// CDFAt evaluates the empirical CDF of xs at value v: the fraction of
// elements <= v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Normalize scales xs so the smallest value maps to 1 (the paper's Figure 11
// normalises every series "to the smallest one"). Zero or negative minima are
// clamped to floor first. The result is a new slice.
func Normalize(xs []float64, floor float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	mn := Min(xs)
	if mn < floor {
		mn = floor
	}
	if mn == 0 {
		mn = 1
	}
	for i, x := range xs {
		out[i] = x / mn
	}
	return out
}
