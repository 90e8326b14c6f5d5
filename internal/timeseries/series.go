// Package timeseries provides the fixed-interval time-series container and
// operations used by edgescope's workload analysis: resampling, daily peaks
// (the billing granularity of the NEP platform) and the seasonality-strength
// metric the paper uses to explain why edge workloads are easier to forecast
// than cloud workloads.
package timeseries

import (
	"time"

	"edgescope/internal/stats"
)

// Series is a sequence of samples at a fixed interval starting at Start.
// Values are owned by the Series; callers must not mutate them after
// construction unless they created the slice.
type Series struct {
	Start    time.Time
	Interval time.Duration
	Values   []float64
}

// New builds a Series. It panics if interval <= 0.
func New(start time.Time, interval time.Duration, values []float64) *Series {
	if interval <= 0 {
		panic("timeseries: non-positive interval")
	}
	return &Series{Start: start, Interval: interval, Values: values}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Start: s.Start, Interval: s.Interval, Values: v}
}

// Refill makes s an n-sample series starting at start, reusing Values'
// capacity, and returns Values for the caller to write. The returned samples
// hold stale data until written. It is how a producer fills a caller-owned
// Series in ResampleInto style.
func (s *Series) Refill(start time.Time, interval time.Duration, n int) []float64 {
	if cap(s.Values) < n {
		s.Values = make([]float64, n)
	}
	s.Start, s.Interval, s.Values = start, interval, s.Values[:n]
	return s.Values
}

// Agg selects how a window of samples collapses to one value.
type Agg int

// Aggregation modes for ResampleInto.
const (
	AggMean Agg = iota
	AggMax
	AggMin
	AggSum
	AggP95
)

func aggregate(a Agg, window []float64, sc *stats.Scratch) float64 {
	switch a {
	case AggMean:
		return stats.Mean(window)
	case AggMax:
		return stats.Max(window)
	case AggMin:
		return stats.Min(window)
	case AggSum:
		return stats.Sum(window)
	case AggP95:
		return sc.Percentile(window, 95)
	default:
		panic("timeseries: unknown aggregation")
	}
}

// ResampleInto aggregates non-overlapping windows of the given duration,
// which must be a positive multiple of the series interval; a trailing
// partial window is aggregated as-is. The result is written into *dst,
// reusing dst.Values' capacity, and dst is returned. A loop that
// resamples many series can recycle one Series variable and stops allocating
// once its buffer has grown to the largest output. The caller must be done
// with dst's previous contents, and dst must not alias s.
func (s *Series) ResampleInto(dst *Series, window time.Duration, a Agg) *Series {
	if window <= 0 || window%s.Interval != 0 {
		panic("timeseries: window must be a positive multiple of interval")
	}
	k := int(window / s.Interval)
	n := (len(s.Values) + k - 1) / k
	out := dst.Values[:0]
	if cap(out) < n {
		out = make([]float64, 0, n)
	}
	var sc stats.Scratch
	for i := 0; i < len(s.Values); i += k {
		j := i + k
		if j > len(s.Values) {
			j = len(s.Values)
		}
		out = append(out, aggregate(a, s.Values[i:j], &sc))
	}
	dst.Start, dst.Interval, dst.Values = s.Start, window, out
	return dst
}

// DailyPeaks returns the maximum of each UTC day in the series. NEP bills
// network by the 95th percentile of daily peak bandwidth, so this feeds the
// billing engine directly.
func (s *Series) DailyPeaks() []float64 {
	if len(s.Values) == 0 {
		return nil
	}
	perDay := int(24 * time.Hour / s.Interval)
	if perDay <= 0 {
		perDay = 1
	}
	var peaks []float64
	for i := 0; i < len(s.Values); i += perDay {
		j := i + perDay
		if j > len(s.Values) {
			j = len(s.Values)
		}
		peaks = append(peaks, stats.Max(s.Values[i:j]))
	}
	return peaks
}

// Mean returns the mean of the series values.
func (s *Series) Mean() float64 { return stats.Mean(s.Values) }

// MaxValue returns the maximum of the series values.
func (s *Series) MaxValue() float64 { return stats.Max(s.Values) }

// SeasonalMeans returns the mean value at each phase of a cycle of the given
// period (in samples): out[p] is the mean of samples whose index ≡ p mod
// period. It panics if period <= 0.
func (s *Series) SeasonalMeans(period int) []float64 {
	if period <= 0 {
		panic("timeseries: non-positive period")
	}
	sums := make([]float64, period)
	counts := make([]int, period)
	for i, v := range s.Values {
		p := i % period
		sums[p] += v
		counts[p]++
	}
	out := make([]float64, period)
	for p := range out {
		if counts[p] > 0 {
			out[p] = sums[p] / float64(counts[p])
		}
	}
	return out
}

// SeasonalityStrength measures how much of the series variance is explained
// by a cycle of the given period, following the characteristic-based
// clustering formulation (Wang, Smith & Hyndman): 1 - Var(remainder) /
// Var(detrended), clamped to [0,1]. The trend is a centred moving average of
// one period; the seasonal component is the per-phase mean of the detrended
// series. Series shorter than two periods return 0.
func (s *Series) SeasonalityStrength(period int) float64 {
	n := len(s.Values)
	if period <= 1 || n < 2*period {
		return 0
	}
	// Trend: centred moving average with window = period.
	trend := make([]float64, n)
	half := period / 2
	for i := range trend {
		lo, hi := i-half, i+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		trend[i] = stats.Mean(s.Values[lo:hi])
	}
	detr := make([]float64, n)
	for i := range detr {
		detr[i] = s.Values[i] - trend[i]
	}
	// Seasonal component: per-phase mean of detrended values.
	seasonal := (&Series{Start: s.Start, Interval: s.Interval, Values: detr}).SeasonalMeans(period)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = detr[i] - seasonal[i%period]
	}
	vd := stats.Variance(detr)
	if vd == 0 {
		return 0
	}
	strength := 1 - stats.Variance(resid)/vd
	if strength < 0 {
		return 0
	}
	if strength > 1 {
		return 1
	}
	return strength
}

// AddInPlace adds other into s sample by sample, mutating s's backing
// array, and returns s. It panics unless
// both series have the same length and interval.
func (s *Series) AddInPlace(other *Series) *Series {
	if len(s.Values) != len(other.Values) || s.Interval != other.Interval {
		panic("timeseries: Add shape mismatch")
	}
	a, b := s.Values, other.Values
	if len(a) == len(b) {
		for i, v := range b {
			a[i] += v
		}
	}
	return s
}
