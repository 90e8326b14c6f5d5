package timeseries

import (
	"math"
	"sort"
	"testing"
	"time"
)

// xorShift is a tiny deterministic generator for the equivalence tests (the
// real rng package is not imported to keep this package dependency-free).
type xorShift uint64

func (x *xorShift) next() float64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return float64(*x%100000)/1000 - 50
}

func randomSeries(seed uint64, n int) *Series {
	x := xorShift(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = x.next()
	}
	return New(t0, time.Minute, v)
}

// --- reference implementations: the pre-view, copy-everything semantics ---

func refAgg(a Agg, w []float64) float64 {
	switch a {
	case AggMean:
		var s float64
		for _, v := range w {
			s += v
		}
		return s / float64(len(w))
	case AggMax:
		m := math.Inf(-1)
		for _, v := range w {
			if v > m {
				m = v
			}
		}
		return m
	case AggMin:
		m := math.Inf(1)
		for _, v := range w {
			if v < m {
				m = v
			}
		}
		return m
	case AggSum:
		var s float64
		for _, v := range w {
			s += v
		}
		return s
	default: // AggP95: copy, sort, interpolate — the old implementation.
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		if len(s) == 1 {
			return s[0]
		}
		rank := 95.0 / 100 * float64(len(s)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return s[lo]
		}
		frac := rank - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
}

func refResample(s *Series, window time.Duration, a Agg) []float64 {
	k := int(window / s.Interval)
	var out []float64
	for i := 0; i < len(s.Values); i += k {
		j := i + k
		if j > len(s.Values) {
			j = len(s.Values)
		}
		out = append(out, refAgg(a, s.Values[i:j]))
	}
	return out
}

var allAggs = []Agg{AggMean, AggMax, AggMin, AggSum, AggP95}

// TestViewOpsMatchCopyingReference checks, on random series, that
// ResampleInto on a recycled buffer produces bit-identical values to the
// copying reference.
func TestViewOpsMatchCopyingReference(t *testing.T) {
	var resBuf Series
	for seed := uint64(1); seed <= 20; seed++ {
		n := 40 + int(seed*13)%200
		s := randomSeries(seed*7919, n)

		for _, a := range allAggs {
			want := refResample(s, 10*time.Minute, a)
			into := s.ResampleInto(&resBuf, 10*time.Minute, a)
			if len(into.Values) != len(want) {
				t.Fatalf("seed %d agg %d: ResampleInto len %d, want %d", seed, a, len(into.Values), len(want))
			}
			for k := range want {
				if into.Values[k] != want[k] {
					t.Fatalf("seed %d agg %d: ResampleInto[%d] = %v, want %v", seed, a, k, into.Values[k], want[k])
				}
			}

		}
	}
}

func TestAddInPlace(t *testing.T) {
	a := New(t0, time.Minute, []float64{1, 2, 3})
	b := New(t0, time.Minute, []float64{10, 20, 30})
	got := a.AddInPlace(b)
	if got != a {
		t.Fatal("AddInPlace must return its receiver")
	}
	for i, want := range []float64{11, 22, 33} {
		if a.Values[i] != want {
			t.Fatalf("AddInPlace = %v", a.Values)
		}
	}
	if b.Values[0] != 10 {
		t.Fatal("AddInPlace mutated its argument")
	}
}

func TestAddInPlacePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(t0, time.Minute, seq(2)).AddInPlace(New(t0, time.Minute, seq(3)))
}

// TestChainedViewPipelineZeroAlloc pins ResampleInto's buffer-reuse
// contract: a resample → aggregate pipeline performs zero allocations per
// iteration once its buffer is warm. (AggP95 is excluded: its percentile
// scratch is per-call by design.)
func TestChainedViewPipelineZeroAlloc(t *testing.T) {
	s := randomSeries(99, 24*60) // one day at 1-minute samples
	var hourly Series
	var sink float64
	pipeline := func() {
		s.ResampleInto(&hourly, time.Hour, AggMean) // buffer reuse
		sink += hourly.Mean()
	}
	pipeline() // warm the buffer
	if allocs := testing.AllocsPerRun(100, pipeline); allocs != 0 {
		t.Fatalf("chained view pipeline allocates %.1f per run, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Fatal("pipeline produced NaN")
	}
}

// BenchmarkChainedViewPipeline measures the warm chained pipeline the
// zero-alloc test pins (run with -benchmem: expect 0 B/op, 0 allocs/op).
func BenchmarkChainedViewPipeline(b *testing.B) {
	s := randomSeries(99, 24*60)
	var hourly Series
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResampleInto(&hourly, time.Hour, AggMean)
		sink += hourly.Mean()
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}
