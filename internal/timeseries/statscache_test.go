package timeseries

import (
	"math"
	"testing"
	"time"

	"edgescope/internal/stats"
)

func testSeries(n int) *Series {
	v := make([]float64, n)
	for i := range v {
		// Non-trivial values so folded sums differ bitwise from re-sums.
		v[i] = math.Sin(float64(i)*0.7)*3.3 + 0.1*float64(i%11)
	}
	return New(time.Unix(0, 0).UTC(), time.Minute, v)
}

// requireCacheFresh asserts Mean agrees bit-for-bit with a direct re-sum of
// the current values, whatever the cache state.
func requireCacheFresh(t *testing.T, tag string, s *Series) {
	t.Helper()
	if got, want := s.Mean(), stats.Mean(s.Values); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Mean() = %v (bits %x), re-sum = %v (bits %x)",
			tag, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestPrimeStatsBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1024} {
		s := testSeries(n)
		uncachedMean := s.Mean()
		s.PrimeStats()
		if !s.statsOK {
			t.Fatalf("n=%d: PrimeStats did not validate the cache", n)
		}
		if math.Float64bits(s.Mean()) != math.Float64bits(uncachedMean) {
			t.Fatalf("n=%d: cached Mean diverges from uncached", n)
		}
		requireCacheFresh(t, "primed", s)
	}
}

// TestEveryMutatorInvalidates walks each mutating API over a primed
// series (or primed dst) and checks the cache cannot serve stale sums.
func TestEveryMutatorInvalidates(t *testing.T) {
	t.Run("AddInPlace", func(t *testing.T) {
		s := testSeries(64).PrimeStats()
		s.AddInPlace(testSeries(64))
		if s.statsOK {
			t.Fatal("AddInPlace left the cache valid")
		}
		requireCacheFresh(t, "AddInPlace", s)
	})
	t.Run("ResampleInto", func(t *testing.T) {
		dst := testSeries(8).PrimeStats()
		testSeries(64).ResampleInto(dst, 4*time.Minute, AggMean)
		if dst.statsOK {
			t.Fatal("ResampleInto left dst's cache valid")
		}
		requireCacheFresh(t, "ResampleInto", dst)
	})
}

// TestNonMutatingConstructorsCacheState pins that Clone carries the cache
// and that clone and parent then keep separate ones.
func TestNonMutatingConstructorsCacheState(t *testing.T) {
	s := testSeries(64).PrimeStats()

	c := s.Clone()
	if !c.statsOK {
		t.Fatal("Clone dropped the stats cache")
	}
	requireCacheFresh(t, "Clone", c)
	// Mutating the clone must not corrupt the parent and vice versa.
	c.AddInPlace(testSeries(64))
	requireCacheFresh(t, "Clone-parent", s)
}
