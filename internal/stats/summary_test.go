package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*math.Max(m, 1)
}

// TestSummaryMatchesSliceFunctions checks every Summary accessor against the
// slice-at-a-time reference implementations on random data.
func TestSummaryMatchesSliceFunctions(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()*50 + 20
		}
		s := Summarize(xs)
		if s.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		if !almostEq(s.Mean(), Mean(xs)) {
			t.Fatalf("n=%d: Mean %v != %v", n, s.Mean(), Mean(xs))
		}
		if s.Min() != Min(xs) || s.Max() != Max(xs) {
			t.Fatalf("n=%d: Min/Max mismatch", n)
		}
		for _, p := range []float64{0, 5, 25, 50, 75, 90, 95, 99, 100} {
			if got, want := s.Percentile(p), Percentile(xs, p); !almostEq(got, want) {
				t.Fatalf("n=%d: P%v = %v, want %v", n, p, got, want)
			}
		}
		if !almostEq(s.Median(), Median(xs)) {
			t.Fatalf("n=%d: Median mismatch", n)
		}
		if got, want := s.Gap(0.01), GapRatio(xs, 0.01); !almostEq(got, want) {
			t.Fatalf("n=%d: Gap %v != %v", n, got, want)
		}
		for _, v := range []float64{xs[0], -1e9, 1e9, s.Median()} {
			if got, want := s.CDFAt(v), CDFAt(xs, v); !almostEq(got, want) {
				t.Fatalf("n=%d: CDFAt(%v) = %v, want %v", n, v, got, want)
			}
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Len() != 0 || s.Mean() != 0 {
		t.Fatal("empty summary moments not zero")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty Min/Max should be ±Inf like the slice functions")
	}
	if s.Percentile(50) != 0 || s.Median() != 0 || s.Gap(0.01) != 0 {
		t.Fatal("empty order statistics should be 0")
	}
	if s.CDFAt(1) != 0 {
		t.Fatal("empty CDF should be 0 everywhere")
	}
}

// TestSummarySingleElement pins the documented single-sample semantics:
// every percentile and location statistic is the sample itself.
func TestSummarySingleElement(t *testing.T) {
	s := Summarize([]float64{7.5})
	for _, p := range []float64{0, 5, 50, 95, 100} {
		if got := s.Percentile(p); got != 7.5 {
			t.Fatalf("single-element P%v = %v, want 7.5", p, got)
		}
	}
	if s.Mean() != 7.5 || s.Min() != 7.5 || s.Max() != 7.5 || s.Median() != 7.5 {
		t.Fatal("single-element location statistics should all equal the sample")
	}
}

// TestSummaryNoNaN sweeps the awkward inputs — empty, single, constant,
// zero-mean, huge-magnitude near-constant — and asserts no accessor ever
// returns NaN.
func TestSummaryNoNaN(t *testing.T) {
	cases := map[string][]float64{
		"empty":         nil,
		"single":        {3},
		"constant":      {5, 5, 5, 5},
		"zero-mean":     {-1, 1},
		"all-zero":      {0, 0, 0},
		"near-constant": {1e15, 1e15 + 1, 1e15, 1e15 + 1, 1e15},
	}
	for name, xs := range cases {
		s := Summarize(xs)
		for label, v := range map[string]float64{
			"Mean": s.Mean(), "Median": s.Median(),
			"P95": s.Percentile(95), "Gap": s.Gap(0.01), "CDFAt": s.CDFAt(1),
		} {
			if math.IsNaN(v) {
				t.Errorf("%s: %s is NaN", name, label)
			}
		}
	}
	// The package-level functions hold the same contract.
	for name, xs := range cases {
		for label, v := range map[string]float64{
			"Variance": Variance(xs), "StdDev": StdDev(xs), "CV": CV(xs),
			"Percentile": Percentile(xs, 95), "Median": Median(xs),
		} {
			if math.IsNaN(v) {
				t.Errorf("package %s: %s is NaN", name, label)
			}
		}
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeInPlaceSortsOwnedSlice(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := SummarizeInPlace(xs)
	if got := s.sorted; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatal("SummarizeInPlace did not sort")
	}
}

func TestSummaryPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize([]float64{1}).Percentile(101)
}

func TestSummaryPercentilesBatch(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	got := s.Percentiles(0, 50, 100)
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Percentiles = %v", got)
	}
}

func TestGapRatioSingleSortMatchesQuantiles(t *testing.T) {
	xs := []float64{10, 0.001, 5, 50, 2, 8, 90, 4, 6, 7}
	want := Percentile(xs, 95) / math.Max(Percentile(xs, 5), 0.01)
	if got := GapRatio(xs, 0.01); !almostEq(got, want) {
		t.Fatalf("GapRatio = %v, want %v", got, want)
	}
}
