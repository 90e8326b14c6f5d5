package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasics(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("Variance of singleton != 0")
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, std 2
	if got := CV(xs); !almost(got, 0.4, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", got)
	}
	if CV([]float64{0, 0}) != 0 {
		t.Fatal("CV with zero mean should be 0")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Fatal("Percentile of singleton")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64, a, b uint8) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-9+1e-12*math.Abs(v2)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64, p uint8) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		v := Percentile(xs, float64(p%101))
		span := 1e-9 + 1e-12*(math.Abs(Min(xs))+math.Abs(Max(xs)))
		return v >= Min(xs)-span && v <= Max(xs)+span
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// sanitize drops NaN/Inf and clamps magnitudes so intermediate products in
// the statistics under test cannot overflow float64.
func sanitize(raw []float64) []float64 {
	var xs []float64
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > 1e9 {
			v = 1e9
		}
		if v < -1e9 {
			v = -1e9
		}
		xs = append(xs, v)
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v", got)
	}
}

func TestGapRatio(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100; P5≈5.95, P95≈95.05
	}
	g := GapRatio(xs, 0.01)
	if g < 14 || g > 18 {
		t.Fatalf("GapRatio = %v, want ~16", g)
	}
	if GapRatio(nil, 1) != 0 {
		t.Fatal("GapRatio(nil) != 0")
	}
	// All-zero input with a floor stays finite.
	if g := GapRatio([]float64{0, 0, 0}, 0.5); g != 0 {
		t.Fatalf("GapRatio zeros = %v, want 0", g)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with constant xs = %v", got)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 4 {
			return true
		}
		n := len(xs) / 2
		a, b := xs[:n], xs[n:2*n]
		r := Pearson(a, b)
		return r >= -1-1e-9 && r <= 1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 3}
	if RMSE(pred, truth) != 0 {
		t.Fatal("zero-error case")
	}
	p2 := []float64{2, 3, 4}
	if got := RMSE(p2, truth); !almost(got, 1, 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
}

func TestCDFShape(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF size = %d", len(pts))
	}
	if pts[0].X != 1 || pts[2].X != 3 {
		t.Fatal("CDF not sorted by X")
	}
	if !almost(pts[2].P, 1, 1e-12) {
		t.Fatalf("last CDF P = %v", pts[2].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P <= pts[i-1].P {
			t.Fatal("CDF probabilities not increasing")
		}
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) != nil")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Fatalf("CDFAt = %v", got)
	}
	if CDFAt(nil, 1) != 0 {
		t.Fatal("CDFAt(nil) != 0")
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{2, 4, 8}
	n := Normalize(xs, 0.1)
	want := []float64{1, 2, 4}
	for i := range want {
		if !almost(n[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v", n)
		}
	}
	// Zero minimum clamps to floor.
	n2 := Normalize([]float64{0, 5}, 0.5)
	if !almost(n2[1], 10, 1e-12) {
		t.Fatalf("Normalize with floor = %v", n2)
	}
}

func TestPercentilesSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	sort.Float64s(xs)
	got := PercentilesSorted(xs, 0, 50, 100)
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("PercentilesSorted = %v", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 9 {
		t.Fatal("Min/Max/Sum wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max sentinels wrong")
	}
}
