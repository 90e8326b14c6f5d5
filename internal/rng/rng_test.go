package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	// Forking stream "a" then drawing must match forking "a" from an
	// identically positioned parent.
	p1, p2 := New(7), New(7)
	f1 := p1.Fork("a")
	f2 := p2.Fork("a")
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatalf("fork streams diverged at draw %d", i)
		}
	}
	// Different names give different streams.
	p3 := New(7)
	g := p3.Fork("b")
	h := New(7).Fork("a")
	diff := false
	for i := 0; i < 16; i++ {
		if g.Uint64() != h.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("forks with different names produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) = %v out of range", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(4)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			n++
		}
	}
	p := float64(n) / trials
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) empirical p = %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~2", std)
	}
}

func TestNormalPosNonNegative(t *testing.T) {
	s := New(6)
	for i := 0; i < 10000; i++ {
		if v := s.NormalPos(0.5, 3); v < 0 {
			t.Fatalf("NormalPos returned %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(7)
	const n = 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormalMeanMedian(20, 0.5)
	}
	// Median of samples should be close to 20.
	med := quickSelectMedian(vals)
	if math.Abs(med-20) > 1 {
		t.Fatalf("LogNormalMeanMedian median = %v, want ~20", med)
	}
}

func quickSelectMedian(v []float64) float64 {
	// simple sort-based median for test purposes
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[len(v)/2]
}

func TestParetoMinimum(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto(3,1.5) = %v below xm", v)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.BoundedPareto(1, 1.1, 50)
		if v < 1 || v > 50 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

func TestParetoPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Pareto(0, 1)
}

func TestZipfSkew(t *testing.T) {
	s := New(12)
	z := NewZipf(s, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestChoiceWeighted(t *testing.T) {
	s := New(13)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[s.Choice(w)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight item chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%v) did not panic", w)
				}
			}()
			New(1).Choice(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWithinBoundsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 {
			return true // avoid overflow in hi-lo; not a property we claim
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true
		}
		v := New(seed).Uniform(lo, hi)
		return v >= lo && v < hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoreContinuesStream: a Source restored to a snapshot draws
// exactly what the snapshotted Source drew next — through the PCG fast
// paths and the rand.Rand-backed helpers alike — and drawing from it
// changes neither the snapshot nor the Source it was taken from.
func TestSnapshotRestoreContinuesStream(t *testing.T) {
	orig := New(11)
	orig.Normal(0, 1) // move off the seed position
	sn := orig.Snapshot()
	draw := func(s *Source) []float64 {
		out := make([]float64, 64)
		s.Normals(out[:32], 3, 2)
		for i := 32; i < len(out); i++ {
			out[i] = s.Float64() + float64(s.IntN(1000)) + s.Exponential(1)
		}
		return out
	}

	replay := New(999)
	replay.Restore(sn)
	got := draw(replay)
	if orig.Snapshot() != sn {
		t.Fatal("drawing from the restored Source moved the original")
	}
	want := draw(orig)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("draw %d: restored %v, original %v", i, got[i], want[i])
		}
	}

	// The snapshot is a value: restoring from it again replays the same
	// draws, whatever the earlier replay did.
	again := New(0)
	again.Restore(sn)
	for i, v := range draw(again) {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("second replay draw %d: %v, want %v", i, v, want[i])
		}
	}
	if replay.Snapshot() == sn {
		t.Fatal("a Source that drew still reports the snapshot it was restored to")
	}
}
