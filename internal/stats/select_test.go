package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// sortPercentile is the old copy-and-sort implementation, kept here as the
// reference the quickselect path must match bit for bit.
func sortPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func TestQuantileSelectMatchesSort(t *testing.T) {
	rnd := uint64(987654321)
	next := func() float64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return float64(rnd%1000000) / 1000
	}
	ps := []float64{0, 1, 5, 25, 50, 75, 90, 95, 99, 100}
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		n := 1 + trial*7
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = next()
			if trial%3 == 0 {
				xs[i] = math.Floor(xs[i] / 100) // heavy duplicates
			}
		}
		for _, p := range ps {
			want := sortPercentile(xs, p)
			if got := Percentile(xs, p); got != want {
				t.Fatalf("trial %d n=%d p=%v: Percentile=%v, sort-based=%v", trial, n, p, got, want)
			}
			if got := sc.Percentile(xs, p); got != want {
				t.Fatalf("trial %d n=%d p=%v: Scratch.Percentile=%v, sort-based=%v", trial, n, p, got, want)
			}
		}
	}
}

func TestScratchPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	var sc Scratch
	sc.Percentile(xs, 95)
	for i, want := range []float64{5, 1, 4, 2, 3} {
		if xs[i] != want {
			t.Fatalf("input mutated: %v", xs)
		}
	}
}

func TestScratchPercentileZeroAllocWhenWarm(t *testing.T) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64((i * 2654435761) % 100003)
	}
	var sc Scratch
	sc.Percentile(xs, 95) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		sc.Percentile(xs, 95)
	})
	if allocs != 0 {
		t.Fatalf("warm Scratch.Percentile allocates %.1f per run, want 0", allocs)
	}
}

func TestScratchPercentileEdgeCases(t *testing.T) {
	var sc Scratch
	if got := sc.Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := sc.Percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("single = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on p out of range")
		}
	}()
	sc.Percentile([]float64{1}, 101)
}

// TestScratchTailPercentileMatchesSort holds the tail path (long inputs,
// p >= 75) to the sort-based reference, bit for bit, on the input shapes
// it meets or could trip on: random, clamped at 95 (CPU series), heavy
// duplicates, constant, sorted both ways, and an adversary whose strided
// sample holds only the largest values, so the threshold overshoots and
// the full path answers.
func TestScratchTailPercentileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return r.Float64() * 100 }},
		{"clamped-95", func(int, int) float64 { return min(r.NormFloat64()*30+70, 95) }},
		{"duplicates", func(int, int) float64 { return float64(r.IntN(7)) }},
		{"constant", func(int, int) float64 { return 42 }},
		{"ascending", func(i, _ int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"adversary", func(i, n int) float64 {
			if i%(n/tailSample) == 0 {
				return 1000 + float64(i)
			}
			return r.Float64()
		}},
	}
	var sc Scratch
	for _, shape := range shapes {
		name, gen := shape.name, shape.gen
		for _, n := range []int{tailMinLen, 1500, 4096, 8064} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i, n)
			}
			for _, p := range []float64{75, 90, 95, 99, 100} {
				want := sortPercentile(xs, p)
				if got := sc.Percentile(xs, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d p=%v: Scratch.Percentile=%v, sort-based=%v", name, n, p, got, want)
				}
			}
		}
	}
}

// TestScratchTailPercentileDefersNaNAndZeros checks the two inputs the
// tail path hands back: one holding a NaN, and one whose answer is a zero
// from a mix of +0 and -0. Both must give today's full-copy select, bits
// and all.
func TestScratchTailPercentileDefersNaNAndZeros(t *testing.T) {
	full := func(xs []float64, p float64) float64 {
		return quantileSelect(append([]float64(nil), xs...), p)
	}
	r := rand.New(rand.NewPCG(7, 9))
	nan := make([]float64, 2048)
	zeros := make([]float64, 2048)
	for i := range nan {
		nan[i] = r.Float64()
		zeros[i] = math.Copysign(0, float64(r.IntN(2))-0.5)
	}
	nan[1777] = math.NaN()
	var sc Scratch
	for _, p := range []float64{75, 95, 100} {
		if got, want := sc.Percentile(nan, p), full(nan, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NaN input p=%v: %v, full path %v", p, got, want)
		}
		if got, want := sc.Percentile(zeros, p), full(zeros, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("±0 input p=%v: %x, full path %x", p, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
