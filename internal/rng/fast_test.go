package rng

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refRand builds a plain math/rand/v2 Rand on the exact generator New(seed)
// uses, bypassing this package entirely — the reference the fast paths must
// match bit for bit.
func refRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// TestFastPathsMatchRand pins the concrete-PCG fast paths (f64, the ziggurat
// norm, and everything built on them) against the stdlib implementations on
// the same stream: any divergence would silently change every experiment
// output in the repo.
func TestFastPathsMatchRand(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		s := New(seed)
		ref := refRand(seed)
		for i := 0; i < 20000; i++ {
			switch i % 4 {
			case 0:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
				}
			case 1:
				if got, want := s.Normal(0, 1), ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: Normal(0,1) = %v, want %v", seed, i, got, want)
				}
			case 2:
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 = %v, want %v", seed, i, got, want)
				}
			case 3:
				// Tail-heavy sigma hits the ziggurat's slow paths too.
				if got, want := s.Normal(3, 10), 3+10*ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: Normal(3,10) = %v, want %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestFastAndRandShareOneStream pins that rand.Rand-backed methods (IntN,
// ExpFloat64, Shuffle) and the fast paths advance one shared generator: an
// interleaved tape equals the same tape drawn from the stdlib reference.
func TestFastAndRandShareOneStream(t *testing.T) {
	for seed := uint64(1); seed < 9; seed++ {
		s := New(seed)
		ref := refRand(seed)
		for i := 0; i < 5000; i++ {
			switch i % 5 {
			case 0:
				if got, want := s.IntN(97), ref.IntN(97); got != want {
					t.Fatalf("seed %d draw %d: IntN = %d, want %d", seed, i, got, want)
				}
			case 1:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
				}
			case 2:
				if got, want := s.Exponential(2), ref.ExpFloat64()*2; got != want {
					t.Fatalf("seed %d draw %d: Exponential = %v, want %v", seed, i, got, want)
				}
			case 3:
				if got, want := s.Normal(1, 2), 1+2*ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: Normal = %v, want %v", seed, i, got, want)
				}
			case 4:
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 = %v, want %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestBulkFillsMatchScalarDraws pins the bulk normal fill: filling a buffer
// equals the same number of scalar calls, and a fill leaves the stream
// positioned exactly where the scalar sequence would.
func TestBulkFillsMatchScalarDraws(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		for _, n := range []int{0, 1, 7, 1024} {
			// Normals: the fill must replay the exact scalar ziggurat
			// stream, including slow-path (base strip / wedge) draws,
			// which a 1024-element fill hits with near certainty.
			a, b := New(seed), New(seed)
			ns := make([]float64, n)
			a.Normals(ns, 1.5, 2.25)
			for i := range ns {
				if want := b.Normal(1.5, 2.25); math.Float64bits(ns[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d n %d: Normals[%d] = %v, want %v", seed, n, i, ns[i], want)
				}
			}
			if got, want := a.Normal(0, 1), b.Normal(0, 1); got != want {
				t.Fatalf("seed %d n %d: post-Normals stream diverged: %v vs %v", seed, n, got, want)
			}
		}
	}
}
