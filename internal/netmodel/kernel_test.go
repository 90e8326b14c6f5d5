package netmodel

import (
	"testing"

	"edgescope/internal/rng"
)

// kernelSweep runs f over a grid of (seed, access, class, distance) paths —
// the sweep every batched-kernel equivalence test shares.
func kernelSweep(t *testing.T, f func(t *testing.T, seed uint64, access Access, class SiteClass, distKm float64)) {
	t.Helper()
	for seed := uint64(1); seed <= 5; seed++ {
		for _, access := range AllAccess() {
			for _, class := range []SiteClass{EdgeSite, CloudSite} {
				for _, dist := range []float64{0, 12, 180, 1400} {
					f(t, seed, access, class, dist)
				}
			}
		}
	}
}

// samePath builds the identical path twice from one seed so a scalar and a
// batched walk can be compared on independent but identical streams.
func samePath(seed uint64, access Access, class SiteClass, distKm float64) (*Path, *Path, *rng.Source, *rng.Source) {
	p1 := BuildPath(rng.New(seed), access, class, distKm)
	p2 := BuildPath(rng.New(seed), access, class, distKm)
	return p1, p2, rng.New(seed ^ 0xabcdef), rng.New(seed ^ 0xabcdef)
}

// TestSampleRTTsMatchesScalar pins the batched kernel's draw-order contract:
// SampleRTTs(dst) equals len(dst) sequential SampleRTT calls bit for bit,
// and leaves the stream at the same position.
func TestSampleRTTsMatchesScalar(t *testing.T) {
	kernelSweep(t, func(t *testing.T, seed uint64, access Access, class SiteClass, distKm float64) {
		p1, p2, r1, r2 := samePath(seed, access, class, distKm)
		const n = 64
		batch := make([]float64, n)
		p1.SampleRTTs(r1, batch)
		for i := 0; i < n; i++ {
			if want := p2.SampleRTT(r2); batch[i] != want {
				t.Fatalf("seed %d %v/%v %.0fkm: SampleRTTs[%d] = %v, scalar = %v",
					seed, access, class, distKm, i, batch[i], want)
			}
		}
		if got, want := r1.Uint64(), r2.Uint64(); got != want {
			t.Fatalf("seed %d %v/%v %.0fkm: stream position diverged after batch",
				seed, access, class, distKm)
		}
	})
}

// TestFusedSampleMatchesHopWalk pins the flattened kernel against the
// hop-walking fallback: a Path stripped of its kernel (a manual literal)
// must sample identically to the finalized original.
func TestFusedSampleMatchesHopWalk(t *testing.T) {
	kernelSweep(t, func(t *testing.T, seed uint64, access Access, class SiteClass, distKm float64) {
		fused := BuildPath(rng.New(seed), access, class, distKm)
		walk := &Path{
			Hops: fused.Hops, LossRate: fused.LossRate,
			extraJitterStd: fused.extraJitterStd, profile: fused.profile,
		}
		if walk.kern.base != nil {
			t.Fatal("literal path unexpectedly has a kernel")
		}
		if got, want := fused.BaseRTTMs(), walk.BaseRTTMs(); got != want {
			t.Fatalf("BaseRTTMs: fused %v, hop-walk %v", got, want)
		}
		r1, r2 := rng.New(seed+99), rng.New(seed+99)
		for i := 0; i < 64; i++ {
			if got, want := fused.SampleRTT(r1), walk.SampleRTT(r2); got != want {
				t.Fatalf("seed %d %v/%v %.0fkm sample %d: fused %v, hop-walk %v",
					seed, access, class, distKm, i, got, want)
			}
		}
	})
}

// TestSampleRTTsZeroAlloc pins that the batched kernel performs no
// allocation once the caller owns the buffer.
func TestSampleRTTsZeroAlloc(t *testing.T) {
	p := BuildPath(rng.New(3), WiFi, CloudSite, 800)
	r := rng.New(4)
	dst := make([]float64, 128)
	allocs := testing.AllocsPerRun(50, func() {
		p.SampleRTTs(r, dst)
	})
	if allocs != 0 {
		t.Fatalf("SampleRTTs allocs/op = %v, want 0", allocs)
	}
}
