// Package rng provides deterministic pseudo-random number generation and the
// statistical distributions used throughout edgescope's simulators.
//
// Every simulation component in edgescope draws randomness through an
// *rng.Source seeded explicitly by the caller, so that every experiment,
// table, and figure regenerates byte-identically for a given seed. Sources
// can be forked into independent sub-streams (see Fork) so that adding draws
// in one component does not perturb another.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"edgescope/internal/mathx"
)

// Source is a deterministic random source with distribution helpers.
// It is not safe for concurrent use; fork one Source per goroutine.
//
// Internally the Source keeps both a *rand.Rand (for the algorithms this
// package does not re-implement: IntN, ExpFloat64, Perm, Zipf) and
// the concrete *rand.PCG generator behind it. The hot distribution helpers
// (Float64, Normal and everything built on them) draw straight from the
// PCG, skipping the rand.Rand Source-interface dispatch, with bit-identical
// results — both handles advance the one shared generator state, so scalar
// calls, bulk fills and rand.Rand-backed methods interleave freely on a
// single stream. TestFastPathsMatchRand pins the equivalence.
type Source struct {
	r   *rand.Rand
	pcg *rand.PCG
}

// New returns a Source seeded with the given seed. Two Sources built from the
// same seed produce identical streams.
func New(seed uint64) *Source {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Source{r: rand.New(pcg), pcg: pcg}
}

// Fork derives an independent sub-stream identified by name. The derived
// stream depends only on the parent seed stream position at the time of the
// call and the name, hashed with FNV-1a, so renaming or reordering unrelated
// forks does not change this stream.
func (s *Source) Fork(name string) *Source {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	pcg := rand.NewPCG(s.pcg.Uint64()^h, h)
	return &Source{r: rand.New(pcg), pcg: pcg}
}

// Snapshot is a Source's whole stream position: the 16-byte PCG state. A
// Source restored to it (Restore) draws exactly what the snapshotted Source
// drew next, so a deterministic output can be kept as its snapshot plus its
// parameters and replayed on demand instead of being held. A Snapshot is a
// value: restoring from it never changes it, and any number of goroutines
// may restore their own Sources from one snapshot at once.
type Snapshot struct{ hi, lo uint64 }

// Snapshot returns s's current stream position.
func (s *Source) Snapshot() Snapshot {
	var buf [20]byte // "pcg:" + big-endian hi, lo
	b, _ := s.pcg.AppendBinary(buf[:0])
	return Snapshot{hi: binary.BigEndian.Uint64(b[4:]), lo: binary.BigEndian.Uint64(b[12:])}
}

// Restore moves s to the stream position sn, without allocating. The next
// draws repeat, bit for bit, those of the Source sn was taken from.
func (s *Source) Restore(sn Snapshot) { s.pcg.Seed(sn.hi, sn.lo) }

// f64 is the concrete-generator uniform draw: the exact rand.Rand.Float64
// transform over the next PCG output, minus the Source-interface dispatch.
func (s *Source) f64() float64 { return float64(s.pcg.Uint64()<<11>>11) / (1 << 53) }

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.f64() }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// IntN returns a uniform value in [0,n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.f64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.f64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.norm()
}

// NormalPos returns a normal sample truncated below at zero. It is the
// workhorse for latency-like quantities that must be non-negative.
func (s *Source) NormalPos(mean, stddev float64) float64 {
	v := s.Normal(mean, stddev)
	if v < 0 {
		return 0
	}
	return v
}

// LogNormal returns a log-normally distributed value where mu and sigma are
// the mean and standard deviation of the underlying normal distribution.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return mathx.Exp(s.Normal(mu, sigma))
}

// Normals fills dst with normal draws, draw-for-draw and bit-for-bit
// identical to len(dst) sequential Normal(mean, stddev) calls on the same
// stream. The ziggurat fast path is inlined per element with the PCG handle
// hoisted out of the loop. The fill only fits a pure run of normals: the
// virtual-ping kernel cannot use it, for example, because each probe's loss
// draw interleaves with its RTT draws, and reordering draws would change
// every downstream bit.
func (s *Source) Normals(dst []float64, mean, stddev float64) {
	pcg := s.pcg
	for idx := range dst {
		var v float64
		for {
			u := pcg.Uint64()
			j := int32(u) // Possibly negative
			i := u >> 32 & 0x7F
			x := float64(j) * float64(wn[i])
			if absInt32(j) < kn[i] {
				v = x
				break
			}
			if y, ok := s.normSlow(j, i, x); ok {
				v = y
				break
			}
		}
		dst[idx] = mean + stddev*v
	}
}

// LogNormalMeanMedian returns a log-normal sample parameterised by its median
// and the sigma of the underlying normal. This parameterisation is convenient
// when calibrating to reported medians (as the paper reports medians).
func (s *Source) LogNormalMeanMedian(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * mathx.Exp(s.Normal(0, sigma))
}

// Exponential returns an exponentially distributed value with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed, minimum xm.
// It panics if xm <= 0 or alpha <= 0.
func (s *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("rng: invalid Pareto parameters xm=%v alpha=%v", xm, alpha))
	}
	u := 1 - s.f64() // (0,1]
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto(xm, alpha) sample truncated above at hi.
func (s *Source) BoundedPareto(xm, alpha, hi float64) float64 {
	v := s.Pareto(xm, alpha)
	if v > hi {
		return hi
	}
	return v
}

// Zipf draws integers in [0,n) following a Zipf distribution with exponent
// sExp >= 1. Lower indices are more probable, which edgescope uses for
// app-popularity and site-demand skew.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over [0,n) with exponent sExp (>1 strictly
// for rand.Zipf; pass 1.0001 for near-harmonic skew).
func NewZipf(s *Source, sExp float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: Zipf n must be positive")
	}
	return &Zipf{z: rand.NewZipf(s.r, sExp, 1, uint64(n-1))}
}

// Next returns the next Zipf-distributed index.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// Perm returns a pseudo-random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Choice returns a uniformly chosen index weighted by weights; weights must
// be non-negative and not all zero.
func (s *Source) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("rng: all weights zero")
	}
	target := s.f64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
