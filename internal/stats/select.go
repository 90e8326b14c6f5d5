package stats

import "math"

// This file implements selection-based percentiles. Percentile queries used
// to copy and fully sort their input on every call — on the hot analysis
// paths (one P95 per VM CPU series in Figure 10, one P95 per resample
// window) that cost dominated both time and allocations. quantileSelect
// computes the same interpolated order statistics with an iterative
// quickselect (expected O(n), no further allocation), and Scratch gives
// callers a reusable copy buffer so a whole walk performs zero per-call
// allocations after warm-up.

// A Scratch percentile of a long input at a high p reads the top of the
// input only: see tailPercentile.
const (
	tailMinLen = 1024 // shortest input the tail path takes
	tailMinP   = 75   // lowest percentile the tail path takes
	tailSample = 256  // strided sample the threshold comes from
)

// Scratch is a reusable buffer for percentile queries. The zero value is
// ready to use; the buffer grows to the largest input seen and is reused
// across calls, so a loop of Percentile calls allocates only on the first
// (or largest) input. A Scratch is not safe for concurrent use — give each
// goroutine its own.
type Scratch struct {
	buf []float64
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs with linear
// interpolation between closest ranks — the same result, bit for bit, as the
// package-level Percentile — without allocating once the internal buffer has
// grown to len(xs). xs is not modified.
func (sc *Scratch) Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	if len(xs) == 0 {
		return 0
	}
	if len(xs) >= tailMinLen && p >= tailMinP {
		if v, ok := sc.tailPercentile(xs, p); ok {
			return v
		}
	}
	sc.buf = append(sc.buf[:0], xs...)
	return quantileSelect(sc.buf, p)
}

// tailPercentile answers a high percentile from the elements at or above a
// threshold t instead of from a copy of all of xs. t is an order statistic
// of a strided sample of tailSample elements, taken about four standard
// deviations of the sample's rank below the rank that estimates the
// answer, so nearly always at or below it. With c elements below t and c no
// more than the floor rank lo, the kept elements are the sorted input's
// ranks c..n-1, so ranks lo and lo+1 are the kept ranks lo-c and lo-c+1:
// the same order statistics, and since equal non-zero floats have the same
// bits, the same result as quantileSelect. ok is false, and the caller
// takes the full path, when t overshoots (c > lo), when xs holds a NaN
// (which quantileSelect places by position, not by value), and when an
// answer is a zero (whose sign depends on where the select leaves ±0).
func (sc *Scratch) tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	lo, frac := rankOf(n, p)
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	buf := sc.buf[:n]
	sample, step := buf[:tailSample], n/tailSample
	for i := range sample {
		sample[i] = xs[i*step]
	}
	q := float64(lo) / float64(n)
	margin := int(4*math.Sqrt(tailSample*q*(1-q))) + 2
	t := selectKth(sample, max(lo*tailSample/n-margin, 0))
	kept := 0
	for _, x := range xs {
		if x >= t {
			buf[kept] = x
			kept++
		} else if x != x {
			return 0, false
		}
	}
	below := n - kept
	if below > lo {
		return 0, false
	}
	v, w := selectPair(buf[:kept], lo-below, frac != 0)
	if v == 0 || w == 0 {
		return 0, false
	}
	return lerp(v, w, frac), true
}

// quantileSelect returns the interpolated p-th percentile of s, partially
// reordering s in place. The result is identical to sorting s and applying
// percentileSorted: both interpolate between the floor- and ceil-rank order
// statistics, and order statistics do not depend on how the rest of the
// slice is arranged.
func quantileSelect(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	lo, frac := rankOf(n, p)
	v, w := selectPair(s, lo, frac != 0)
	return lerp(v, w, frac)
}

// rankOf splits the p-th percentile's rank among n sorted elements into its
// floor rank lo and the fraction frac of the way to lo+1.
func rankOf(n int, p float64) (lo int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	return lo, rank - float64(lo)
}

// selectPair returns the k-th smallest element of s and, when next is set,
// the (k+1)-th (w is v otherwise), partially reordering s in place.
func selectPair(s []float64, k int, next bool) (v, w float64) {
	v = selectKth(s, k)
	if !next {
		return v, v
	}
	// The (k+1)-th is the minimum of everything right of k: selectKth left
	// s partitioned with s[k+1:] all >= s[k].
	w = s[k+1]
	for _, x := range s[k+2:] {
		if x < w {
			w = x
		}
	}
	return v, w
}

// lerp interpolates frac of the way from the floor-rank statistic v to the
// ceil-rank statistic w.
func lerp(v, w, frac float64) float64 {
	if frac == 0 {
		return v
	}
	return v*(1-frac) + w*frac
}

// selectKth places the k-th smallest element of s at index k (classic
// quickselect, Hoare partition, median-of-three pivot — deterministic, no
// randomness) and returns it. Elements left of k end up <=, right of k >=.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
