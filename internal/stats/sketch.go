package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Sketch is a streaming quantile sketch in the t-digest family (Dunning's
// merging digest): it absorbs an unbounded stream of observations in bounded
// memory and answers quantile, CDF and count queries afterwards. Unlike
// Summary — which is exact but must hold every sample — a Sketch keeps at
// most O(compression) weighted centroids, so it is the right tool for the
// telemetry pipeline's per-window rollups where the stream never ends.
//
// Sketches are mergeable: Merge folds another sketch in with the same error
// bound as if the merged stream had been fed to a single sketch, which is
// what lets the ingest layer shard by dimension hash and the query layer
// recombine shards and time windows.
//
// # Error bound
//
// Centroid sizes follow the t-digest k₁ scale function k(q) =
// δ/(2π)·asin(2q−1): adjacent centroids are fused only while they span at
// most one unit of k, so a centroid covering quantile position q holds at
// most a 2π·√(q(1−q))/δ fraction of the stream and the total centroid count
// stays O(δ) regardless of stream length. The rank error of Quantile(q) —
// |CDF(Quantile(q)) − q| on the underlying data — is at most one centroid's
// half-width,
//
//	ε(q) ≤ π·√(q·(1−q))/δ
//
// plus the 1/(2n) discretisation floor of an n-sample empirical CDF. At the
// default compression 100 that is ≤ 1.6% rank error at the median, ≤ 0.7%
// at p95 and ≤ 0.32% at p99; accuracy is tightest in the tails, which is
// what the p95/p99 telemetry queries care about. RankErrorBound computes the
// bound; the replay cross-check test pins streaming campaign percentiles
// against the exact batch Summary at twice it (the bound is
// expectation-level; 2× absorbs unlucky centroid boundaries).
//
// # Memory
//
// A sketch holds its centroids — 16 bytes each, a mean and a weight — and
// the points buffered since its last flush: fewer than 4δ from Add, fewer
// than 8δ after Absorb. While every buffered point has weight 1 (all Add
// gives) a buffered point costs 8 bytes, its mean alone; once a point of
// another weight is buffered, the buffer holds (mean, weight) pairs, 16
// bytes a point, until the next flush empties it. Appends leave spare
// capacity behind them; Footprint reports the bytes the lists hold by
// capacity, and Trim releases the spare room once no more points are
// expected, changing no answer and no encoding. Seal also flushes a buffer
// of δ or more points first: that changes the encoding, but not the flushed
// form a fold reads (AbsorbFlushed).
//
// A Sketch is not safe for concurrent use; the telemetry ingest layer gives
// each shard a single writer and locks rollups during query merges.
type Sketch struct {
	compression float64
	centroids   []Centroid // sorted by Mean after flush
	// The points buffered since the last flush, in arrival order, are in
	// one of two lists, the other empty: buf holds their means while every
	// one weighs 1, pairs holds them whole once one does not (weigh moves
	// buf's points there).
	buf      []float64
	pairs    []Centroid
	count    float64
	min, max float64
}

// Centroid is one weighted point of a sketch.
type Centroid struct {
	Mean   float64
	Weight float64
}

// DefaultCompression balances memory (≤ ~2·δ centroids ≈ a few KB) against
// the documented error bound; it is the δ the telemetry pipeline uses unless
// configured otherwise.
const DefaultCompression = 100

// NewSketch returns an empty sketch with the given compression δ (minimum
// 20; pass DefaultCompression when in doubt). Higher δ means more centroids
// and proportionally tighter quantile error.
func NewSketch(compression float64) *Sketch {
	if compression < 20 {
		compression = 20
	}
	return &Sketch{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add absorbs one observation. NaN and ±Inf are rejected with an error (a
// telemetry stream must not poison a whole window's rollup).
func (sk *Sketch) Add(x float64) error {
	return sk.AddWeighted(x, 1)
}

// AddWeighted absorbs an observation with weight w > 0.
func (sk *Sketch) AddWeighted(x, w float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("stats: sketch rejects non-finite value %v", x)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("stats: sketch rejects weight %v", w)
	}
	if w != 1 || len(sk.pairs) > 0 {
		sk.weigh()
		sk.pairs = append(sk.pairs, Centroid{Mean: x, Weight: w})
	} else {
		sk.buf = append(sk.buf, x)
	}
	sk.count += w
	if x < sk.min {
		sk.min = x
	}
	if x > sk.max {
		sk.max = x
	}
	if sk.buffered() >= 4*int(sk.compression) {
		sk.flush()
	}
	return nil
}

// Merge folds other into sk and compacts at once. other is unchanged (its
// buffered points are copied, not stolen). Merging preserves the error
// bound: the result is equivalent to a single sketch that saw both streams.
func (sk *Sketch) Merge(other *Sketch) {
	sk.Absorb(other)
	sk.flush()
}

// Absorb folds other into sk like Merge but defers compaction: other's
// centroids and buffered points are only appended to the buffer, and flush
// runs when the buffer crosses 8δ points. Absorbing k sketches therefore
// costs one flush — a linear-time radix sort and one scale-function limit
// per output centroid — per ~8δ absorbed points instead of one per sketch,
// which is what the telemetry query layer wants when merging many window
// rollups into one answer. other is unchanged.
func (sk *Sketch) Absorb(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	sk.pushCentroids(other.centroids)
	if len(other.pairs) > 0 {
		sk.pushCentroids(other.pairs)
	} else if len(sk.pairs) > 0 {
		sk.pairs = appendUnit(sk.pairs, other.buf)
	} else {
		sk.buf = append(sk.buf, other.buf...)
	}
	sk.absorbed(other.count, other.min, other.max)
}

// AppendPoints appends the sketch's points to dst — centroids, then buffered
// points, the order Absorb folds them in — and returns the extended slice.
// With Count, Min and Max it is a sketch's whole state in a form a caller
// can copy out and fold in its flushed form (AbsorbFlushed) without a Clone
// or a flush of the sketch itself.
func (sk *Sketch) AppendPoints(dst []Centroid) []Centroid {
	return sk.appendBuffered(append(dst, sk.centroids...))
}

// buffered is the number of points buffered since the last flush.
func (sk *Sketch) buffered() int { return len(sk.buf) + len(sk.pairs) }

// weigh readies the buffer for a point of any weight: buf's points move to
// pairs, as (mean, 1).
func (sk *Sketch) weigh() {
	if len(sk.buf) > 0 {
		sk.pairs = appendUnit(sk.pairs, sk.buf)
		sk.buf = sk.buf[:0]
	}
}

// appendUnit appends the points with the given means, each of weight 1.
func appendUnit(dst []Centroid, means []float64) []Centroid {
	dst = slices.Grow(dst, len(means))
	for _, m := range means {
		dst = append(dst, Centroid{Mean: m, Weight: 1})
	}
	return dst
}

// appendBuffered appends the buffered points to dst, in arrival order.
func (sk *Sketch) appendBuffered(dst []Centroid) []Centroid {
	return append(appendUnit(dst, sk.buf), sk.pairs...)
}

// pushCentroids buffers pts in order: as means while every one of them
// and every point buffered so far weighs 1, else as pairs.
func (sk *Sketch) pushCentroids(pts []Centroid) {
	if len(sk.pairs) == 0 && unitWeights(pts) {
		sk.buf = slices.Grow(sk.buf, len(pts))
		for _, c := range pts {
			sk.buf = append(sk.buf, c.Mean)
		}
		return
	}
	sk.weigh()
	sk.pairs = append(sk.pairs, pts...)
}

// unitWeights reports whether every point of pts weighs 1.
func unitWeights(pts []Centroid) bool {
	for _, c := range pts {
		if c.Weight != 1 {
			return false
		}
	}
	return true
}

// AbsorbFlushed folds in one sketch's flushed form: the points, count and
// range copied out by AppendPoints, Count, Min and Max of a sketch at
// compression δ are put through that sketch's own flush — the canonical sort
// and fuse at its count and δ — and the centroids it yields are absorbed as
// Absorb absorbs a sketch's points. The result is bit-identical to Absorb of
// the source after its Centroids call, without touching the source. pts is
// used as scratch: its order is not kept.
func (sk *Sketch) AbsorbFlushed(pts []Centroid, count, min, max, compression float64) {
	if count == 0 {
		return
	}
	s := flushPool.Get().(*flushScratch)
	if cap(s.tmp) < len(pts) {
		s.tmp = make([]Centroid, len(pts))
	}
	sorted := sortCanonical(pts, s.tmp[:len(pts)])
	s.pts, _ = fuseCanonical(s.pts[:0], sorted, count, compression)
	sk.pushCentroids(s.pts)
	flushPool.Put(s)
	sk.absorbed(count, min, max)
}

// Flushed reports whether the points AppendPoints gives are already the
// multiset a flush would leave, so a fold may absorb them as they are
// instead of their flushed form and get the same bytes (a flush is a
// function of the multiset alone). That holds with nothing buffered, and for
// a sketch of only unit-weight buffered points, fewer than 2δ/π of them: k₁'s
// slope is at least δ/π everywhere, so two points spanning 2/count of the
// quantile range span more than one unit of k and never fuse. The bound
// keeps a 1e-9 margin against the flush's rounding (63 points at δ = 100).
func (sk *Sketch) Flushed() bool {
	if sk.buffered() == 0 {
		return true
	}
	return len(sk.centroids) == 0 && len(sk.pairs) == 0 &&
		sk.count == float64(len(sk.buf)) && sk.count*math.Pi < 2*sk.compression*(1-1e-9)
}

// Seal compacts a sketch that expects few more points: it flushes once δ or
// more points are buffered — below that the raw points take fewer bytes than
// their centroids would — and then releases spare capacity (Trim). The
// flushed form is what a fold of the sketch reads anyway (AbsorbFlushed), so
// until another point arrives a sealed sketch folds to the same bytes as its
// unsealed twin. It reports whether it flushed.
func (sk *Sketch) Seal() bool {
	flushed := sk.buffered() >= int(sk.compression)
	if flushed {
		sk.flush()
	}
	sk.Trim()
	return flushed
}

// Compression is the sketch's δ.
func (sk *Sketch) Compression() float64 { return sk.compression }

// Reset empties the sketch, keeping its compression and the capacity of its
// point lists, so one sketch can fold many independent streams in turn
// without allocating a fresh 8δ buffer for each.
func (sk *Sketch) Reset() {
	sk.centroids, sk.buf, sk.pairs = sk.centroids[:0], sk.buf[:0], sk.pairs[:0]
	sk.count, sk.min, sk.max = 0, math.Inf(1), math.Inf(-1)
}

// trimSlack is the spare room, in bytes, Trim leaves in place: releasing
// it would cost an allocation and a copy per list for less than a cache
// line, and a closed window's sparse rollups hold about that much.
const trimSlack = 64

// Trim releases the spare capacity of the sketch's point lists: each moves
// into an array of its exact length, and buffered pairs that all weigh 1
// go back to means. Content, Count, Min and Max are untouched, so every
// answer and encoding is bit-identical. A trimmed sketch still accepts
// points; the next append regrows the buffer alone. A sketch with at most
// trimSlack bytes to release is left alone without allocating. The
// telemetry ingest calls it on a window's rollups once the window has
// closed: a closed window gains nothing from room to buffer more points.
func (sk *Sketch) Trim() {
	unweigh := len(sk.pairs) > 0 && unitWeights(sk.pairs)
	spare := 16*(cap(sk.centroids)-len(sk.centroids)+cap(sk.pairs)-len(sk.pairs)) + 8*(cap(sk.buf)-len(sk.buf))
	if unweigh {
		spare += 8 * len(sk.pairs)
	}
	if spare <= trimSlack {
		return
	}
	sk.centroids = exactCopy(sk.centroids)
	if unweigh {
		sk.buf = make([]float64, len(sk.pairs))
		for i, c := range sk.pairs {
			sk.buf[i] = c.Mean
		}
		sk.pairs = nil
		return
	}
	sk.buf, sk.pairs = exactCopy(sk.buf), exactCopy(sk.pairs)
}

// exactCopy is a copy of s in an array of its length, nil when s is empty.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Footprint is the bytes the sketch's point lists hold, by capacity: what a
// retained sketch costs beyond its fixed header. After Trim it is 16 bytes
// a centroid and 8 a buffered point — 16 while a buffered point of a
// weight other than 1 is among them.
func (sk *Sketch) Footprint() int {
	return 16*(cap(sk.centroids)+cap(sk.pairs)) + 8*cap(sk.buf)
}

// absorbed is the one tail every fold of a whole sketch shares (Merge,
// Absorb, AbsorbFlushed, AbsorbBinary), run after the sketch's points are
// appended to buf: account for its count and range, and compact once 8δ
// points are buffered.
func (sk *Sketch) absorbed(count, min, max float64) {
	sk.count += count
	if min < sk.min {
		sk.min = min
	}
	if max > sk.max {
		sk.max = max
	}
	if sk.buffered() >= 8*int(sk.compression) {
		sk.flush()
	}
}

// Clone returns an independent copy of the sketch.
func (sk *Sketch) Clone() *Sketch {
	c := *sk
	c.centroids, c.buf, c.pairs = exactCopy(sk.centroids), exactCopy(sk.buf), exactCopy(sk.pairs)
	return &c
}

// flushScratch is the working memory of one flush: the points being sorted
// and the radix sort's second buffer. It is pooled, not a Sketch field — a
// telemetry node holds tens of thousands of rollups and at most a few of
// them are flushing at any moment.
type flushScratch struct {
	pts, tmp []Centroid
}

var flushPool = sync.Pool{New: func() any { return new(flushScratch) }}

// flush merges buffered points into the centroid list, enforcing the
// q(1-q) size limit. It is the only place centroids are created or fused,
// so the memory bound and the error bound both live here.
//
// The result is a pure function of the multiset of points (centroids and
// buffer together), count and δ: the points are put in canonical order
// (sortCanonical) and fused left to right (fuseCanonical), so neither the
// sort algorithm nor the arrival order inside one flush can show in the
// output. flushReference in sketch_flush_test.go defines that function;
// this kernel must equal it bit for bit.
func (sk *Sketch) flush() {
	if sk.buffered() == 0 {
		return
	}
	s := flushPool.Get().(*flushScratch)
	s.pts = sk.appendBuffered(append(s.pts[:0], sk.centroids...))
	if cap(s.tmp) < len(s.pts) {
		s.tmp = make([]Centroid, cap(s.pts)) // grows with pts, amortised by its append
	}
	sk.buf, sk.pairs = sk.buf[:0], sk.pairs[:0]
	sorted := sortCanonical(s.pts, s.tmp[:len(s.pts)])
	sk.centroids, _ = fuseCanonical(sk.centroids[:0], sorted, sk.count, sk.compression)
	flushPool.Put(s)
}

// meanKey maps a mean to the integer whose unsigned order is IEEE-754
// totalOrder on the float: negative values have every bit inverted,
// non-negative ones the sign bit set, so −0 sorts just below +0.
func meanKey(mean float64) uint64 {
	b := math.Float64bits(mean)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortCanonical puts pts in the canonical point order — totalOrder(Mean),
// then Weight; any remaining tie is a bit-identical pair — and returns
// whichever of pts and tmp (same length) holds the result. The means are
// sorted by a stable LSD radix sort on meanKey, one byte per pass, skipping
// every pass whose byte is the same in all keys (the sign and exponent
// bytes of a typical metric); runs of equal means are then ordered by
// weight.
func sortCanonical(pts, tmp []Centroid) []Centroid {
	var hist [8][256]uint32
	for i := range pts {
		k := meanKey(pts[i].Mean)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	first := meanKey(pts[0].Mean)
	src, dst := pts, tmp
	for d := range hist {
		h, shift := &hist[d], 8*d
		if h[byte(first>>shift)] == uint32(len(pts)) {
			continue
		}
		at := uint32(0)
		for b, n := range h {
			h[b], at = at, at+n
		}
		for _, c := range src {
			b := byte(meanKey(c.Mean) >> shift)
			dst[h[b]] = c
			h[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j, bits := i+1, math.Float64bits(src[i].Mean)
		for j < len(src) && math.Float64bits(src[j].Mean) == bits {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(a, b Centroid) int { return cmp.Compare(a.Weight, b.Weight) })
		}
		i = j
	}
	return src
}

// kScale is the t-digest k₁ scale function k(q) = δ/(2π)·asin(2q−1), with q
// clamped to [0,1]. The conversion pins the product's rounding so no
// platform may fuse it into the caller's subtraction.
func kScale(compression, q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return float64(compression / (2 * math.Pi) * math.Asin(2*q-1))
}

// fuseGuard is the half-width, in q, of the band around a centroid's limit
// inside which fuseCanonical decides by the exact scale-function test.
//
// The exact test fuses at q iff fl(kScale(q) − kLeft) ≤ 1. Every rounding
// in it is equivalent to moving q by a few 1e-16: forming 2q−1 and
// 1−(2q−1)² inside Asin each perturb q by ≤ 6e-17 whatever the distance to
// the tails; Asin's arctangent (≤ 2 ulp) and its π/2 reflection, the δ/2π
// factor and the final subtraction are each an absolute error ≤ 1e-15 in
// the angle φ = asin(2q−1), and dq/dφ = cos(φ)/2 ≤ ½. The limit
// (sin((kLeft+1)·2π/δ)+1)/2 carries ≤ 1e-15 of its own from its argument
// and Sin. So outside |q − limit| ≤ 5e-15 the exact test and the comparison
// against the limit must agree; 1e-9 leaves five orders of magnitude for
// a libm less careful than this analysis, and costs nothing — a q lands
// inside the band about once per 10⁸ points, plus once at the end of each
// flush where the limit and the last q are both 1.
const fuseGuard = 1e-9

// fuseCanonical appends to dst the centroids that pts, in canonical order,
// fuse into under the k₁ scale: neighbours are fused while the combined
// centroid spans at most one unit of kScale. Where the reference asks
// kScale(q) − kLeft ≤ 1 of every point, this kernel inverts the question
// once per output centroid — q ≤ (sin((kLeft+1)·2π/δ)+1)/2, and no limit at
// all once kLeft+1 reaches k(1) = δ/4 — and falls back to the exact test
// only inside fuseGuard of the limit, so every decision is the reference's.
// It also returns how many decisions took the exact test. dst must not
// alias pts.
func fuseCanonical(dst, pts []Centroid, count, compression float64) (_ []Centroid, exact int) {
	limit := func(kLeft float64) float64 {
		if kLeft+1 >= compression/4 {
			return 1
		}
		return (math.Sin((kLeft+1)*(2*math.Pi/compression)) + 1) / 2
	}
	last := pts[0]
	wSoFar := 0.0
	kLeft := kScale(compression, 0)
	qLimit := limit(kLeft)
	for _, c := range pts[1:] {
		proposed := last.Weight + c.Weight
		q := (wSoFar + proposed) / count
		// A NaN q or limit fails both comparisons and takes the exact test.
		fuse := q < qLimit-fuseGuard
		if !fuse && !(q > qLimit+fuseGuard) {
			exact++
			fuse = kScale(compression, q)-kLeft <= 1
		}
		if fuse {
			last.Mean = fuseMean(last.Mean, c.Mean, c.Weight, proposed)
			last.Weight = proposed
			continue
		}
		dst = append(dst, last)
		wSoFar += last.Weight
		kLeft = kScale(compression, wSoFar/count)
		qLimit = limit(kLeft)
		last = c
	}
	return append(dst, last), exact
}

// fuseMean is the mean of a centroid at a fused with one of weight wb at
// b ≥ a, total weight proposed: a + (b−a)·wb/proposed, exact for the
// combined mass. Where that overflows — a span or a weighted span past
// float64's range, which finite points far apart can reach — the same step
// is taken in an order that cannot: the weight's share first, or, for a
// span itself past the range (a and b of opposite signs), as a weighted
// sum. A fused mean thus stays finite and inside [a, b].
func fuseMean(a, b, wb, proposed float64) float64 {
	if step := (b - a) * wb / proposed; step <= math.MaxFloat64 {
		return a + step
	}
	share := wb / proposed
	if span := b - a; span <= math.MaxFloat64 {
		return a + span*share
	}
	return float64(a*(1-share)) + float64(b*share)
}

// Count returns the total absorbed weight.
func (sk *Sketch) Count() float64 { return sk.count }

// Min returns the smallest absorbed value, +Inf when empty (matching Min and
// Summary.Min).
func (sk *Sketch) Min() float64 { return sk.min }

// Max returns the largest absorbed value, -Inf when empty.
func (sk *Sketch) Max() float64 { return sk.max }

// Centroids returns the sketch's current centroid list, flushing buffered
// points first. The caller must not modify the returned slice.
func (sk *Sketch) Centroids() []Centroid {
	sk.flush()
	return sk.centroids
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]), 0 for an
// empty sketch (matching Percentile on an empty slice). It panics on q
// outside [0,1].
func (sk *Sketch) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: sketch quantile out of range")
	}
	sk.flush()
	if sk.count == 0 {
		return 0
	}
	if len(sk.centroids) == 1 {
		return sk.centroids[0].Mean
	}
	if q == 0 {
		return sk.min
	}
	if q == 1 {
		return sk.max
	}
	target := q * sk.count
	// Walk centroids treating each as its mass centred on its mean.
	wSoFar := 0.0
	for i, c := range sk.centroids {
		if wSoFar+c.Weight/2 >= target {
			if i == 0 {
				// Interpolate from the true minimum into the first centroid.
				frac := target / (c.Weight / 2)
				return sk.min + frac*(c.Mean-sk.min)
			}
			prev := sk.centroids[i-1]
			lo := wSoFar - prev.Weight/2
			span := prev.Weight/2 + c.Weight/2
			frac := (target - lo) / span
			return prev.Mean + frac*(c.Mean-prev.Mean)
		}
		wSoFar += c.Weight
	}
	last := sk.centroids[len(sk.centroids)-1]
	lo := sk.count - last.Weight/2
	if target <= lo {
		return last.Mean
	}
	frac := (target - lo) / (last.Weight / 2)
	if frac > 1 {
		frac = 1
	}
	return last.Mean + frac*(sk.max-last.Mean)
}

// CDFAt estimates the fraction of absorbed values <= v, 0 for an empty
// sketch.
func (sk *Sketch) CDFAt(v float64) float64 {
	sk.flush()
	if sk.count == 0 {
		return 0
	}
	if v < sk.min {
		return 0
	}
	if v >= sk.max {
		return 1
	}
	wSoFar := 0.0
	prevMean, prevHalf := sk.min, 0.0
	for _, c := range sk.centroids {
		if v < c.Mean {
			span := c.Mean - prevMean
			frac := 0.0
			if span > 0 {
				frac = (v - prevMean) / span
			}
			return (wSoFar - prevHalf + frac*(prevHalf+c.Weight/2)) / sk.count
		}
		wSoFar += c.Weight
		prevMean, prevHalf = c.Mean, c.Weight/2
	}
	frac := 0.0
	if span := sk.max - prevMean; span > 0 {
		frac = (v - prevMean) / span
	}
	p := (wSoFar - prevHalf + frac*prevHalf) / sk.count
	if p > 1 {
		p = 1
	}
	return p
}

// RankErrorBound returns the documented worst-case rank error of Quantile(q)
// for this sketch's compression and current count: π·√(q(1−q))/δ plus the
// 1/(2n) empirical-CDF discretisation floor. Tests and the telemetry query
// layer use it to report how much a streaming percentile may deviate from
// the exact batch answer.
func (sk *Sketch) RankErrorBound(q float64) float64 {
	eps := math.Pi * math.Sqrt(q*(1-q)) / sk.compression
	if sk.count > 0 {
		eps += 1 / (2 * sk.count)
	}
	return eps
}
