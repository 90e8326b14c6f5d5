package stats

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"edgescope/internal/rng"
)

// canonicalCompare spells the canonical point order without meanKey:
// totalOrder(Mean) — numeric order, −0 before +0; NaN never reaches a
// sketch — then Weight.
func canonicalCompare(a, b Centroid) int {
	if a.Mean != b.Mean {
		return cmp.Compare(a.Mean, b.Mean)
	}
	if sa, sb := math.Signbit(a.Mean), math.Signbit(b.Mean); sa != sb {
		if sa {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Weight, b.Weight)
}

// refSketch is the reference every Sketch is pinned against: each point,
// buffered or compacted, a Centroid — the layout Sketch had before a
// unit-weight buffered point was kept as its mean alone — with
// flushReference as its flush. Its bytes (appendBinary) are the format's
// definition.
type refSketch struct {
	compression     float64
	centroids, buf  []Centroid
	count, min, max float64
}

func newRefSketch(compression float64) *refSketch {
	return &refSketch{compression: NewSketch(compression).compression, min: math.Inf(1), max: math.Inf(-1)}
}

// flushReference DEFINES flush: every point in canonical order under a
// comparison sort, then the scale-function test, two asin, asked of every
// point. It is the pre-PR-17 flush body with the sort key completed to a
// total order; the kernel in sketch.go must produce the same bytes.
func (sk *refSketch) flushReference() {
	if len(sk.buf) == 0 {
		return
	}
	all := append(append([]Centroid(nil), sk.centroids...), sk.buf...)
	sk.buf = sk.buf[:0]
	slices.SortFunc(all, canonicalCompare)

	merged := all[:1]
	wSoFar := 0.0
	kLeft := kScale(sk.compression, 0)
	for _, c := range all[1:] {
		last := &merged[len(merged)-1]
		proposed := last.Weight + c.Weight
		if kScale(sk.compression, (wSoFar+proposed)/sk.count)-kLeft <= 1 {
			switch share := c.Weight / proposed; {
			case (c.Mean-last.Mean)*c.Weight/proposed <= math.MaxFloat64:
				last.Mean += (c.Mean - last.Mean) * c.Weight / proposed
			case c.Mean-last.Mean <= math.MaxFloat64:
				last.Mean += (c.Mean - last.Mean) * share
			default:
				last.Mean = float64(last.Mean*(1-share)) + float64(c.Mean*share)
			}
			last.Weight = proposed
			continue
		}
		wSoFar += last.Weight
		kLeft = kScale(sk.compression, wSoFar/sk.count)
		merged = append(merged, c)
	}
	sk.centroids = append(sk.centroids[:0], merged...)
}

// addWeighted and absorb (through absorbPoints) are AddWeighted and Absorb
// over flushReference, thresholds included (4δ on add, 8δ on
// absorb), so a reference sketch driven beside a real one also pins where
// flushes fall.
func (sk *refSketch) addWeighted(x, w float64) {
	sk.buf = append(sk.buf, Centroid{Mean: x, Weight: w})
	sk.count += w
	sk.widen(x, x)
	if len(sk.buf) >= 4*int(sk.compression) {
		sk.flushReference()
	}
}

func (sk *refSketch) absorbPoints(pts []Centroid, count, min, max float64) {
	if count == 0 {
		return
	}
	sk.buf = append(sk.buf, pts...)
	sk.count += count
	sk.widen(min, max)
	if len(sk.buf) >= 8*int(sk.compression) {
		sk.flushReference()
	}
}

// widen takes [min, max] into the range; a tie keeps the old bound, so
// −0 and +0 keep whichever came first, as in Sketch.
func (sk *refSketch) widen(min, max float64) {
	if min < sk.min {
		sk.min = min
	}
	if max > sk.max {
		sk.max = max
	}
}

func (sk *refSketch) absorb(other *refSketch) {
	sk.absorbPoints(other.points(), other.count, other.min, other.max)
}

// points is the reference's points in Absorb's order: centroids, then the
// buffer.
func (sk *refSketch) points() []Centroid {
	return append(append([]Centroid(nil), sk.centroids...), sk.buf...)
}

func (sk *refSketch) reset() {
	sk.centroids, sk.buf = sk.centroids[:0], sk.buf[:0]
	sk.count, sk.min, sk.max = 0, math.Inf(1), math.Inf(-1)
}

func (sk *refSketch) clone() *refSketch {
	c := *sk
	c.centroids = slices.Clone(sk.centroids)
	c.buf = slices.Clone(sk.buf)
	return &c
}

// appendBinary is the MarshalBinary layout written from Centroid lists.
func (sk *refSketch) appendBinary(dst []byte) []byte {
	dst = append(dst, sketchMagic[:]...)
	for _, f := range []float64{sk.compression, sk.count, sk.min, sk.max} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sk.centroids)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sk.buf)))
	for _, c := range sk.points() {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Weight))
	}
	return dst
}

// refFromBinary reads an encoding of a live sketch back into Centroid
// lists. Its input is trusted: validation is UnmarshalBinary's to pin.
func refFromBinary(data []byte) *refSketch {
	nc := int(binary.LittleEndian.Uint32(data[36:]))
	nb := int(binary.LittleEndian.Uint32(data[40:]))
	sk := &refSketch{compression: wireF64(data, 4), count: wireF64(data, 12), min: wireF64(data, 20), max: wireF64(data, 28)}
	for i := 0; i < nc+nb; i++ {
		c := Centroid{Mean: wireF64(data, sketchBinHeader+16*i), Weight: wireF64(data, sketchBinHeader+16*i+8)}
		if i < nc {
			sk.centroids = append(sk.centroids, c)
		} else {
			sk.buf = append(sk.buf, c)
		}
	}
	return sk
}

// refOf is the reference holding sk's state.
func refOf(sk *Sketch) *refSketch { return refFromBinary(mustMarshal(sk)) }

// queries is a Sketch holding the reference's flushed state, for Quantile
// and CDFAt: the answers a sketch with exactly those centroids gives.
func (sk *refSketch) queries() *Sketch {
	sk.flushReference()
	return &Sketch{compression: sk.compression, centroids: slices.Clone(sk.centroids), count: sk.count, min: sk.min, max: sk.max}
}

// swapBuffered swaps buffered points i and j of sk, weights and all.
func swapBuffered(sk *Sketch, i, j int) {
	if len(sk.pairs) > 0 {
		sk.pairs[i], sk.pairs[j] = sk.pairs[j], sk.pairs[i]
	} else {
		sk.buf[i], sk.buf[j] = sk.buf[j], sk.buf[i]
	}
}

// sameBits reports whether a and b hold bit-identical points. A fuse at
// the edge of float64's range can leave a NaN mean, the same on both sides.
func sameBits(a, b []Centroid) bool {
	return slices.EqualFunc(a, b, func(x, y Centroid) bool {
		return math.Float64bits(x.Mean) == math.Float64bits(y.Mean) && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// sketchPair drives the kernel and the reference through the same stream.
type sketchPair struct {
	t    testing.TB
	fast *Sketch
	ref  *refSketch
}

func newSketchPair(t testing.TB, compression float64) *sketchPair {
	return &sketchPair{t: t, fast: NewSketch(compression), ref: newRefSketch(compression)}
}

func (p *sketchPair) add(x, w float64) {
	if err := p.fast.AddWeighted(x, w); err != nil {
		p.t.Fatal(err)
	}
	p.ref.addWeighted(x, w)
}

// absorb folds other in: through its encoding on the kernel side (the path
// a cluster query takes) and as Centroid lists on the reference side.
func (p *sketchPair) absorb(other *Sketch) {
	enc, _ := other.MarshalBinary()
	if err := p.fast.AbsorbBinary(enc); err != nil {
		p.t.Fatal(err)
	}
	p.ref.absorb(refFromBinary(enc))
}

// same fails unless both sides hold bit-identical state: the same encoding,
// and (by AppendPoints) the same points in the same order.
func (p *sketchPair) same(when string) {
	p.t.Helper()
	got, _ := p.fast.MarshalBinary()
	if want := p.ref.appendBinary(nil); !bytes.Equal(got, want) {
		p.t.Fatalf("%s: kernel and reference states differ (%d vs %d centroids, %d vs %d buffered)",
			when, len(p.fast.centroids), len(p.ref.centroids), p.fast.buffered(), len(p.ref.buf))
	}
	if !sameBits(p.fast.AppendPoints(nil), p.ref.points()) {
		p.t.Fatalf("%s: AppendPoints differs from the reference's points", when)
	}
}

// finish compacts both sides and compares once more: the flushed
// centroids, and every Quantile and CDFAt asked of them.
func (p *sketchPair) finish(when string) {
	p.t.Helper()
	p.same(when + ", before the last flush")
	p.fast.flush()
	p.ref.flushReference()
	p.same(when + ", after the last flush")
	if !sameBits(p.fast.Centroids(), p.ref.centroids) {
		p.t.Fatalf("%s: flushed centroids differ", when)
	}
	ref := p.ref.queries()
	for _, q := range []float64{0, 1e-3, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1} {
		if g, w := p.fast.Quantile(q), ref.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
			p.t.Fatalf("%s: Quantile(%v) = %v, reference %v", when, q, g, w)
		}
	}
	for _, c := range append(ref.Centroids(), Centroid{Mean: ref.min}, Centroid{Mean: ref.max}, Centroid{Mean: ref.min - 1}) {
		for _, v := range []float64{c.Mean, math.Nextafter(c.Mean, math.Inf(1))} {
			if g, w := p.fast.CDFAt(v), ref.CDFAt(v); math.Float64bits(g) != math.Float64bits(w) {
				p.t.Fatalf("%s: CDFAt(%v) = %v, reference %v", when, v, g, w)
			}
		}
	}
}

// flushStreams are the point generators the differential test, the
// permutation test and the fuzz seeds share: one (mean, weight) per call.
var flushStreams = []struct {
	name string
	next func(r *rng.Source) (x, w float64)
}{
	{"rtt-lognormal", func(r *rng.Source) (float64, float64) { return r.LogNormal(3, 0.6), 1 }},
	{"negative-normal", func(r *rng.Source) (float64, float64) { return r.Normal(-50, 30), 1 }},
	{"hop-count-integers", func(r *rng.Source) (float64, float64) { return float64(1 + r.IntN(30)), 1 }},
	{"three-values", func(r *rng.Source) (float64, float64) { return float64(r.IntN(3)) * 0.5, 1 }},
	{"one-value", func(r *rng.Source) (float64, float64) { return 7, 1 }},
	{"signed-zeros", func(r *rng.Source) (float64, float64) {
		return []float64{math.Copysign(0, -1), 0, -5e-324, 5e-324, -1, 1}[r.IntN(6)], 1
	}},
	{"weighted", func(r *rng.Source) (float64, float64) {
		return r.Normal(0, 1e3), []float64{0.25, 1, 1, 3, 1e3, 1e6}[r.IntN(6)]
	}},
	{"tied-means-mixed-weights", func(r *rng.Source) (float64, float64) {
		return float64(r.IntN(5)), float64(1 + r.IntN(4))
	}},
}

// TestSketchFlushMatchesReference is the kernel's differential pin: over
// every stream and δ ∈ {20, 100, 500}, the kernel and the reference hold
// the same bytes after (1) a long Add stream, (2) the `wide` shape —
// thousands of ≈ 20-point rollups absorbed through their encodings — and
// (3) large pre-flushed sketches merged whole.
func TestSketchFlushMatchesReference(t *testing.T) {
	for _, stream := range flushStreams {
		for _, compression := range []float64{20, 100, 500} {
			r := rng.New(uint64(compression))
			rollup := func(n int) *Sketch {
				sk := NewSketch(compression)
				for i := 0; i < n; i++ {
					x, w := stream.next(r)
					if err := sk.AddWeighted(x, w); err != nil {
						t.Fatal(err)
					}
				}
				return sk
			}

			p := newSketchPair(t, compression)
			for i := 0; i < 12*int(compression)+7; i++ {
				p.add(stream.next(r))
			}
			p.finish(stream.name + ": add stream")

			p = newSketchPair(t, compression)
			for i := 0; i < 2500; i++ {
				p.absorb(rollup(16 + i%9))
				if i%500 == 0 {
					p.same(stream.name + ": wide shape")
				}
			}
			p.finish(stream.name + ": wide shape")

			p = newSketchPair(t, compression)
			for i := 0; i < 12; i++ {
				big := rollup(30*int(compression) + i)
				p.absorb(big)
				p.fast.Merge(big)
				p.ref.absorb(refOf(big))
				p.ref.flushReference()
				p.same(stream.name + ": large sketches")
			}
			p.finish(stream.name + ": large sketches")
		}
	}
}

// TestSketchFlushPermutationInvariant pins the determinism contract: the
// flush result is a function of the multiset of points, so shuffling the
// buffer (and even the centroid list) before a flush leaves the bytes
// unchanged.
func TestSketchFlushPermutationInvariant(t *testing.T) {
	for _, stream := range flushStreams {
		r := rng.New(41)
		sk := NewSketch(DefaultCompression)
		for i := 0; i < 3*4*DefaultCompression+250; i++ {
			x, w := stream.next(r)
			if err := sk.AddWeighted(x, w); err != nil {
				t.Fatal(err)
			}
		}
		if len(sk.centroids) == 0 || sk.buffered() == 0 {
			t.Fatalf("%s: fixture needs centroids and a buffer, has %d and %d", stream.name, len(sk.centroids), sk.buffered())
		}
		straight := sk.Clone()
		straight.flush()
		want, _ := straight.MarshalBinary()
		shuffle := func(n int, swap func(i, j int)) {
			for i := n - 1; i > 0; i-- {
				swap(i, r.IntN(i+1))
			}
		}
		for trial := 0; trial < 5; trial++ {
			shuffled := sk.Clone()
			shuffle(shuffled.buffered(), func(i, j int) { swapBuffered(shuffled, i, j) })
			if trial > 2 {
				shuffle(len(shuffled.centroids), func(i, j int) {
					shuffled.centroids[i], shuffled.centroids[j] = shuffled.centroids[j], shuffled.centroids[i]
				})
			}
			shuffled.flush()
			if got, _ := shuffled.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("%s: flush depends on point order (trial %d)", stream.name, trial)
			}
		}
	}
}

// TestSketchFlushGuardBand places a point's q inside fuseGuard of the first
// centroid's limit, on either side and on it, and checks that the kernel
// then asks the exact question (and only then), with the reference's
// answer. Interior limits are what the band exists for; the end-of-flush
// limit of 1 is hit by every large flush anyway.
func TestSketchFlushGuardBand(t *testing.T) {
	for _, compression := range []float64{20, 100, 500} {
		kLeft := kScale(compression, 0)
		limit := (math.Sin((kLeft+1)*(2*math.Pi/compression)) + 1) / 2
		for _, c := range []struct {
			off       float64
			wantExact int
		}{{-1e-6, 0}, {-1e-10, 1}, {-1e-15, 1}, {0, 1}, {1e-15, 1}, {1e-10, 1}, {1e-6, 0}} {
			// Three points of total weight 1: the second one's q is limit+off.
			first := limit / 3
			second := limit + c.off - first
			p := newSketchPair(t, compression)
			p.add(1, first)
			p.add(2, second)
			p.add(3, 1-first-second)
			pts := p.fast.AppendPoints(nil)
			_, exact := fuseCanonical(nil, pts, p.fast.count, compression)
			if exact != c.wantExact {
				t.Errorf("δ=%v q=limit%+g: %d exact decisions, want %d", compression, c.off, exact, c.wantExact)
			}
			p.finish("guard band")
		}
	}
}

// flushProgram turns fuzz bytes into a program over two sketch pairs, a
// main one and a side one, each a kernel Sketch beside its reference. A
// step is 9 bytes: a value's IEEE bits, then a control byte whose low
// nibble picks a weight (half of them 1) and whose high nibble the
// operation — mostly adds to either pair, else folding the side pair into
// the main one by Absorb or AbsorbBinary, Trim, Reset, Clone,
// a marshal round trip, or a checkpoint that compacts both sides
// mid-stream. Both pairs must encode alike after every step.
func flushProgram(t testing.TB, data []byte, compression float64) {
	weights := []float64{1, 1, 1, 1, 2, 0.5, 3, 1e-3, 1e6, 1e12, 7, 1, 1, 1e-9, 4, 1}
	p, side := newSketchPair(t, compression), newSketchPair(t, compression)
	for ; len(data) >= 9; data = data[9:] {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		w, op := weights[data[8]&15], data[8]>>4
		if op <= 8 && (math.IsNaN(x) || math.IsInf(x, 0)) {
			continue
		}
		switch op {
		case 0, 1, 2, 3, 4, 5, 6:
			p.add(x, w)
		case 7, 8:
			side.add(x, w)
		case 9, 11:
			p.fast.Absorb(side.fast)
			p.ref.absorb(side.ref)
		case 10:
			// Should the decode gate reject the side's encoding, the fold is
			// a no-op on the kernel side, and so it must be on the
			// reference's.
			if p.fast.AbsorbBinary(mustMarshal(side.fast)) == nil {
				p.ref.absorb(side.ref)
			}
		case 12:
			p.fast.Trim()
			side.fast.Trim()
		case 13:
			if data[8]&1 == 0 {
				side.fast.Reset()
				side.ref.reset()
			} else {
				p.fast.Reset()
				p.ref.reset()
			}
		case 14:
			if data[8]&1 == 0 {
				p.fast, p.ref = p.fast.Clone(), p.ref.clone()
				break
			}
			var back Sketch
			if back.UnmarshalBinary(mustMarshal(p.fast)) == nil {
				p.fast, p.ref = &back, refFromBinary(p.ref.appendBinary(nil))
			}
		case 15:
			p.finish("checkpoint")
		}
		p.same("main")
		side.same("side")
	}
	// The stream's tail, flushed in reverse arrival order, must give the
	// same bytes: permutation invariance on whatever the fuzzer built.
	reversed := p.fast.Clone()
	for i, j := 0, reversed.buffered()-1; i < j; i, j = i+1, j-1 {
		swapBuffered(reversed, i, j)
	}
	reversed.flush()
	p.finish("end of program")
	side.finish("side, end of program")
	if got, _ := reversed.MarshalBinary(); !bytes.Equal(got, mustMarshal(p.fast)) {
		t.Fatal("flush depends on buffer order")
	}
}

func mustMarshal(sk *Sketch) []byte {
	out, _ := sk.MarshalBinary()
	return out
}

// FuzzSketchFlushMatchesReference lets the fuzzer choose the points and the
// operations (flushProgram): arbitrary finite means (denormals, ±0, huge
// magnitudes, shared prefixes that defeat or trigger the radix sort's
// skipped passes), a spread of weights, folds, trims, resets, clones,
// round trips and mid-stream compactions, at the smallest δ so a few
// hundred bytes already cross several flushes. Seeded from the
// differential test's streams and from long programs of every operation.
func FuzzSketchFlushMatchesReference(f *testing.F) {
	for i, stream := range flushStreams {
		r := rng.New(uint64(100 + i))
		var seed []byte
		for j := 0; j < 200; j++ {
			x, _ := stream.next(r)
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
			seed = append(seed, byte(r.IntN(256)))
		}
		f.Add(seed, false)
		f.Add(seed, true)
	}
	// Long programs whose steps draw every operation evenly.
	for i := 0; i < 4; i++ {
		r := rng.New(uint64(200 + i))
		var seed []byte
		for j := 0; j < 1500; j++ {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(r.LogNormal(3, 0.6)))
			seed = append(seed, byte(r.IntN(256)))
		}
		f.Add(seed, i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		compression := 20.0
		if wide {
			compression = 40
		}
		flushProgram(t, data, compression)
	})
}
