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

// flushReference DEFINES flush: every point in canonical order under a
// comparison sort, then the scale-function test, two asin, asked of every
// point. It is the pre-PR-17 flush body with the sort key completed to a
// total order; the kernel in sketch.go must produce the same bytes.
func (sk *Sketch) flushReference() {
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
			last.Mean += (c.Mean - last.Mean) * c.Weight / proposed
			last.Weight = proposed
			continue
		}
		wSoFar += last.Weight
		kLeft = kScale(sk.compression, wSoFar/sk.count)
		merged = append(merged, c)
	}
	sk.centroids = append(sk.centroids[:0], merged...)
}

// refAddWeighted and refAbsorb are AddWeighted and Absorb over
// flushReference, thresholds included (4δ on add, 8δ on absorb), so a
// reference sketch driven beside a real one also pins where flushes fall.
func (sk *Sketch) refAddWeighted(x, w float64) {
	sk.buf = append(sk.buf, Centroid{Mean: x, Weight: w})
	sk.count += w
	sk.min, sk.max = math.Min(sk.min, x), math.Max(sk.max, x)
	if len(sk.buf) >= 4*int(sk.compression) {
		sk.flushReference()
	}
}

func (sk *Sketch) refAbsorb(other *Sketch) {
	if other.count == 0 {
		return
	}
	sk.buf = append(append(sk.buf, other.centroids...), other.buf...)
	sk.count += other.count
	sk.min, sk.max = math.Min(sk.min, other.min), math.Max(sk.max, other.max)
	if len(sk.buf) >= 8*int(sk.compression) {
		sk.flushReference()
	}
}

// sketchPair drives the kernel and the reference through the same stream.
type sketchPair struct {
	t         testing.TB
	fast, ref *Sketch
}

func newSketchPair(t testing.TB, compression float64) *sketchPair {
	return &sketchPair{t: t, fast: NewSketch(compression), ref: NewSketch(compression)}
}

func (p *sketchPair) add(x, w float64) {
	if err := p.fast.AddWeighted(x, w); err != nil {
		p.t.Fatal(err)
	}
	p.ref.refAddWeighted(x, w)
}

// absorb folds other in: through its encoding on the kernel side (the path
// a cluster query takes) and as a sketch on the reference side.
func (p *sketchPair) absorb(other *Sketch) {
	enc, _ := other.MarshalBinary()
	if err := p.fast.AbsorbBinary(enc); err != nil {
		p.t.Fatal(err)
	}
	p.ref.refAbsorb(other)
}

// same fails unless both sides hold bit-identical state.
func (p *sketchPair) same(when string) {
	p.t.Helper()
	got, _ := p.fast.MarshalBinary()
	want, _ := p.ref.MarshalBinary()
	if !bytes.Equal(got, want) {
		p.t.Fatalf("%s: kernel and reference states differ (%d vs %d centroids, %d vs %d buffered)",
			when, len(p.fast.centroids), len(p.ref.centroids), len(p.fast.buf), len(p.ref.buf))
	}
}

// finish compacts both sides and compares once more.
func (p *sketchPair) finish(when string) {
	p.t.Helper()
	p.same(when + ", before the last flush")
	p.fast.flush()
	p.ref.flushReference()
	p.same(when + ", after the last flush")
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
				p.ref.refAbsorb(big)
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
		if len(sk.centroids) == 0 || len(sk.buf) == 0 {
			t.Fatalf("%s: fixture needs centroids and a buffer, has %d and %d", stream.name, len(sk.centroids), len(sk.buf))
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
			shuffle(len(shuffled.buf), func(i, j int) {
				shuffled.buf[i], shuffled.buf[j] = shuffled.buf[j], shuffled.buf[i]
			})
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
			pts := append([]Centroid(nil), p.fast.buf...)
			_, exact := fuseCanonical(nil, pts, p.fast.count, compression)
			if exact != c.wantExact {
				t.Errorf("δ=%v q=limit%+g: %d exact decisions, want %d", compression, c.off, exact, c.wantExact)
			}
			p.finish("guard band")
		}
	}
}

// flushProgram turns fuzz bytes into a stream: 9 bytes a point — the
// mean's IEEE bits, then a byte choosing the weight and, rarely, a
// checkpoint that compacts both sides mid-stream.
func flushProgram(t testing.TB, data []byte, compression float64) {
	weights := []float64{1, 1, 1, 1, 2, 0.5, 3, 1e-3, 1e6, 1e12, 7, 1, 1, 1e-9, 4, 1}
	p := newSketchPair(t, compression)
	for ; len(data) >= 9; data = data[9:] {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		p.add(x, weights[data[8]&15])
		if data[8]>>4 == 15 {
			p.finish("checkpoint")
		}
	}
	// The stream's tail, flushed in reverse arrival order, must give the
	// same bytes: permutation invariance on whatever the fuzzer built.
	reversed := p.fast.Clone()
	slices.Reverse(reversed.buf)
	reversed.flush()
	p.finish("end of program")
	if got, _ := reversed.MarshalBinary(); !bytes.Equal(got, mustMarshal(p.fast)) {
		t.Fatal("flush depends on buffer order")
	}
}

func mustMarshal(sk *Sketch) []byte {
	out, _ := sk.MarshalBinary()
	return out
}

// FuzzSketchFlushMatchesReference lets the fuzzer choose the points:
// arbitrary finite means (denormals, ±0, huge magnitudes, shared prefixes
// that defeat or trigger the radix sort's skipped passes), a spread of
// weights, and mid-stream compactions, at the smallest δ so a few hundred
// bytes already cross several flushes. Seeded from the differential test's
// streams.
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
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		compression := 20.0
		if wide {
			compression = 40
		}
		flushProgram(t, data, compression)
	})
}
