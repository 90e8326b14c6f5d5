package stats

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"edgescope/internal/rng"
)

func sketchFrom(t *testing.T, xs []float64, compression float64) *Sketch {
	t.Helper()
	sk := NewSketch(compression)
	for _, x := range xs {
		if err := sk.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

// rankErr is the rank error of the sketch's q-quantile against the exact
// empirical distribution in sum.
func rankErr(sum *Summary, sk *Sketch, q float64) float64 {
	return math.Abs(sum.CDFAt(sk.Quantile(q)) - q)
}

func TestSketchEmptyAndSingle(t *testing.T) {
	sk := NewSketch(DefaultCompression)
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := sk.CDFAt(1); got != 0 {
		t.Errorf("empty CDFAt = %v, want 0", got)
	}
	if sk.Count() != 0 {
		t.Errorf("empty Count = %v", sk.Count())
	}
	if !math.IsInf(sk.Min(), 1) || !math.IsInf(sk.Max(), -1) {
		t.Errorf("empty Min/Max = %v/%v", sk.Min(), sk.Max())
	}

	if err := sk.Add(42); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := sk.Quantile(q); got != 42 {
			t.Errorf("single Quantile(%v) = %v, want 42", q, got)
		}
	}
	if got := sk.Count(); got != 1 {
		t.Errorf("single Count = %v", got)
	}
}

func TestSketchRejectsNonFinite(t *testing.T) {
	sk := NewSketch(DefaultCompression)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := sk.Add(x); err == nil {
			t.Errorf("Add(%v) accepted, want error", x)
		}
	}
	if err := sk.AddWeighted(1, 0); err == nil {
		t.Error("AddWeighted weight 0 accepted, want error")
	}
	if sk.Count() != 0 {
		t.Errorf("rejected values counted: %v", sk.Count())
	}
}

// TestSketchErrorBound pins the documented contract: on streams from several
// distribution shapes, the rank error at each probed quantile stays within
// 2× RankErrorBound (the bound is an expectation-level limit; the 2× margin
// absorbs unlucky centroid boundaries).
func TestSketchErrorBound(t *testing.T) {
	r := rng.New(7)
	const n = 20000
	dists := map[string]func() float64{
		"uniform":   func() float64 { return r.Uniform(0, 100) },
		"normal":    func() float64 { return r.Normal(50, 12) },
		"lognormal": func() float64 { return r.LogNormal(3, 0.8) },
		"pareto":    func() float64 { return r.Pareto(1, 1.5) },
	}
	for name, draw := range dists {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		sum := Summarize(xs)
		sk := sketchFrom(t, xs, DefaultCompression)
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			if got, bound := rankErr(sum, sk, q), 2*sk.RankErrorBound(q); got > bound {
				t.Errorf("%s: rank error at q=%v is %.5f, bound %.5f", name, q, got, bound)
			}
		}
	}
}

// TestSketchBoundedMemory checks the memory contract: centroid count stays
// O(compression) no matter how long the stream runs.
func TestSketchBoundedMemory(t *testing.T) {
	r := rng.New(9)
	sk := NewSketch(DefaultCompression)
	for i := 0; i < 200000; i++ {
		if err := sk.Add(r.LogNormal(2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(sk.Centroids()); n > 2*DefaultCompression {
		t.Errorf("centroids = %d, want <= %d", n, 2*DefaultCompression)
	}
	if got := sk.Count(); got != 200000 {
		t.Errorf("Count = %v, want 200000", got)
	}
}

// TestSketchMerge checks mergeability: sharding a stream over k sketches and
// merging them answers within the same bound as one sketch over the whole
// stream — the property the telemetry ingest/query split depends on.
func TestSketchMerge(t *testing.T) {
	r := rng.New(11)
	const n, shards = 12000, 8
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(30, 10)
	}
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(DefaultCompression)
	}
	for i, x := range xs {
		if err := parts[i%shards].Add(x); err != nil {
			t.Fatal(err)
		}
	}
	merged := NewSketch(DefaultCompression)
	for _, p := range parts {
		merged.Merge(p)
	}
	if got := merged.Count(); got != n {
		t.Fatalf("merged Count = %v, want %d", got, n)
	}
	sum := Summarize(xs)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		if got, bound := rankErr(sum, merged, q), 2*merged.RankErrorBound(q); got > bound {
			t.Errorf("merged rank error at q=%v is %.5f, bound %.5f", q, got, bound)
		}
	}
	// Merge must not mutate its argument.
	before := parts[0].Count()
	merged.Merge(parts[0])
	if parts[0].Count() != before {
		t.Error("Merge mutated its argument")
	}
}

// TestSketchAbsorb checks the deferred-compaction merge: same totals as
// Merge, same error bound, argument untouched, and memory still bounded
// after absorbing many sketches.
func TestSketchAbsorb(t *testing.T) {
	r := rng.New(29)
	const parts, per = 40, 500
	all := make([]float64, 0, parts*per)
	sketches := make([]*Sketch, parts)
	for i := range sketches {
		sk := NewSketch(DefaultCompression)
		for j := 0; j < per; j++ {
			x := r.LogNormal(3, 0.7)
			all = append(all, x)
			if err := sk.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		sketches[i] = sk
	}
	merged := NewSketch(DefaultCompression)
	for _, sk := range sketches {
		before := sk.Count()
		merged.Absorb(sk)
		if sk.Count() != before {
			t.Fatal("Absorb mutated its argument")
		}
	}
	sum := Summarize(all)
	if merged.Count() != float64(len(all)) || merged.Min() != sum.Min() || merged.Max() != sum.Max() {
		t.Fatalf("Absorb totals: count %v min %v max %v", merged.Count(), merged.Min(), merged.Max())
	}
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		if got, bound := rankErr(sum, merged, q), 2*merged.RankErrorBound(q); got > bound {
			t.Errorf("absorbed rank error at q=%v is %.5f, bound %.5f", q, got, bound)
		}
	}
	if n := len(merged.Centroids()); n > 2*DefaultCompression {
		t.Errorf("absorbed centroids = %d, want <= %d", n, 2*DefaultCompression)
	}
}

// TestAbsorbPointsEqualsAbsorb: a sketch's points, count and range copied
// out (AppendPoints, Count, Min, Max) and folded with AbsorbPoints leave the
// accumulator in exactly the state Absorb of the live sketch would — and a
// Reset sketch that has folded other streams before is, for the next one,
// exactly a new sketch. Together they are what lets the telemetry query
// layer fold every key in one pooled sketch.
func TestAbsorbPointsEqualsAbsorb(t *testing.T) {
	r := rng.New(31)
	reused := NewSketch(DefaultCompression)
	for round := 0; round < 6; round++ {
		fresh := NewSketch(DefaultCompression)
		reused.Reset()
		if reused.Count() != 0 || !math.IsInf(reused.Min(), 1) || !math.IsInf(reused.Max(), -1) || len(reused.Centroids()) != 0 {
			t.Fatalf("round %d: Reset left count %v, range [%v, %v]", round, reused.Count(), reused.Min(), reused.Max())
		}
		var flat []Centroid
		for part := 0; part < 30; part++ {
			// Sizes straddle the 4δ self-flush, so parts arrive as centroids,
			// as buffered points and as both; an empty one is a no-op.
			src := NewSketch(DefaultCompression)
			for j, n := 0, []int{0, 1, 23, 399, 400, 650}[r.IntN(6)]; j < n; j++ {
				if err := src.Add(r.LogNormal(3, 0.7) + float64(round)); err != nil {
					t.Fatal(err)
				}
			}
			fresh.Absorb(src)
			at := len(flat)
			flat = src.AppendPoints(flat)
			reused.AbsorbPoints(flat[at:], src.Count(), src.Min(), src.Max())
		}
		a, _ := fresh.MarshalBinary()
		b, _ := reused.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d: AbsorbPoints into a Reset sketch diverged from Absorb into a new one", round)
		}
	}
}

// TestSketchMergeOrderIndependentCount checks that min/max/count survive any
// merge order (the query layer merges shards in index order, but nothing
// should depend on it beyond centroid micro-placement).
func TestSketchMergeOrderIndependentCount(t *testing.T) {
	a := sketchFrom(t, []float64{1, 2, 3}, DefaultCompression)
	b := sketchFrom(t, []float64{10, 20, 30}, DefaultCompression)
	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if ab.Count() != ba.Count() || ab.Min() != ba.Min() || ab.Max() != ba.Max() {
		t.Errorf("merge order changed count/min/max: %v/%v/%v vs %v/%v/%v",
			ab.Count(), ab.Min(), ab.Max(), ba.Count(), ba.Min(), ba.Max())
	}
}

func TestSketchCDFConsistency(t *testing.T) {
	r := rng.New(13)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Uniform(0, 1000)
	}
	sum := Summarize(xs)
	sk := sketchFrom(t, xs, DefaultCompression)
	for _, v := range []float64{50, 250, 500, 900} {
		got, want := sk.CDFAt(v), sum.CDFAt(v)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("CDFAt(%v) = %.4f, exact %.4f", v, got, want)
		}
	}
	if got := sk.CDFAt(-1); got != 0 {
		t.Errorf("CDFAt below min = %v, want 0", got)
	}
	if got := sk.CDFAt(1e9); got != 1 {
		t.Errorf("CDFAt above max = %v, want 1", got)
	}
}

func TestSketchQuantilePanics(t *testing.T) {
	sk := NewSketch(DefaultCompression)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			sk.Quantile(q)
		}()
	}
}

// exactBytes is what sk's point lists hold at their exact lengths: 16 B a
// centroid, 8 B a buffered point, and 8 B more a buffered point when one of
// them weighs other than 1.
func exactBytes(sk *Sketch) int {
	n := 16 * len(sk.centroids)
	if !unitWeights(sk.pairs) {
		return n + 16*sk.buffered()
	}
	return n + 8*sk.buffered()
}

// TestSketchTrimKeepsContent pins Trim as a pure memory operation: a trimmed
// sketch encodes, lists its points and answers quantiles bit for bit as its
// untrimmed twin, continues the stream as the twin does, holds exactly its
// points (exactBytes) unless it had no more than trimSlack to release — then
// it is left as it was — and a second Trim allocates nothing.
func TestSketchTrimKeepsContent(t *testing.T) {
	r := rng.New(41)
	for _, n := range []int{0, 1, 100, 399, 400, 1340} {
		for _, absorb := range []bool{false, true} {
			var vals []float64
			for i := 0; i < n; i++ {
				vals = append(vals, r.LogNormal(3, 0.7))
			}
			build := func() *Sketch {
				sk := sketchFrom(t, vals, DefaultCompression)
				if absorb {
					sk.Absorb(sketchFrom(t, vals[:n/2], DefaultCompression))
				}
				return sk
			}
			trimmed, twin := build(), build()
			want := exactBytes(trimmed)
			if held := trimmed.Footprint(); held-want <= trimSlack {
				want = held
			}
			trimmed.Trim()
			pts := trimmed.AppendPoints(nil)
			if got := trimmed.Footprint(); got != want {
				t.Errorf("n=%d absorb=%v: Footprint after Trim = %d B, want %d for %d points", n, absorb, got, want, len(pts))
			}
			if allocs := testing.AllocsPerRun(10, trimmed.Trim); allocs != 0 {
				t.Errorf("n=%d absorb=%v: a second Trim allocates %v times", n, absorb, allocs)
			}
			if twinPts := twin.AppendPoints(nil); !slices.Equal(pts, twinPts) {
				t.Fatalf("n=%d absorb=%v: Trim changed the points", n, absorb)
			}
			// Continue both streams past a flush, then compare every answer.
			for round := 0; round < 2; round++ {
				a, _ := trimmed.AppendBinary(nil)
				b, _ := twin.AppendBinary(nil)
				if !bytes.Equal(a, b) {
					t.Fatalf("n=%d absorb=%v round %d: encoding differs from the untrimmed twin", n, absorb, round)
				}
				for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
					if g, w := trimmed.Quantile(q), twin.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("n=%d absorb=%v round %d: Quantile(%v) = %v, untrimmed %v", n, absorb, round, q, g, w)
					}
				}
				if trimmed.Count() != twin.Count() || trimmed.Min() != twin.Min() || trimmed.Max() != twin.Max() {
					t.Fatalf("n=%d absorb=%v round %d: count/range differ", n, absorb, round)
				}
				for i := 0; i < 450; i++ {
					x := r.Normal(20, 4)
					if trimmed.Add(x) != nil || twin.Add(x) != nil {
						t.Fatal("Add failed")
					}
				}
			}
		}
	}
}

// TestSketchUnitPointsCostTheirMean: a buffered point of weight 1 holds 8 B,
// its mean; one of any other weight moves the whole buffer to (mean,
// weight) pairs, 16 B a point, and Trim turns buffered pairs whose weights
// are all 1 back into means. A sketch with at most trimSlack bytes to
// release — a closed window's sparse rollup — is trimmed without
// allocating and keeps its lists.
func TestSketchUnitPointsCostTheirMean(t *testing.T) {
	sk := NewSketch(DefaultCompression)
	for i := 0; i < 300; i++ {
		if err := sk.Add(float64(i % 17)); err != nil {
			t.Fatal(err)
		}
	}
	sk.Trim()
	if got := sk.Footprint(); got != 8*300 || len(sk.pairs) > 0 {
		t.Fatalf("300 unit points hold %d B (%d pairs), want %d", got, len(sk.pairs), 8*300)
	}
	before := mustMarshal(sk)
	if err := sk.AddWeighted(3, 2); err != nil {
		t.Fatal(err)
	}
	sk.Trim()
	if got := sk.Footprint(); got != 16*301 || len(sk.pairs) != 301 {
		t.Fatalf("301 points, one of weight 2, hold %d B (%d pairs), want %d", got, len(sk.pairs), 16*301)
	}

	// Pairs that all weigh 1: a unit sketch's buffer moved to pairs.
	ones := NewSketch(DefaultCompression)
	if err := ones.UnmarshalBinary(before); err != nil {
		t.Fatal(err)
	}
	ones.weigh()
	if !bytes.Equal(mustMarshal(ones), before) {
		t.Fatal("weigh changed the encoding")
	}
	ones.Trim()
	if len(ones.pairs) > 0 || ones.Footprint() != 8*300 || !bytes.Equal(mustMarshal(ones), before) {
		t.Fatalf("Trim kept %d pairs of weight 1 (%d B), or changed the encoding", len(ones.pairs), ones.Footprint())
	}

	sparse := NewSketch(DefaultCompression)
	for i := 0; i < 5; i++ {
		if err := sparse.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	held := sparse.Footprint()
	if held-exactBytes(sparse) > trimSlack {
		t.Fatalf("test premise broken: 5 points leave %d B spare", held-exactBytes(sparse))
	}
	if allocs := testing.AllocsPerRun(10, sparse.Trim); allocs != 0 || sparse.Footprint() != held {
		t.Fatalf("Trim of a sketch with %d B spare allocated %v times, footprint %d → %d B",
			held-exactBytes(sparse), allocs, held, sparse.Footprint())
	}
}

// TestAbsorbFlushedEqualsFlushedAbsorb: a sketch's points, copied out and
// folded with AbsorbFlushed, leave the accumulator in exactly the state
// Absorb of a flushed copy of that sketch would — whatever mix of
// centroids, unit-weight and weighted buffered points the source holds — and
// leave the source as it was. It is the flushed form every telemetry fold
// reads a rollup in.
func TestAbsorbFlushedEqualsFlushedAbsorb(t *testing.T) {
	r := rng.New(43)
	for round := 0; round < 6; round++ {
		want, got := NewSketch(DefaultCompression), NewSketch(DefaultCompression)
		for part := 0; part < 30; part++ {
			src := NewSketch(DefaultCompression)
			for j, n := 0, []int{0, 1, 23, 63, 64, 399, 400, 650}[r.IntN(8)]; j < n; j++ {
				if err := src.Add(r.LogNormal(3, 0.7) + float64(round)); err != nil {
					t.Fatal(err)
				}
			}
			if part%4 == 3 {
				if err := src.AddWeighted(r.LogNormal(3, 0.7), 2.5); err != nil {
					t.Fatal(err)
				}
			}
			before := mustMarshal(src)
			pts := src.AppendPoints(nil)
			got.AbsorbFlushed(pts, src.Count(), src.Min(), src.Max(), src.Compression())
			if !bytes.Equal(mustMarshal(src), before) {
				t.Fatalf("round %d part %d: AbsorbFlushed changed its source", round, part)
			}
			flushed := src.Clone()
			flushed.Centroids()
			want.Absorb(flushed)
			if !bytes.Equal(mustMarshal(got), mustMarshal(want)) {
				t.Fatalf("round %d part %d: AbsorbFlushed diverged from Absorb of the flushed source", round, part)
			}
		}
	}
}

// TestFlushedPassThrough pins the bound under which a fold may absorb a
// sketch's raw points instead of flushing them: a sketch of n unit-weight
// buffered points reports Flushed exactly while n < 2δ/π, and then its flush
// fuses nothing (the flushed multiset is the raw one); at the bound the
// middle pair fuses, so the bound is the tightest of its form. A sketch with
// nothing buffered is flushed; one whose buffer holds a weighted point, or
// whose buffer follows centroids, is not.
func TestFlushedPassThrough(t *testing.T) {
	r := rng.New(47)
	for _, delta := range []float64{20, 50, DefaultCompression, 333} {
		bound := int(math.Ceil(2 * delta / math.Pi)) // the first n at or past 2δ/π
		for n := 1; n <= bound; n++ {
			sk := NewSketch(delta)
			for i := 0; i < n; i++ {
				x := math.Round(r.LogNormal(3, 0.7)) // repeats: equal means must not fuse either
				if err := sk.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			raw := sk.AppendPoints(nil)
			flushed := sk.Clone().Centroids()
			fused := len(flushed) < n
			if sk.Flushed() != (n < bound) {
				t.Fatalf("δ=%v n=%d: Flushed = %v, want %v", delta, n, sk.Flushed(), n < bound)
			}
			if n < bound {
				slices.SortFunc(raw, func(a, b Centroid) int { return cmp.Compare(a.Mean, b.Mean) })
				if !slices.Equal(raw, flushed) {
					t.Fatalf("δ=%v n=%d: Flushed, but the flush is not the raw multiset", delta, n)
				}
			} else if !fused {
				t.Fatalf("δ=%v n=%d: the bound is not tight: %d points fused nothing", delta, n, n)
			}
		}
	}
	sk := NewSketch(DefaultCompression)
	if !sk.Flushed() {
		t.Fatal("an empty sketch is not Flushed")
	}
	for i := 0; i < 400; i++ { // the 4δ self-flush: centroids, nothing buffered
		if err := sk.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !sk.Flushed() {
		t.Fatal("a sketch with nothing buffered is not Flushed")
	}
	if err := sk.Add(1); err != nil || sk.Flushed() {
		t.Fatalf("a point buffered after centroids reads Flushed (err %v)", err)
	}
	weighted := NewSketch(DefaultCompression)
	if err := weighted.AddWeighted(1, 2); err != nil || weighted.Flushed() {
		t.Fatalf("a buffered weighted point reads Flushed (err %v)", err)
	}
}

// TestSealKeepsFlushedForm: Seal flushes exactly when δ or more points are
// buffered, leaves the sketch trimmed and holding the flushed form a fold
// reads (AbsorbFlushed), and a sealed sketch folds to the same bytes as its
// unsealed twin.
func TestSealKeepsFlushedForm(t *testing.T) {
	r := rng.New(53)
	for _, n := range []int{0, 1, 63, 99, 100, 101, 399, 400, 401, 1340} {
		sk := NewSketch(DefaultCompression)
		for i := 0; i < n; i++ {
			if err := sk.Add(r.LogNormal(3, 0.7)); err != nil {
				t.Fatal(err)
			}
		}
		twin := sk.Clone()
		buffered := sk.buffered()
		if got := sk.Seal(); got != (buffered >= DefaultCompression) {
			t.Fatalf("n=%d: Seal with %d buffered flushed=%v", n, buffered, got)
		}
		if held := sk.Footprint(); held-exactBytes(sk) > trimSlack {
			t.Fatalf("n=%d: a sealed sketch holds %d B, %d exact", n, held, exactBytes(sk))
		}
		a, b := NewSketch(DefaultCompression), NewSketch(DefaultCompression)
		a.AbsorbFlushed(sk.AppendPoints(nil), sk.Count(), sk.Min(), sk.Max(), sk.Compression())
		b.AbsorbFlushed(twin.AppendPoints(nil), twin.Count(), twin.Min(), twin.Max(), twin.Compression())
		if !bytes.Equal(mustMarshal(a), mustMarshal(b)) {
			t.Fatalf("n=%d: the sealed sketch folds differently from its unsealed twin", n)
		}
	}
}
