package stats

import (
	"bytes"
	"math"
	"testing"
)

// mkSketch builds a sketch with n log-normal-ish samples in a fixed
// pseudo-random sequence (no rng dependency: stats is below rng in the
// package graph).
func mkSketch(n int, compression float64) *Sketch {
	sk := NewSketch(compression)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		if err := sk.Add(math.Exp(3 + 2*(u-0.5))); err != nil {
			panic(err)
		}
	}
	return sk
}

// TestSketchBinaryRoundTrip pins the exact-state contract: the decoded
// sketch equals the original field for field (including the unflushed
// buffer), and continuing the stream on both sides produces bit-identical
// quantiles — the property the telemetry recovery path depends on.
func TestSketchBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 57, 399, 400, 5000} {
		orig := mkSketch(n, DefaultCompression)
		data, err := orig.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var back Sketch
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		// A flushed empty buffer decodes as nil — semantically identical, so
		// compare the canonical encodings rather than raw struct fields.
		data2, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("n=%d: state changed by round trip:\n orig: %+v\n back: %+v", n, orig, &back)
		}
		if back.Count() != orig.Count() || back.Min() != orig.Min() || back.Max() != orig.Max() ||
			back.compression != orig.compression {
			t.Fatalf("n=%d: scalar state diverged", n)
		}
		// Continue both streams identically: flush boundaries and centroid
		// layout must stay in lockstep.
		for i := 0; i < 500; i++ {
			v := float64(i%97) + 0.5
			if err := orig.Add(v); err != nil {
				t.Fatal(err)
			}
			if err := back.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			if a, b := orig.Quantile(q), back.Quantile(q); a != b {
				t.Fatalf("n=%d q=%v: continued streams diverged: %v vs %v", n, q, a, b)
			}
		}
	}
}

// TestSketchBinaryNoFlush pins that marshalling does not disturb the live
// sketch: the buffer must survive a marshal unflushed.
func TestSketchBinaryNoFlush(t *testing.T) {
	sk := mkSketch(150, DefaultCompression) // below the 4δ flush threshold
	if sk.buffered() == 0 {
		t.Fatal("test premise broken: expected unflushed buffer")
	}
	before := sk.buffered()
	if _, err := sk.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if sk.buffered() != before {
		t.Fatalf("MarshalBinary flushed the buffer: %d -> %d", before, sk.buffered())
	}
}

func TestSketchUnmarshalRejectsCorruption(t *testing.T) {
	good, err := mkSketch(500, DefaultCompression).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short":        good[:10],
		"bad-magic":    append([]byte("xxxx"), good[4:]...),
		"truncated":    good[:len(good)-8],
		"extra-bytes":  append(append([]byte{}, good...), 0, 0, 0, 0),
		"not-a-sketch": []byte("definitely not a sketch encoding, just text"),
	}
	// Flipped length fields must be caught by the size check, not alloc.
	huge := append([]byte{}, good...)
	huge[36], huge[37], huge[38], huge[39] = 0xff, 0xff, 0xff, 0x7f
	cases["huge-centroid-count"] = huge
	for name, data := range cases {
		var sk Sketch
		if err := sk.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

// absorbTwin folds data into a through AbsorbBinary and into b through
// UnmarshalBinary+Absorb and requires the same outcome: the same verdict
// (with the same message — one decode gate), an untouched accumulator on
// rejection, and bit-identical accumulator state on acceptance.
func absorbTwin(t *testing.T, a, b *Sketch, data []byte) {
	t.Helper()
	before, _ := a.MarshalBinary()
	var other Sketch
	errU := other.UnmarshalBinary(data)
	errA := a.AbsorbBinary(data)
	if (errU == nil) != (errA == nil) || (errU != nil && errU.Error() != errA.Error()) {
		t.Fatalf("verdicts differ: UnmarshalBinary %v, AbsorbBinary %v", errU, errA)
	}
	if errU != nil {
		if after, _ := a.MarshalBinary(); !bytes.Equal(before, after) {
			t.Fatalf("rejected input (%v) changed the accumulator", errA)
		}
		return
	}
	b.Absorb(&other)
	ab, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("AbsorbBinary state differs from UnmarshalBinary+Absorb:\n got  %+v\n want %+v", a, b)
	}
}

// TestAbsorbBinaryEqualsUnmarshalAbsorb pins AbsorbBinary ≡ UnmarshalBinary
// + Absorb on the merged sketch's exact bytes after every step, over
// sequences that mix empty, buffered-only (below the 4δ flush) and compacted
// parts and cross the accumulator's own 8δ compaction several times.
func TestAbsorbBinaryEqualsUnmarshalAbsorb(t *testing.T) {
	sizes := []int{0, 1, 57, 399, 400, 401, 1700, 5000}
	x := uint64(2463534242)
	for seed := 0; seed < 8; seed++ {
		a, b := NewSketch(DefaultCompression), NewSketch(DefaultCompression)
		for step := 0; step < 40; step++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			part := mkSketch(sizes[x%uint64(len(sizes))], DefaultCompression)
			// Shift each part so the merged stream is not one distribution
			// repeated: compaction then actually reorders points.
			shifted := NewSketch(DefaultCompression)
			for _, c := range part.AppendPoints(nil) {
				if err := shifted.AddWeighted(c.Mean+float64(x>>40%97), c.Weight); err != nil {
					t.Fatal(err)
				}
			}
			data, _ := shifted.MarshalBinary()
			absorbTwin(t, a, b, data)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := a.Quantile(q), b.Quantile(q); got != want {
				t.Fatalf("seed %d q=%v: %v != %v", seed, q, got, want)
			}
		}
	}
}

// TestAbsorbBinaryRejectsCorruption: every input UnmarshalBinary rejects,
// AbsorbBinary rejects with the same error and leaves a loaded accumulator
// exactly as it was.
func TestAbsorbBinaryRejectsCorruption(t *testing.T) {
	good, _ := mkSketch(500, DefaultCompression).MarshalBinary()
	flipWeight := append([]byte{}, good...)
	flipWeight[sketchBinHeader+8+7] ^= 0x80 // first centroid's weight goes negative
	lastPoint := append([]byte{}, good...)
	lastPoint[len(lastPoint)-9] ^= 0x40 // last buffered mean leaves [min,max]
	for name, data := range map[string][]byte{
		"empty":      {},
		"bad-magic":  append([]byte("xxxx"), good[4:]...),
		"truncated":  good[:len(good)-8],
		"extra":      append(append([]byte{}, good...), 0),
		"weight":     flipWeight,
		"last-point": lastPoint,
	} {
		a, b := mkSketch(900, DefaultCompression), mkSketch(900, DefaultCompression)
		var probe Sketch
		if probe.UnmarshalBinary(data) == nil {
			t.Fatalf("%s: test premise broken: input accepted", name)
		}
		absorbTwin(t, a, b, data)
	}
}
