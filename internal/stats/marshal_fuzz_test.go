package stats

import (
	"bytes"
	"testing"
)

// FuzzSketchUnmarshalBinary guards the snapshot decoder: arbitrary bytes
// must never panic — they either error or yield a sketch whose invariants
// hold and that survives a re-marshal round trip unchanged. AbsorbBinary
// shares the decoder's gate, so every input is also folded both ways into
// twin accumulators: same verdict, same resulting state.
func FuzzSketchUnmarshalBinary(f *testing.F) {
	for _, n := range []int{0, 1, 10, 450} {
		data, err := mkSketch(n, DefaultCompression).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("esk\x01"))
	f.Add([]byte("esk\x01aaaaaaaabbbbbbbbccccccccdddddddd\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		absorbTwin(t, mkSketch(450, DefaultCompression), mkSketch(450, DefaultCompression), data)
		var sk Sketch
		if err := sk.UnmarshalBinary(data); err != nil {
			return
		}
		// An accepted sketch must be usable without panicking...
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			_ = sk.Quantile(q)
		}
		_ = sk.CDFAt(sk.Min())
		// ...but Quantile flushes, so round-trip the *pre-query* state.
		var sk2 Sketch
		if err := sk2.UnmarshalBinary(data); err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		out, err := sk2.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var sk3 Sketch
		if err := sk3.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		out2, err := sk3.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("marshal not stable across decode/encode cycle")
		}
	})
}
