package mathx

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// withPath runs f with the AVX2 kernels on or off.
func withPath(avx2 bool, f func()) {
	old := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = old }()
	f()
}

// requireAVX2 skips a differential test where there is no AVX2 path to
// hold against the portable one.
func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2+FMA on this CPU or GOARCH")
	}
}

// specials are the values the LSTM kernels must carry through unchanged:
// signed zeros, infinities, NaN, denormals and the extremes.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// draws fills n values from r: mostly noise-sized, one in nine a special.
func draws(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if r.IntN(9) == 0 {
			xs[i] = specials[r.IntN(len(specials))]
		} else {
			xs[i] = r.NormFloat64()
		}
	}
	return xs
}

// expBoth runs ExpBulk on both paths, with separate and with aliased
// buffers, and fails on any lane that differs from the scalar Exp.
func expBoth(t *testing.T, src []float64) {
	t.Helper()
	fast, slow := make([]float64, len(src)), make([]float64, len(src))
	inPlace := append([]float64(nil), src...)
	withPath(true, func() { ExpBulk(fast, src); ExpBulk(inPlace, inPlace) })
	withPath(false, func() { ExpBulk(slow, src) })
	for i, x := range src {
		want := Exp(x)
		if !sameFloatBits(fast[i], want) || !sameFloatBits(slow[i], want) || !sameFloatBits(inPlace[i], want) {
			t.Fatalf("len %d lane %d: ExpBulk(%g) avx2 %#x, in place %#x, portable %#x, Exp %#x",
				len(src), i, x, math.Float64bits(fast[i]), math.Float64bits(inPlace[i]),
				math.Float64bits(slow[i]), math.Float64bits(want))
		}
	}
}

// TestExpBulkMatchesPortable holds the 8-lane assembly to the portable
// path and Exp at every length 0–97 (full blocks, the 4-block and scalar
// tails), and with each edgeInputs value in every lane of an 8-block, so
// each gate-boundary, NaN and ±Inf lane sends its block to the scalar.
func TestExpBulkMatchesPortable(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewPCG(5, 13))
	for n := 0; n <= 97; n++ {
		src := make([]float64, n)
		for i := range src {
			src[i] = (r.Float64() - 0.5) * 1416 // mostly inside the gate
		}
		expBoth(t, src)
	}
	for _, e := range edgeInputs() {
		for lane := 0; lane < 16; lane++ { // either 8-block of a 20-element input
			src := make([]float64, 20)
			for i := range src {
				src[i] = r.NormFloat64() * 3
			}
			src[lane] = e
			expBoth(t, src)
		}
	}
}

// matVecBoth runs GateMatVec on both paths and fails on any output that
// differs. NaN matches any NaN: when two NaNs meet, either payload may win.
func matVecBoth(t *testing.T, wT []float64, x float64, v []float64, m int) {
	t.Helper()
	fast, slow := make([]float64, m), make([]float64, m)
	withPath(true, func() { GateMatVec(fast, wT, x, v) })
	withPath(false, func() { GateMatVec(slow, wT, x, v) })
	for r := range fast {
		if !sameFloatBits(fast[r], slow[r]) {
			t.Fatalf("m %d n %d: z[%d] avx2 %#x portable %#x",
				m, len(v), r, math.Float64bits(fast[r]), math.Float64bits(slow[r]))
		}
	}
}

func TestGateMatVecMatchesPortable(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewPCG(19, 23))
	for m := 0; m <= 97; m++ {
		for _, n := range []int{0, 1, m % 31, 24} {
			wT, v := draws(r, (1+n)*m+m%3), draws(r, n) // wT may run past the matrix
			matVecBoth(t, wT, r.NormFloat64(), v, m)
			matVecBoth(t, wT, math.Copysign(0, -1), v, m)
		}
	}
}

// TestGateMatVecStartsFromTheProduct pins the -0 that an accumulator
// starting at 0 would lose: with no v terms, z = w·x = 1·(-0) = -0.
func TestGateMatVecStartsFromTheProduct(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		z := make([]float64, 9)
		wT := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
		GateMatVec(z, wT, math.Copysign(0, -1), nil)
		for r, zr := range z {
			if !math.Signbit(zr) || zr != 0 {
				t.Fatalf("z[%d] = %g, want -0", r, zr)
			}
		}
	})
}

// backpropBoth runs GateBackprop on both paths from the same g and dv and
// fails on any cell of either that differs.
func backpropBoth(t *testing.T, g, w []float64, stride int, dz [4]float64, v, dv []float64) {
	t.Helper()
	gFast, dvFast := append([]float64(nil), g...), append([]float64(nil), dv...)
	gSlow, dvSlow := append([]float64(nil), g...), append([]float64(nil), dv...)
	withPath(true, func() { GateBackprop(gFast, w, stride, dz, v, dvFast) })
	withPath(false, func() { GateBackprop(gSlow, w, stride, dz, v, dvSlow) })
	for i := range gFast {
		if !sameFloatBits(gFast[i], gSlow[i]) {
			t.Fatalf("n %d stride %d: g[%d] avx2 %#x portable %#x",
				len(v), stride, i, math.Float64bits(gFast[i]), math.Float64bits(gSlow[i]))
		}
	}
	for k := range dvFast {
		if !sameFloatBits(dvFast[k], dvSlow[k]) {
			t.Fatalf("n %d stride %d: dv[%d] avx2 %#x portable %#x",
				len(v), stride, k, math.Float64bits(dvFast[k]), math.Float64bits(dvSlow[k]))
		}
	}
}

func TestGateBackpropMatchesPortable(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewPCG(29, 31))
	for n := 0; n <= 97; n++ {
		for _, stride := range []int{n, n + 1 + n%5} {
			size := 3*stride + n + n%2
			dz := [4]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			backpropBoth(t, draws(r, size), draws(r, size), stride, dz, draws(r, n), draws(r, n))
			copy(dz[:], draws(r, 4))
			backpropBoth(t, draws(r, size), draws(r, size), stride, dz, draws(r, n), draws(r, n))
		}
	}
}

// floatsOf reads data as little-endian float64s, at least atLeast of them
// (cycling the bytes, or zeros when there are none).
func floatsOf(data []byte, atLeast int) []float64 {
	n := max(len(data)/8, atLeast)
	xs := make([]float64, n)
	var b [8]byte
	for i := range xs {
		for j := range b {
			if len(data) > 0 {
				b[j] = data[(8*i+j)%len(data)]
			}
		}
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return xs
}

// FuzzExpBulkMatchesPortable holds ExpBulk to Exp on both paths for any
// input bits and length.
func FuzzExpBulkMatchesPortable(f *testing.F) {
	for _, e := range edgeInputs() {
		f.Add(binary.LittleEndian.AppendUint64(make([]byte, 64), math.Float64bits(e)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireAVX2(t)
		expBoth(t, floatsOf(data, 0))
	})
}

// FuzzLSTMKernelsMatchPortable holds GateMatVec and GateBackprop to their
// portable paths for any sizes and input bits.
func FuzzLSTMKernelsMatchPortable(f *testing.F) {
	f.Add([]byte{}, uint8(96), uint8(24), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))), uint8(5), uint8(0), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint8(17), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, m, n, pad uint8) {
		requireAVX2(t)
		rows, terms, stride := int(m%100), int(n%100), int(n%100)+int(pad%8)
		xs := floatsOf(data, 1)
		at := func(i int) float64 { return xs[i%len(xs)] }
		fill := func(off, size int) []float64 {
			s := make([]float64, size)
			for i := range s {
				s[i] = at(off + i)
			}
			return s
		}
		matVecBoth(t, fill(1, (1+terms)*rows), at(0), fill(3, terms), rows)
		size := 3*stride + terms
		dz := [4]float64{at(0), at(1), at(2), at(3)}
		backpropBoth(t, fill(5, size), fill(7, size), stride, dz, fill(11, terms), fill(13, terms))
	})
}
