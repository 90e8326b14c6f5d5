package mathx

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// edgeInputs covers the full special-value surface plus the
// range-reduction and ldexp boundaries.
func edgeInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		1, -1, 0.5, -0.5, 2, -2,
		math.Inf(1), math.Inf(-1), math.NaN(),
		expOverflow, math.Nextafter(expOverflow, 710), math.Nextafter(expOverflow, 0),
		709.782712893384, 709.7827128933841,
		-expOverflow,
		// underflow-to-zero and denormal-result band
		-745.1332191019411, -745.1332191019412, -744.44007192138122,
		-708.396418532264, -709, -710, -745, -746, -747, -1000, -1e6, -1e300,
		708, 708.5, 709, -708.5,
		// |x| just above/below the bulk fast gate
		math.Nextafter(fastAbsBound, 1000), math.Nextafter(fastAbsBound, 0),
		-math.Nextafter(fastAbsBound, 1000), -math.Nextafter(fastAbsBound, 0),
		// denormal and tiny inputs
		5e-324, -5e-324, 1e-308, -1e-308, 1e-17, -1e-17,
		math.Ln2, -math.Ln2, math.Ln2 / 2, -math.Ln2 / 2,
	}
	for _, m := range []float64{0.5, 1.5, 2.5, 3.5, -0.5, -1.5, -2.5, 511.5, 512.5, -511.5, -1021.5} {
		xs = append(xs, m*math.Ln2)
	}
	return xs
}

// TestExpBulkBitIdenticalDefault pins the one contract every bulk fill
// rests on: ExpBulk[i] is Exp(src[i]) bit-for-bit, through the in-range
// blocks, the out-of-range blocks and the scalar tail, on both paths.
func TestExpBulkBitIdenticalDefault(t *testing.T) {
	onBothPaths(t, testExpBulkBitIdentical)
}

func testExpBulkBitIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	xs := edgeInputs()
	for i := 0; i < 200000; i++ {
		xs = append(xs, (r.Float64()-0.5)*1500)
	}
	for i := 0; i < 50000; i++ {
		xs = append(xs, (r.Float64()-0.5)*4) // noise-sized draws, the hot band
	}
	got := make([]float64, len(xs))
	for n := len(xs); n > len(xs)-8; n-- { // every tail length
		ExpBulk(got[:n], xs[:n])
		for i, x := range xs[:n] {
			if want := Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("ExpBulk(%g) = %x want %x (Exp bits)",
					x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestExpGolden checks the kernel against the committed table, so a change
// to its bytes fails on every platform whatever the local math.Exp does.
func TestExpGolden(t *testing.T) {
	onBothPaths(t, testExpGolden)
}

func testExpGolden(t *testing.T) {
	src := make([]float64, len(expGolden))
	for i, g := range expGolden {
		src[i] = math.Float64frombits(g[0])
		if got := math.Float64bits(Exp(src[i])); got != g[1] {
			t.Errorf("Exp(%g) = %#016x want %#016x", src[i], got, g[1])
		}
	}
	dst := make([]float64, len(src))
	ExpBulk(dst, src)
	for i, g := range expGolden {
		if got := math.Float64bits(dst[i]); got != g[1] {
			t.Errorf("ExpBulk[%d](%g) = %#016x want %#016x", i, src[i], got, g[1])
		}
	}
}

func TestExpBulkInPlaceAndAliasing(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 9))
	xs := make([]float64, 1027) // odd length: exercises the tail loop
	for i := range xs {
		xs[i] = (r.Float64() - 0.5) * 20
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = Exp(x)
	}
	buf := append([]float64(nil), xs...)
	ExpBulk(buf, buf) // in-place
	for i := range buf {
		if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-place ExpBulk[%d] mismatch", i)
		}
	}
	// dst longer than src: only the prefix is written.
	long := make([]float64, len(xs)+5)
	for i := range long {
		long[i] = -1
	}
	ExpBulk(long, xs)
	for i := len(xs); i < len(long); i++ {
		if long[i] != -1 {
			t.Fatalf("ExpBulk wrote past len(src) at %d", i)
		}
	}
}

func TestExpBulkPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short dst")
		}
	}()
	ExpBulk(make([]float64, 3), make([]float64, 4))
}

// mathExpIsKernel reports whether this platform's math.Exp is the same
// algorithm as the kernel (the amd64 assembly with FMA on): it is when it
// reproduces the committed golden table.
func mathExpIsKernel() bool {
	for _, g := range expGolden {
		if !sameFloatBits(math.Exp(math.Float64frombits(g[0])), math.Float64frombits(g[1])) {
			return false
		}
	}
	return true
}

// TestExpKernelPortsExactOnVerifiedPlatforms is the in-tree evidence that
// routing every draw through the kernel moved no golden where they were
// captured: where math.Exp is the FMA assembly the kernel was ported from,
// scalar and bulk agree with it bit-for-bit over 300k inputs.
func TestExpKernelPortsExactOnVerifiedPlatforms(t *testing.T) {
	if !mathExpIsKernel() {
		t.Skipf("math.Exp on %s/%s is a different algorithm (it does not reproduce expGolden); TestExpFastULPBound bounds the distance instead",
			runtime.GOOS, runtime.GOARCH)
	}
	r := rand.New(rand.NewPCG(17, 29))
	xs := edgeInputs()
	for i := 0; i < 300000; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, (r.Float64()-0.5)*1500)
		case 1:
			xs = append(xs, (r.Float64()-0.5)*2)
		default: // denormal-result band
			xs = append(xs, -745.2+r.Float64()*37)
		}
	}
	dst := make([]float64, len(xs))
	ExpBulk(dst, xs)
	for i, x := range xs {
		want := math.Exp(x)
		if got := Exp(x); !sameFloatBits(got, want) {
			t.Fatalf("Exp(%g) = %x want %x (math.Exp bits)", x, math.Float64bits(got), math.Float64bits(want))
		}
		if !sameFloatBits(dst[i], want) {
			t.Fatalf("ExpBulk(%g) = %x want %x (math.Exp bits)", x, math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
}

// ulpDiff returns the distance in representable float64 steps, treating
// the ±0 pair as adjacent. Infinite when only one side is NaN/Inf.
func ulpDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.MaxUint64
	}
	oa, ob := orderBits(a), orderBits(b)
	if oa > ob {
		return oa - ob
	}
	return ob - oa
}

func orderBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&signMask != 0 {
		return signMask - (b &^ signMask)
	}
	return signMask + b
}

// TestExpFastULPBound is the accuracy budget on every platform, whatever
// algorithm the local math.Exp is: every result within 4 ULP of it,
// specials handled exactly. The one stated exception is the top half-binade
// below overflow: like the assembly it ports, the kernel rounds the scaled
// exponent to 1024 from x = 1023.5·ln 2 up and returns +Inf there, where a
// different math.Exp still has a finite result.
func TestExpFastULPBound(t *testing.T) {
	const maxULP = 4
	const earlyOverflow = 709.43 // just under 1023.5·ln 2
	r := rand.New(rand.NewPCG(23, 41))
	xs := edgeInputs()
	for i := 0; i < 300000; i++ {
		xs = append(xs, (r.Float64()-0.5)*1500)
	}
	worst := uint64(0)
	for _, x := range xs {
		want := math.Exp(x)
		got := Exp(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("Exp(%g) = %g want NaN", x, got)
			}
			continue
		}
		if math.IsInf(want, 1) || want == 0 {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Exp(%g) = %g want %g exactly", x, got, want)
			}
			continue
		}
		if math.IsInf(got, 1) && x > earlyOverflow {
			continue
		}
		if d := ulpDiff(got, want); d > worst {
			worst = d
			if d > maxULP {
				t.Fatalf("Exp(%g): %d ULP from math.Exp (budget %d)", x, d, maxULP)
			}
		}
	}
	t.Logf("worst %d ULP from math.Exp over %d inputs", worst, len(xs))
}

func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}
