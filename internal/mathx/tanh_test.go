package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Operands whose product rounds away a bit an FMA would keep:
// (1+2⁻³⁰)(1−2⁻³⁰) − 1 is 0 rounded and −2⁻⁶⁰ fused. Package variables,
// so the compiler cannot fold them.
var fuseA, fuseB, fuseC = 1 + 0x1p-30, 1 - 0x1p-30, -1.0

// mulAddFuses reports whether this build fuses a*b + c, as it may do, for
// example, on arm64, where math.Tanh's polynomial then rounds differently.
func mulAddFuses() bool { return fuseA*fuseB+fuseC != 0 }

// TestTanhMatchesMathTanhOnVerifiedPlatforms pins the port: where math.Exp
// is the exp kernel (TestExpKernelPortsExactOnVerifiedPlatforms runs) and
// the compiler does not fuse math.tanh's polynomial, Tanh is math.Tanh bit
// for bit, across both branches and their boundaries.
func TestTanhMatchesMathTanhOnVerifiedPlatforms(t *testing.T) {
	if !mathExpIsKernel() || mulAddFuses() {
		t.Skip("math.Tanh here rests on a different math.Exp or a fused polynomial")
	}
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.625, -0.625, math.Nextafter(0.625, 0), -math.Nextafter(0.625, 0),
		0.5 * tanhMaxLog, math.Nextafter(0.5*tanhMaxLog, 100), -0.5 * tanhMaxLog,
		5e-324, -5e-324, 1e-300, 19.0, 20.0, -19.5,
	}
	r := rand.New(rand.NewPCG(37, 43))
	for i := 0; i < 300000; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, (r.Float64()-0.5)*100)
		case 1:
			xs = append(xs, (r.Float64()-0.5)*2)
		default:
			xs = append(xs, r.NormFloat64()*1e-3)
		}
	}
	for _, x := range xs {
		if got, want := Tanh(x), math.Tanh(x); !sameFloatBits(got, want) {
			t.Fatalf("Tanh(%g) = %#x want %#x (math.Tanh bits)", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestTanhSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 0}, {math.Copysign(0, -1), math.Copysign(0, -1)},
		{math.Inf(1), 1}, {math.Inf(-1), -1}, {50, 1}, {-50, -1},
	} {
		if got := Tanh(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Tanh(%g) = %g want %g", c.x, got, c.want)
		}
	}
	if got := Tanh(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Tanh(NaN) = %g", got)
	}
}
