// Package mathx holds the float kernels the batch engine shares: the
// exponential (a scalar Exp and a batched ExpBulk over one kernel, so the
// workload, elastic and rng planes never call math.Exp on a draw path), a
// Tanh on that exponential, and the LSTM's gate matvec and backward row
// update (GateMatVec, GateBackprop).
//
// The exp kernel is the FMA form of the SLEEF/Shibata algorithm behind the
// Go runtime's amd64 math.Exp, ported to pure Go on math.FMA, which is
// correctly rounded on every platform with or without a hardware fused
// multiply-add, and with every other product rounded before its sum (an
// explicit float64 conversion stops the compiler fusing it): the bytes do
// not depend on GOARCH, so this kernel defines exp for the repository. It
// is bit-identical to math.Exp on amd64 with FMA and within 4 ULP of the
// local math.Exp elsewhere (see exp_test.go).
//
// On amd64 a CPUID check at package init routes ExpBulk, GateMatVec and
// GateBackprop to AVX2+FMA assembly (kernels_amd64.s). Each lane there runs
// the portable Go's scalar chain, operation for operation, and no kernel
// adds across lanes, so the check picks the speed, never the bytes.
package mathx

import "math"

// Kernel constants, verbatim from the Go runtime's exp_amd64.s.
const (
	log2e = 1.4426950408889634073599246810018920                  // 1/ln(2)
	ln2u  = 0.69314718055966295651160180568695068359375           // upper half ln(2)
	ln2l  = 0.28235290563031577122588448175013436025525412068e-12 // lower half ln(2)

	expOverflow = 7.09782712893384e+02

	// Adding then subtracting 2^52+2^51 rounds a float64 in (-2^51, 2^51)
	// to the nearest integer under round-half-even — the same result as
	// the assembly's CVTSD2SL.
	roundMagic = 6755399441055744.0

	c9 = 2.4801587301587301587e-5
	c8 = 1.9841269841269841270e-4
	c7 = 1.3888888888888888889e-3
	c6 = 8.3333333333333333333e-3
	c5 = 4.1666666666666666667e-2
	c4 = 1.6666666666666666667e-1

	signMask   = 1 << 63
	posInfBits = 0x7FF0000000000000
	negInfBits = 0xFFF0000000000000

	// |x| at or below this bound takes the branch-free core: the scaled
	// exponent k stays within [-1022, 1022], so ldexp is a single
	// multiply with no overflow or denormal handling.
	fastAbsBound = 708.0
)

var fastAbsBoundBits = math.Float64bits(fastAbsBound)

// Exp returns e**x over the complete math.Exp domain: NaN and +Inf pass
// through, -Inf and underflow give 0, overflow gives +Inf.
func Exp(x float64) float64 {
	b := math.Float64bits(x)
	if b&^uint64(signMask) >= posInfBits { // NaN or ±Inf
		if b == negInfBits {
			return 0
		}
		return x
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	if x < -746 {
		// k would be < -1075: the assembly's denormal path underflows
		// to zero for every such input, and the round-to-int magic below
		// is only exercised inside its valid range.
		return 0
	}
	// The VFNMADD/VFMADD sequence of exp_amd64.s with useFMA on, one
	// math.FMA per fused instruction.
	kd := (float64(x*log2e) + roundMagic) - roundMagic
	fr := math.FMA(-kd, ln2u, x)
	fr = math.FMA(-kd, ln2l, fr)
	fr *= 0.0625
	p := math.FMA(fr, c9, c8)
	p = math.FMA(fr, p, c7)
	p = math.FMA(fr, p, c6)
	p = math.FMA(fr, p, c5)
	p = math.FMA(fr, p, c4)
	p = math.FMA(fr, p, 0.5)
	p = math.FMA(fr, p, 1.0)
	fr = float64(fr * p)
	fr = float64(fr * float64(2+fr))
	fr = float64(fr * float64(2+fr))
	fr = float64(fr * float64(2+fr))
	fr = math.FMA(fr, float64(2+fr), 1.0)
	// Scale by 2**k exactly as the assembly's ldexp tail does, including
	// the two-step denormal squeeze and the overflow-to-+Inf edge.
	n := int(kd) + 0x3FF
	if n <= 0 {
		if n < -52 {
			return 0
		}
		fr *= math.Float64frombits(uint64(n+0x3FE) << 52)
		return fr * math.Float64frombits(1<<52)
	}
	if n >= 0x7FF {
		return math.Inf(1)
	}
	return fr * math.Float64frombits(uint64(n)<<52)
}

// ExpBulk writes exp(src[i]) into dst[i] for every element of src.
// dst must be at least as long as src; dst and src may be the same
// slice (in-place) or otherwise alias element-for-element.
//
// dst[i] is bit-identical to Exp(src[i]). With AVX2 the core runs eight
// elements at a time in assembly, and an 8-block with any lane outside the
// gate below goes to the scalar Exp; the rest, or everything without AVX2,
// takes expBulkGo.
func ExpBulk(dst, src []float64) {
	if len(dst) < len(src) {
		panic("mathx: ExpBulk dst shorter than src")
	}
	dst = dst[:len(src)]
	if useAVX2 {
		n := len(src) &^ 7
		for i := 0; i < n; {
			i += expBulk8(dst[i:n], src[i:n])
			if i < n {
				for j := i; j < i+8; j++ {
					dst[j] = Exp(src[j])
				}
				i += 8
			}
		}
		dst, src = dst[n:], src[n:]
	}
	expBulkGo(dst, src)
}

// expBulkGo is ExpBulk's portable path, four elements at a time: the
// in-range gate (|x| <= fastAbsBound, compared on bits so NaN and
// infinities fail it too) guarantees ldexp needs only one multiply, so the
// unrolled body is branch-free and the four dependency chains overlap in
// the pipeline. Out-of-range elements fall back to the scalar. len(dst)
// must equal len(src).
func expBulkGo(dst, src []float64) {
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		x0, x1, x2, x3 := s[0], s[1], s[2], s[3]
		b0 := math.Float64bits(x0) &^ uint64(signMask)
		b1 := math.Float64bits(x1) &^ uint64(signMask)
		b2 := math.Float64bits(x2) &^ uint64(signMask)
		b3 := math.Float64bits(x3) &^ uint64(signMask)
		if b0 > fastAbsBoundBits || b1 > fastAbsBoundBits ||
			b2 > fastAbsBoundBits || b3 > fastAbsBoundBits {
			d[0] = Exp(x0)
			d[1] = Exp(x1)
			d[2] = Exp(x2)
			d[3] = Exp(x3)
			continue
		}
		kd0 := (float64(x0*log2e) + roundMagic) - roundMagic
		kd1 := (float64(x1*log2e) + roundMagic) - roundMagic
		kd2 := (float64(x2*log2e) + roundMagic) - roundMagic
		kd3 := (float64(x3*log2e) + roundMagic) - roundMagic
		f0 := math.FMA(-kd0, ln2u, x0)
		f1 := math.FMA(-kd1, ln2u, x1)
		f2 := math.FMA(-kd2, ln2u, x2)
		f3 := math.FMA(-kd3, ln2u, x3)
		f0 = math.FMA(-kd0, ln2l, f0) * 0.0625
		f1 = math.FMA(-kd1, ln2l, f1) * 0.0625
		f2 = math.FMA(-kd2, ln2l, f2) * 0.0625
		f3 = math.FMA(-kd3, ln2l, f3) * 0.0625
		p0 := math.FMA(f0, c9, c8)
		p1 := math.FMA(f1, c9, c8)
		p2 := math.FMA(f2, c9, c8)
		p3 := math.FMA(f3, c9, c8)
		p0 = math.FMA(f0, p0, c7)
		p1 = math.FMA(f1, p1, c7)
		p2 = math.FMA(f2, p2, c7)
		p3 = math.FMA(f3, p3, c7)
		p0 = math.FMA(f0, p0, c6)
		p1 = math.FMA(f1, p1, c6)
		p2 = math.FMA(f2, p2, c6)
		p3 = math.FMA(f3, p3, c6)
		p0 = math.FMA(f0, p0, c5)
		p1 = math.FMA(f1, p1, c5)
		p2 = math.FMA(f2, p2, c5)
		p3 = math.FMA(f3, p3, c5)
		p0 = math.FMA(f0, p0, c4)
		p1 = math.FMA(f1, p1, c4)
		p2 = math.FMA(f2, p2, c4)
		p3 = math.FMA(f3, p3, c4)
		p0 = math.FMA(f0, p0, 0.5)
		p1 = math.FMA(f1, p1, 0.5)
		p2 = math.FMA(f2, p2, 0.5)
		p3 = math.FMA(f3, p3, 0.5)
		p0 = math.FMA(f0, p0, 1.0)
		p1 = math.FMA(f1, p1, 1.0)
		p2 = math.FMA(f2, p2, 1.0)
		p3 = math.FMA(f3, p3, 1.0)
		f0 = float64(f0 * p0)
		f1 = float64(f1 * p1)
		f2 = float64(f2 * p2)
		f3 = float64(f3 * p3)
		f0 = float64(f0 * float64(2+f0))
		f1 = float64(f1 * float64(2+f1))
		f2 = float64(f2 * float64(2+f2))
		f3 = float64(f3 * float64(2+f3))
		f0 = float64(f0 * float64(2+f0))
		f1 = float64(f1 * float64(2+f1))
		f2 = float64(f2 * float64(2+f2))
		f3 = float64(f3 * float64(2+f3))
		f0 = float64(f0 * float64(2+f0))
		f1 = float64(f1 * float64(2+f1))
		f2 = float64(f2 * float64(2+f2))
		f3 = float64(f3 * float64(2+f3))
		f0 = math.FMA(f0, float64(2+f0), 1.0)
		f1 = math.FMA(f1, float64(2+f1), 1.0)
		f2 = math.FMA(f2, float64(2+f2), 1.0)
		f3 = math.FMA(f3, float64(2+f3), 1.0)
		d[0] = f0 * math.Float64frombits(uint64(int(kd0)+0x3FF)<<52)
		d[1] = f1 * math.Float64frombits(uint64(int(kd1)+0x3FF)<<52)
		d[2] = f2 * math.Float64frombits(uint64(int(kd2)+0x3FF)<<52)
		d[3] = f3 * math.Float64frombits(uint64(int(kd3)+0x3FF)<<52)
	}
	for ; i < n; i++ {
		dst[i] = Exp(src[i])
	}
}
