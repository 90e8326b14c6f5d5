package mathx

import "math"

// Rational-approximation coefficients of Go's math.tanh (from the Cephes
// library), verbatim.
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3

	tanhMaxLog = 8.8029691931113054295988e+01 // log(2**127)
)

// Tanh returns the hyperbolic tangent of x: Go's math.tanh, same constants
// and branches, on Exp instead of math.Exp and with every product rounded
// before its sum. math.Tanh's bytes follow the local math.Exp (an FMA or
// non-FMA assembly path on amd64, pure Go elsewhere) and, where the
// compiler fuses, its polynomial; these follow neither. It is bit-identical
// to math.Tanh wherever math.Exp is the exp kernel and nothing is fused.
// Tanh(±0) = ±0, Tanh(±Inf) = ±1, Tanh(NaN) = NaN.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*tanhMaxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		p := float64(tanhP0*s) + tanhP1
		p = float64(p*s) + tanhP2
		q := float64((s+tanhQ0)*s) + tanhQ1
		q = float64(q*s) + tanhQ2
		z = x + x*s*p/q
	}
	return z
}
