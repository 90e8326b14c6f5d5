package mathx

// useAVX2 selects the AVX2+FMA kernels in kernels_amd64.s. The CPU check
// picks the speed of ExpBulk, GateMatVec and GateBackprop, never their
// bytes: each kernel is bit-identical to its portable Go form, which runs
// wherever the check fails. Tests clear it to run the portable path.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers.
func hasAVX2FMA() bool

//go:noescape
func expBulk8(dst, src []float64) int

//go:noescape
func gateMatVec4(z, wT []float64, stride int, x float64, v []float64)

//go:noescape
func gateBackprop4(g, w []float64, stride int, dz *[4]float64, v, dv []float64)
