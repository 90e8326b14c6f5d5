//go:build !amd64

package mathx

// useAVX2 is false off amd64: every kernel runs its portable Go form.
var useAVX2 = false

func expBulk8(dst, src []float64) int { panic("mathx: no vector kernel on this GOARCH") }

func gateMatVec4(z, wT []float64, stride int, x float64, v []float64) {
	panic("mathx: no vector kernel on this GOARCH")
}

func gateBackprop4(g, w []float64, stride int, dz *[4]float64, v, dv []float64) {
	panic("mathx: no vector kernel on this GOARCH")
}
