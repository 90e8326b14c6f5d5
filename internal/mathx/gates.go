package mathx

// GateMatVec sets z = W·[x; v] for the len(z) × (1+len(v)) matrix W,
// read from its transpose wT, stored row-major: z[r] = wT[r]·x +
// Σ_k wT[(1+k)·len(z)+r]·v[k]. Each z[r] starts from the product wT[r]·x
// (not 0 + wT[r]·x, whose zero would lose a -0) and adds the terms in k
// order, each product rounded before its sum, so z[r] is the same
// floating-point chain as the row-major dot product over W's row r.
// wT must hold at least (1+len(v))·len(z) elements, and z must not alias
// wT or v.
func GateMatVec(z, wT []float64, x float64, v []float64) {
	m := len(z)
	if len(wT) < (1+len(v))*m {
		panic("mathx: GateMatVec wT shorter than (1+len(v))·len(z)")
	}
	r := 0
	if useAVX2 {
		r = m &^ 3
		gateMatVec4(z[:r], wT, m, x, v)
	}
	gateMatVecGo(z[r:], wT[r:], m, x, v)
}

// gateMatVecGo is GateMatVec's portable path: z[r]'s weight for x is
// wT[r] and for v[k] is wT[(1+k)·stride+r].
func gateMatVecGo(z, wT []float64, stride int, x float64, v []float64) {
	w := wT[:len(z)]
	for r := range z {
		z[r] = w[r] * x
	}
	for k, vk := range v {
		w = wT[(1+k)*stride:][:len(z)]
		for r := range z {
			z[r] += float64(w[r] * vk)
		}
	}
}

// GateBackprop is one hidden unit's step of the LSTM's backward pass over
// its four gate rows. g and w hold the unit's rows of the weight gradient
// and the weights from column 1 on, gate q's row at offset q·stride; dz
// holds the four gates' pre-activation gradients. For every k < len(v):
//
//	g[q·stride+k] += dz[q]·v[k]  for q = 0, 1, 2, 3
//	dv[k] = (((dv[k] + dz[0]·w[k]) + dz[1]·w[stride+k]) + dz[2]·w[2·stride+k]) + dz[3]·w[3·stride+k]
//
// with each product rounded before its sum. The rows must not overlap
// (stride >= len(v)), g and w must hold at least 3·stride+len(v) elements,
// dv at least len(v), and g and dv must not alias each other, w or v.
func GateBackprop(g, w []float64, stride int, dz [4]float64, v, dv []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	if stride < n || len(g) < 3*stride+n || len(w) < 3*stride+n || len(dv) < n {
		panic("mathx: GateBackprop rows overlap or are shorter than 3·stride+len(v)")
	}
	k := 0
	if useAVX2 {
		k = n &^ 3
		gateBackprop4(g, w, stride, &dz, v[:k], dv)
	}
	if k < n {
		gateBackpropGo(g[k:], w[k:], stride, &dz, v[k:], dv[k:])
	}
}

// gateBackpropGo is GateBackprop's portable path.
func gateBackpropGo(g, w []float64, stride int, dz *[4]float64, v, dv []float64) {
	n := len(v)
	g0, g1, g2, g3 := g[:n], g[stride:][:n], g[2*stride:][:n], g[3*stride:][:n]
	w0, w1, w2, w3 := w[:n], w[stride:][:n], w[2*stride:][:n], w[3*stride:][:n]
	dv = dv[:n]
	for k, vk := range v {
		g0[k] += float64(dz[0] * vk)
		g1[k] += float64(dz[1] * vk)
		g2[k] += float64(dz[2] * vk)
		g3[k] += float64(dz[3] * vk)
		s := dv[k]
		s += float64(dz[0] * w0[k])
		s += float64(dz[1] * w1[k])
		s += float64(dz[2] * w2[k])
		s += float64(dz[3] * w3[k])
		dv[k] = s
	}
}
