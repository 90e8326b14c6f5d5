package predict

import (
	"fmt"
	"math"

	"edgescope/internal/mathx"
	"edgescope/internal/rng"
)

// LSTM is a single-layer LSTM regressor with a linear read-out, trained by
// truncated backpropagation through time with Adam. With the paper's
// configuration (1 input, 24 hidden units) it carries 4·24·(1+24+1) = 2,496
// gate weights, matching the model of §4.4.
type LSTM struct {
	// Hidden is the number of hidden units (paper: 24).
	Hidden int
	// Epochs over the training sequence (default 8).
	Epochs int
	// Window is the truncated-BPTT length (default 48 = one day of
	// 30-minute samples).
	Window int
	// LearningRate for Adam (default 0.01).
	LearningRate float64
	// Seed for weight initialisation.
	Seed uint64

	h int // cached Hidden

	// Parameters: wx maps [x; hPrev] (1+h wide) to the 4 gate blocks
	// (i,f,g,o), each h units; b is the gate bias; wo/bo the read-out.
	// wxT is wx transposed for the forward matvec, in the same allocation;
	// refreshT copies wx into it after every change to wx.
	wx  []float64 // (4h) × (1+h), row-major
	wxT []float64 // (1+h) × (4h), row-major
	b   []float64 // 4h
	wo  []float64 // h
	bo  float64

	// Forward-pass scratch: zbuf holds the 4h pre-activations of one
	// step, abuf the 3h sigmoid-gate arguments batched through one
	// mathx.ExpBulk call (bit-identical to per-call mathx.Exp).
	zbuf, abuf []float64

	// Normalisation fitted on train.
	lo, scale float64
}

// NewLSTM returns the paper-sized model (24 hidden units).
func NewLSTM(seed uint64) *LSTM {
	return &LSTM{Hidden: 24, Epochs: 8, Window: 48, LearningRate: 0.01, Seed: seed}
}

// Name implements Forecaster.
func (l *LSTM) Name() string { return "lstm" }

func (l *LSTM) init() {
	l.h = l.Hidden
	r := rng.New(l.Seed)
	in := 1 + l.h
	n := 4 * l.h * in
	buf := make([]float64, 2*n)
	l.wx, l.wxT = buf[:n:n], buf[n:]
	bound := 1 / math.Sqrt(float64(in))
	for i := range l.wx {
		l.wx[i] = r.Uniform(-bound, bound)
	}
	l.refreshT()
	l.b = make([]float64, 4*l.h)
	// Forget-gate bias starts at 1 (standard practice for gradient flow).
	for i := l.h; i < 2*l.h; i++ {
		l.b[i] = 1
	}
	l.wo = make([]float64, l.h)
	for i := range l.wo {
		l.wo[i] = r.Uniform(-bound, bound)
	}
	l.zbuf = make([]float64, 4*l.h)
	l.abuf = make([]float64, 3*l.h)
}

// refreshT copies wx into its transpose wxT.
func (l *LSTM) refreshT() {
	rows, in := 4*l.h, 1+l.h
	for r := 0; r < rows; r++ {
		for k, w := range l.wx[r*in : (r+1)*in] {
			l.wxT[k*rows+r] = w
		}
	}
}

// cell state carried across steps.
type cellState struct{ h, c []float64 }

func (l *LSTM) newState() cellState {
	return cellState{h: make([]float64, l.h), c: make([]float64, l.h)}
}

// stepRecord stores one timestep's activations for backprop. Its nine
// per-unit vectors are sub-slices of one flat slab owned by lstmScratch —
// the per-step seven-make allocation pattern here was where the bulk of
// Figure 14's 273k allocations per run lived.
type stepRecord struct {
	x          float64
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64
	c, tanhC   []float64
	h          []float64
	yhat       float64
}

// recVectors is the number of length-h vectors a stepRecord carries.
const recVectors = 9

// lstmScratch holds every buffer one FitPredict call needs, allocated once
// and reused across BPTT windows and epochs: the step records (backed by a
// single flat slab), the gradient slabs, the four swap buffers that carry
// dh/dc across steps, and the one-element read-out vectors Adam updates.
type lstmScratch struct {
	slab []float64
	recs []stepRecord

	gWx, gB, gWo []float64
	dh           []float64
	dhA, dcA     []float64 // swap pair: dhNext/dcNext
	dhB, dcB     []float64 // swap pair: dhPrev/dcPrev
	bo, gBo      []float64
}

func newLSTMScratch(h, steps, in int) *lstmScratch {
	sc := &lstmScratch{
		slab: make([]float64, steps*recVectors*h),
		recs: make([]stepRecord, steps),
		gWx:  make([]float64, 4*h*in),
		gB:   make([]float64, 4*h),
		gWo:  make([]float64, h),
		dh:   make([]float64, h),
		dhA:  make([]float64, h),
		dcA:  make([]float64, h),
		dhB:  make([]float64, h),
		dcB:  make([]float64, h),
		bo:   make([]float64, 1),
		gBo:  make([]float64, 1),
	}
	for k := range sc.recs {
		base := k * recVectors * h
		cut := func(i int) []float64 { return sc.slab[base+i*h : base+(i+1)*h : base+(i+1)*h] }
		sc.recs[k] = stepRecord{
			hPrev: cut(0), cPrev: cut(1),
			i: cut(2), f: cut(3), g: cut(4), o: cut(5),
			c: cut(6), tanhC: cut(7), h: cut(8),
		}
	}
	return sc
}

// forward runs one step into rec (whose vectors are already sized h) and
// updates st.
//
// The gate matvec is mathx.GateMatVec over the transposed weights: each of
// the 4h pre-activations is its own chain, w·x then the hPrev terms in k
// order, bit-identical to the row-major dot product. The three sigmoid
// gates' exponentials are then batched through one ExpBulk call.
// TestLSTMFitPredictGolden pins the whole pass to hex goldens.
func (l *LSTM) forward(x float64, st *cellState, rec *stepRecord) {
	h := l.h
	rec.x = x
	copy(rec.hPrev, st.h)
	copy(rec.cPrev, st.c)
	z := l.zbuf
	mathx.GateMatVec(z, l.wxT, x, rec.hPrev)

	// Batched activations: sigmoid(v) = 1/(1+exp(-v)), with the three
	// sigmoid gates' exp(-v) evaluated in one bulk call.
	a := l.abuf
	b := l.b
	for u := 0; u < h; u++ {
		a[0*h+u] = -(z[0*h+u] + b[0*h+u])
		a[1*h+u] = -(z[1*h+u] + b[1*h+u])
		a[2*h+u] = -(z[3*h+u] + b[3*h+u])
	}
	mathx.ExpBulk(a, a)
	for u := 0; u < h; u++ {
		rec.i[u] = 1 / (1 + a[0*h+u])
		rec.f[u] = 1 / (1 + a[1*h+u])
		rec.g[u] = mathx.Tanh(z[2*h+u] + b[2*h+u])
		rec.o[u] = 1 / (1 + a[2*h+u])
		rec.c[u] = rec.f[u]*rec.cPrev[u] + rec.i[u]*rec.g[u]
		rec.tanhC[u] = mathx.Tanh(rec.c[u])
		rec.h[u] = rec.o[u] * rec.tanhC[u]
	}
	yhat := l.bo
	wo := l.wo[:h]
	for u, hv := range rec.h {
		yhat += wo[u] * hv
	}
	rec.yhat = yhat
	copy(st.h, rec.h)
	copy(st.c, rec.c)
}

// adam holds optimiser moments for one parameter vector.
type adam struct {
	m, v []float64
	t    int
}

func newAdam(n int) *adam { return &adam{m: make([]float64, n), v: make([]float64, n)} }

func (a *adam) update(w, g []float64, lr float64) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	a.t++
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for i := range w {
		a.m[i] = b1*a.m[i] + (1-b1)*g[i]
		a.v[i] = b2*a.v[i] + (1-b2)*g[i]*g[i]
		w[i] -= lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + eps)
	}
}

// FitPredict implements Forecaster: trains on train with truncated BPTT and
// then rolls through test, predicting one step ahead.
func (l *LSTM) FitPredict(train, test []float64) ([]float64, error) {
	if l.Hidden <= 0 {
		return nil, fmt.Errorf("predict: LSTM hidden size must be positive")
	}
	if l.Epochs <= 0 {
		l.Epochs = 8
	}
	if l.Window <= 0 {
		l.Window = 48
	}
	if l.LearningRate <= 0 {
		l.LearningRate = 0.01
	}
	if len(train) < l.Window+1 {
		return nil, fmt.Errorf("predict: need ≥%d training samples, have %d", l.Window+1, len(train))
	}
	l.init()

	// Min-max normalisation from the training window.
	l.lo, l.scale = math.Inf(1), 0
	hi := math.Inf(-1)
	for _, x := range train {
		if x < l.lo {
			l.lo = x
		}
		if x > hi {
			hi = x
		}
	}
	l.scale = hi - l.lo
	if l.scale == 0 {
		l.scale = 1
	}
	norm := func(x float64) float64 { return (x - l.lo) / l.scale }
	denorm := func(y float64) float64 { return y*l.scale + l.lo }

	in := 1 + l.h
	optWx := newAdam(len(l.wx))
	optB := newAdam(len(l.b))
	optWo := newAdam(len(l.wo))
	optBo := newAdam(1)

	// One scratch serves every window of every epoch (and the prediction
	// roll below): the old per-window gradient buffers and per-step records
	// are now zeroed slabs, not fresh allocations.
	sc := newLSTMScratch(l.h, l.Window, in)

	for epoch := 0; epoch < l.Epochs; epoch++ {
		st := l.newState()
		for begin := 0; begin+1 < len(train); begin += l.Window {
			end := begin + l.Window
			if end+1 > len(train) {
				end = len(train) - 1
			}
			// Forward through the window.
			recs := sc.recs[:end-begin]
			for t := begin; t < end; t++ {
				l.forward(norm(train[t]), &st, &recs[t-begin])
			}
			// Backward.
			gWx, gB, gWo := sc.gWx, sc.gB, sc.gWo
			clear(gWx)
			clear(gB)
			clear(gWo)
			var gBo float64
			dhNext, dcNext := sc.dhA, sc.dcA
			dhPrev, dcPrev := sc.dhB, sc.dcB
			clear(dhNext)
			clear(dcNext)
			for k := len(recs) - 1; k >= 0; k-- {
				rec := &recs[k]
				target := norm(train[begin+k+1])
				dy := 2 * (rec.yhat - target) / float64(len(recs))
				gBo += dy
				dh := sc.dh
				for u := 0; u < l.h; u++ {
					gWo[u] += dy * rec.h[u]
					dh[u] = dy*l.wo[u] + dhNext[u]
				}
				// dhPrev accumulates and must start from zero each step;
				// dcPrev is fully assigned below and needs no clear.
				clear(dhPrev)
				// Per unit, mathx.GateBackprop scatters the weight
				// gradient and gathers dhPrev over k. Per dhPrev[k] the four
				// contributions add in i,f,g,o order, unit after unit, and
				// each gWx cell keeps its single accumulator: the order the
				// goldens of TestLSTMFitPredictGolden were captured in.
				hu := l.h
				for u := 0; u < hu; u++ {
					do := dh[u] * rec.tanhC[u]
					dc := dh[u]*rec.o[u]*(1-rec.tanhC[u]*rec.tanhC[u]) + dcNext[u]
					di := dc * rec.g[u]
					dg := dc * rec.i[u]
					df := dc * rec.cPrev[u]
					dcPrev[u] = dc * rec.f[u]

					dzi := di * rec.i[u] * (1 - rec.i[u])
					dzf := df * rec.f[u] * (1 - rec.f[u])
					dzg := dg * (1 - rec.g[u]*rec.g[u])
					dzo := do * rec.o[u] * (1 - rec.o[u])

					gB[0*hu+u] += dzi
					gB[1*hu+u] += dzf
					gB[2*hu+u] += dzg
					gB[3*hu+u] += dzo
					row, stride := u*in, hu*in
					gWx[0*stride+row] += dzi * rec.x
					gWx[1*stride+row] += dzf * rec.x
					gWx[2*stride+row] += dzg * rec.x
					gWx[3*stride+row] += dzo * rec.x
					mathx.GateBackprop(gWx[row+1:], l.wx[row+1:], stride,
						[4]float64{dzi, dzf, dzg, dzo}, rec.hPrev, dhPrev)
				}
				dhNext, dhPrev = dhPrev, dhNext
				dcNext, dcPrev = dcPrev, dcNext
			}
			clip(gWx, 5)
			clip(gB, 5)
			clip(gWo, 5)
			optWx.update(l.wx, gWx, l.LearningRate)
			l.refreshT()
			optB.update(l.b, gB, l.LearningRate)
			optWo.update(l.wo, gWo, l.LearningRate)
			sc.bo[0], sc.gBo[0] = l.bo, gBo
			optBo.update(sc.bo, sc.gBo, l.LearningRate)
			l.bo = sc.bo[0]
		}
	}

	// Prime the state on the tail of train (the last forward's yhat predicts
	// test[0]), then roll through test one step ahead.
	st := l.newState()
	rec := &sc.recs[0]
	var lastY float64
	for _, x := range train {
		l.forward(norm(x), &st, rec)
		lastY = rec.yhat
	}
	out := make([]float64, len(test))
	for i, actual := range test {
		out[i] = denorm(lastY)
		l.forward(norm(actual), &st, rec)
		lastY = rec.yhat
	}
	return out, nil
}

// BenchForward exposes the forward kernel in isolation for benchmarks:
// it initialises the model if needed, then runs one forward step per
// element of xs through a single reused record, returning the final
// prediction so the work cannot be optimised away.
func (l *LSTM) BenchForward(xs []float64) float64 {
	if l.h == 0 {
		if l.Hidden <= 0 {
			l.Hidden = 24
		}
		l.init()
	}
	sc := newLSTMScratch(l.h, 1, 1+l.h)
	st := l.newState()
	rec := &sc.recs[0]
	for _, x := range xs {
		l.forward(x, &st, rec)
	}
	return rec.yhat
}

// clip bounds the L2 norm of a gradient vector.
func clip(g []float64, maxNorm float64) {
	var s float64
	for _, x := range g {
		s += x * x
	}
	n := math.Sqrt(s)
	if n <= maxNorm || n == 0 {
		return
	}
	f := maxNorm / n
	for i := range g {
		g[i] *= f
	}
}
