package main

import (
	"math"
	"sort"
	"time"
)

// nSlices is how many equal slices the measured window is cut into. Every
// throughput, latency and CPU figure is the mean of the middle half of the
// per-slice values (midMeanOver), which discards the two highest and the two
// lowest of ten: slices disturbed by a neighbour on the box.
const nSlices = 10

// Request classes. Percentiles are only ever taken within one class: a
// median across a 4 ms class and a 100 ms class sits on the boundary and
// flips between them from run to run.
type reqClass uint8

const (
	classAck    reqClass = iota // one ingest batch acknowledged
	classWide                   // query over all preloaded windows
	classNarrow                 // query over one (region, net), 15 windows
	classKeys                   // key inventory
	nClasses
)

// sample is one completed request.
type sample struct {
	at      time.Time     // completion
	lat     time.Duration // from send (closed loop) or from due time (open loop)
	class   reqClass
	ok      bool
	ops     int // operations it stands for: events in an ack, 1 for a query
	reqLen  int // request body bytes
	respLen int // response body bytes
	conn    int // acks only: which connection sent it,
	pool    int // and which of that connection's pre-encoded batches
}

// median of xs; NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf is the nearest-rank quantile with the midpoint rule at q = 0.5
// for even counts; NaN when empty. xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// relSpread is (max − min) / median, the disagreement between slices.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / median(xs)
}

// sliceOf returns which slice a completion time falls in, given the
// nSlices+1 boundaries, or -1 outside the window.
func sliceOf(bounds []time.Time, at time.Time) int {
	if at.Before(bounds[0]) || !at.Before(bounds[len(bounds)-1]) {
		return -1
	}
	// First boundary strictly after at, minus one.
	return sort.Search(len(bounds), func(i int) bool { return bounds[i].After(at) }) - 1
}

// sliced is the per-slice reduction of a window's samples.
type sliced struct {
	ops    []float64   // successful operations completed in each slice
	secs   []float64   // slice lengths
	latMs  [][]float64 // per slice, latencies of the primary class in ms
	cpuUs  []float64   // CPU the system under test used in each slice
	stolen []float64   // share of the box's CPU time the hypervisor took in each slice
	slow   []float64   // the box's slowdown against the reference speed in each slice
}

// cut assigns every successful sample to its slice. countOps says whether a
// sample's ops count toward throughput (queries do in the query workload,
// its paced ingest acks do not). The caller fills cpuUs, stolen and slow.
func cut(samples []sample, bounds []time.Time, primary reqClass, countOps func(reqClass) bool) sliced {
	n := len(bounds) - 1
	out := sliced{ops: make([]float64, n), secs: make([]float64, n), latMs: make([][]float64, n)}
	for k := 0; k < n; k++ {
		out.secs[k] = bounds[k+1].Sub(bounds[k]).Seconds()
	}
	for _, s := range samples {
		k := sliceOf(bounds, s.at)
		if k < 0 || !s.ok {
			continue
		}
		if countOps(s.class) {
			out.ops[k] += float64(s.ops)
		}
		if s.class == primary {
			out.latMs[k] = append(out.latMs[k], s.lat.Seconds()*1e3)
		}
	}
	return out
}

// opsPerS is each slice's throughput.
func (s sliced) opsPerS() []float64 {
	out := make([]float64, len(s.ops))
	for k := range out {
		out[k] = s.ops[k] / s.secs[k]
	}
	return out
}

// p50s is each slice's median primary-class latency, NaN for a slice
// without a sample.
func (s sliced) p50s() []float64 {
	out := make([]float64, len(s.latMs))
	for k, l := range s.latMs {
		out[k] = median(l)
	}
	return out
}

// cpuUsPerOp is each slice's CPU per completed operation, NaN for a slice
// that completed none.
func (s sliced) cpuUsPerOp() []float64 {
	out := make([]float64, len(s.ops))
	for k := range out {
		out[k] = math.NaN()
		if s.ops[k] > 0 {
			out[k] = s.cpuUs[k] / s.ops[k]
		}
	}
	return out
}

// A slice during which the hypervisor gave more than maxStolen of the box's
// CPU time to another guest did not measure the system under test: with two
// vCPUs feeding each other, throughput falls by about twice the stolen
// share, and on a shared host steal comes and goes in phases of seconds to
// minutes. Figures are therefore taken over the quiet slices only.
const maxStolen = 0.02

// quietSlices returns the indices of the slices to take a figure over: the
// quiet ones, or, when fewer than need were quiet, the need least stolen —
// such a run cannot be saved, and quiet is false so that it says so.
func quietSlices(stolen []float64, need int) (use []int, quiet bool) {
	for k, s := range stolen {
		if s <= maxStolen {
			use = append(use, k)
		}
	}
	if len(use) >= min(need, len(stolen)) {
		return use, true
	}
	use = use[:0]
	for k := range stolen {
		use = append(use, k)
	}
	sort.SliceStable(use, func(i, j int) bool { return stolen[use[i]] < stolen[use[j]] })
	use = use[:need]
	sort.Ints(use)
	return use, false
}

// medianOver is the median of the values at the given indices, NaNs left
// out.
func medianOver(vals []float64, use []int) float64 {
	var xs []float64
	for _, k := range use {
		if !math.IsNaN(vals[k]) {
			xs = append(xs, vals[k])
		}
	}
	return median(xs)
}

// midMeanOver is the mean of the middle half of the values at the given
// indices, NaNs left out: the lowest and the highest quarter (rounded down)
// are dropped. Like the median it ignores a few disturbed slices on either
// side; unlike it, it does not hang on the two middle slices alone, which on a
// window whose cost climbs steadily (state grows with the wall clock) are
// always the fifth and the sixth — a fifth of the data.
func midMeanOver(vals []float64, use []int) float64 {
	var xs []float64
	for _, k := range use {
		if !math.IsNaN(vals[k]) {
			xs = append(xs, vals[k])
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	xs = xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classLatMs collects the window's successful latencies of one class.
func classLatMs(samples []sample, bounds []time.Time, class reqClass) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.class == class && sliceOf(bounds, s.at) >= 0 {
			out = append(out, s.lat.Seconds()*1e3)
		}
	}
	return out
}

// dueTimes is the open-loop schedule: request k is due at start + k·period,
// whatever happened to request k−1.
type dueTimes struct {
	start  time.Time
	period time.Duration
	sent   int
	late   int       // sends the generator itself began more than lateAfter late
	lateMs []float64 // how late the generator began each send
}

const lateAfter = time.Millisecond

// next returns the due time of the next request and advances the schedule.
func (d *dueTimes) next() time.Time {
	due := d.start.Add(time.Duration(d.sent) * d.period)
	d.sent++
	return due
}

// began records when the request due at due was actually sent, on a
// connection that became free at free. Waiting for the previous answer is
// the system's delay and is already in the request's latency (timed from
// due); only what the generator added on top counts as its own lateness.
func (d *dueTimes) began(due, free, sentAt time.Time) {
	ready := due
	if free.After(due) {
		ready = free
	}
	d.lateMs = append(d.lateMs, sentAt.Sub(ready).Seconds()*1e3)
	if sentAt.Sub(ready) > lateAfter {
		d.late++
	}
}
