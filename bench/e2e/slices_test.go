package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuantiles(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
		{[]float64{5}, 0.99, 5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := quantileOf(c.xs, c.q); got != c.want {
			t.Errorf("quantileOf(%v, %v) = %v, want %v", in, c.q, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("quantileOf reordered its input %v → %v", in, c.xs)
			}
		}
	}
}

// window of ten 1 s slices starting at base.
func testBounds(base time.Time) []time.Time {
	b := make([]time.Time, nSlices+1)
	for i := range b {
		b[i] = base.Add(time.Duration(i) * time.Second)
	}
	return b
}

func TestSliceOf(t *testing.T) {
	base := time.Unix(1000, 0)
	b := testBounds(base)
	for _, c := range []struct {
		off  time.Duration
		want int
	}{
		{-time.Nanosecond, -1},
		{0, 0},
		{999 * time.Millisecond, 0},
		{time.Second, 1},
		{9*time.Second + 999*time.Millisecond, 9},
		{10 * time.Second, -1},
	} {
		if got := sliceOf(b, base.Add(c.off)); got != c.want {
			t.Errorf("sliceOf(+%v) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestSliceFiguresDiscardDisturbedSlices(t *testing.T) {
	base := time.Unix(1000, 0)
	b := testBounds(base)
	var samples []sample
	for k := 0; k < nSlices; k++ {
		n, lat := 100, 5*time.Millisecond
		if k == 2 || k == 7 { // a neighbour stole the box for two slices
			n, lat = 60, 30*time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := base.Add(time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond)
			samples = append(samples, sample{at: at, lat: lat, class: classAck, ok: true, ops: 500})
		}
	}
	// Warm-up and straggler samples lie outside the window and must not count.
	samples = append(samples,
		sample{at: base.Add(-time.Second), lat: time.Second, class: classAck, ok: true, ops: 500},
		sample{at: base.Add(11 * time.Second), lat: time.Second, class: classAck, ok: true, ops: 500})
	// A failed request has no latency sample and completes no operation.
	samples = append(samples, sample{at: base.Add(500 * time.Millisecond), lat: time.Hour, class: classAck, ops: 500})

	sl := cut(samples, b, classAck, func(c reqClass) bool { return c == classAck })
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := midMeanOver(sl.opsPerS(), all); got != 50_000 {
		t.Errorf("ops_per_s = %v, want 50000 (the undisturbed slices)", got)
	}
	if got := midMeanOver(sl.p50s(), all); got != 5 {
		t.Errorf("p50_ms = %v, want 5", got)
	}
	if got := sl.opsPerS()[2]; got != 30_000 {
		t.Errorf("disturbed slice reads %v ops/s, want 30000", got)
	}
}

func TestPercentilesStayWithinOneClass(t *testing.T) {
	base := time.Unix(1000, 0)
	b := testBounds(base)
	var samples []sample
	for i := 0; i < 300; i++ {
		at := base.Add(time.Duration(i) * 30 * time.Millisecond)
		switch i % 3 {
		case 0:
			samples = append(samples, sample{at: at, lat: 100 * time.Millisecond, class: classWide, ok: true, ops: 1})
		case 1:
			samples = append(samples, sample{at: at, lat: 4 * time.Millisecond, class: classNarrow, ok: true, ops: 1})
		default:
			samples = append(samples, sample{at: at, lat: 40 * time.Millisecond, class: classAck, ok: true, ops: 50})
		}
	}
	sl := cut(samples, b, classWide, func(c reqClass) bool { return c != classAck })
	if got := median(sl.p50s()); got != 100 {
		t.Errorf("wide p50 = %v ms, want 100: another class leaked in", got)
	}
	var ops float64
	for _, o := range sl.ops {
		ops += o
	}
	if ops != 200 {
		t.Errorf("counted %v operations, want the 200 queries and none of the ingest acks", ops)
	}
	if got := median(classLatMs(samples, b, classNarrow)); got != 4 {
		t.Errorf("narrow p50 = %v ms, want 4", got)
	}
}

func TestDetrendedSpreadIgnoresTheTrendNotTheDip(t *testing.T) {
	trend := []float64{118, 114, 110, 106, 102, 98, 94, 90, 86, 82}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := detrendedSpread(trend, all); got > 1e-9 {
		t.Errorf("a pure trend has detrended spread %v, want 0", got)
	}
	if got := relSpread(trend); got < 0.3 {
		t.Errorf("the raw spread of the trend is %v, want > 0.3", got)
	}
	dipped := append([]float64(nil), trend...)
	dipped[4] *= 0.6
	if got := detrendedSpread(dipped, all); got < 0.25 {
		t.Errorf("a 40%% dip has detrended spread %v, want > 0.25", got)
	}
	if got := detrendedSpread(dipped, []int{0, 1, 2, 3, 5, 6, 7, 8, 9}); got > 1e-9 {
		t.Errorf("with the dipped slice left out the spread is %v, want 0", got)
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	d := &dueTimes{start: start, period: 100 * time.Millisecond}
	var free time.Time

	// Request 0: on time.
	due := d.next()
	if !due.Equal(start) {
		t.Fatalf("request 0 due at %v, want %v", due, start)
	}
	d.began(due, free, due.Add(200*time.Microsecond))

	// Request 1: the generator woke 3 ms late — its own lateness.
	due = d.next()
	if want := start.Add(100 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("request 1 due at %v, want %v", due, want)
	}
	d.began(due, free, due.Add(3*time.Millisecond))

	// Request 2: the previous answer took until 60 ms past the due time and
	// the send left at once. The schedule did not slip — the latency, timed
	// from due, carries the 60 ms — and the generator was not late.
	free = start.Add(260 * time.Millisecond)
	due = d.next()
	d.began(due, free, free.Add(100*time.Microsecond))

	// Request 3 is still due on the original grid.
	if due, want := d.next(), start.Add(300*time.Millisecond); !due.Equal(want) {
		t.Fatalf("request 3 due at %v, want %v: the schedule slipped", due, want)
	}
	if d.sent != 4 || d.late != 1 {
		t.Errorf("sent %d late %d, want 4 and 1", d.sent, d.late)
	}
}

func TestFiguresComeFromQuietSlices(t *testing.T) {
	ops := []float64{100, 60, 98, 55, 96, 94, 50, 92, 90, 88}
	stolen := []float64{0, 0.21, 0.003, 0.30, 0, 0.02, 0.12, 0, 0.01, 0}
	use, quiet := quietSlices(stolen, 3)
	if want := []int{0, 2, 4, 5, 7, 8, 9}; !quiet || !equalInts(use, want) {
		t.Fatalf("quietSlices = %v quiet %v, want %v and true", use, quiet, want)
	}
	if got := medianOver(ops, use); got != 94 {
		t.Errorf("median over quiet slices = %v, want 94", got)
	}
	if got := midMeanOver(ops, use); got != 94 { // 98 96 94 92 90 of the seven
		t.Errorf("mean of the middle half of the quiet slices = %v, want 94", got)
	}

	// A run stolen throughout cannot be saved: it reports from the least
	// stolen slices and says it did.
	stolen = []float64{0.30, 0.25, 0.33, 0.21, 0.40, 0.01, 0.35, 0.22, 0.31, 0.38}
	use, quiet = quietSlices(stolen, 3)
	if want := []int{3, 5, 7}; quiet || !equalInts(use, want) {
		t.Fatalf("quietSlices = %v quiet %v, want %v and false", use, quiet, want)
	}

	// Bare metal: nothing is ever stolen, everything counts.
	use, quiet = quietSlices(make([]float64, 2), 3)
	if !quiet || len(use) != 2 {
		t.Fatalf("quietSlices on bare metal = %v quiet %v", use, quiet)
	}

	if got := medianOver([]float64{1, math.NaN(), 3}, []int{0, 1, 2}); got != 2 {
		t.Errorf("medianOver kept a NaN: %v", got)
	}
	if got := midMeanOver([]float64{1, math.NaN(), 3}, []int{0, 1, 2}); got != 2 {
		t.Errorf("midMeanOver kept a NaN: %v", got)
	}
	// A climbing window: the figure rests on the middle six slices, not two.
	climb := []float64{10, 11, 12, 13, 14, 18, 19, 20, 21, 22}
	if got := midMeanOver(climb, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 16 {
		t.Errorf("midMeanOver of a climbing window = %v, want 16", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSlowdownIsTheMeanProbeCostOfTheInterval(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int, ns float64) speedSample {
		return speedSample{base.Add(time.Duration(ms) * time.Millisecond), ns}
	}
	samples := []speedSample{
		at(-1, 9*probeRefNs), // before the interval
		at(0, 1.0*probeRefNs),
		at(500, 1.5*probeRefNs),
		at(999, 2.0*probeRefNs),
		at(1000, 9*probeRefNs), // the end is exclusive
	}
	if got := slowdownOf(samples, base, base.Add(time.Second)); got != 1.5 {
		t.Errorf("slowdown = %v, want 1.5", got)
	}
	if got := slowdownOf(samples, base.Add(2*time.Second), base.Add(3*time.Second)); !math.IsNaN(got) {
		t.Errorf("slowdown of an interval without a sample = %v, want NaN", got)
	}
}

func TestAtRefSpeedShrinksTimesAndGrowsRates(t *testing.T) {
	slow := []float64{1, 1.25, 2}
	times := atRefSpeed([]float64{10, 10, 10}, slow, false)
	rates := atRefSpeed([]float64{100, 100, 100}, slow, true)
	for k, want := range []struct{ time, rate float64 }{{10, 100}, {8, 125}, {5, 200}} {
		if times[k] != want.time || rates[k] != want.rate {
			t.Errorf("slice %d: time %v rate %v, want %v and %v", k, times[k], rates[k], want.time, want.rate)
		}
	}
	// A box twice as slow reads half the rate and twice the time; at
	// reference speed both runs read the same.
	if a, b := atRefSpeed([]float64{50}, []float64{2}, true), atRefSpeed([]float64{100}, []float64{1}, true); a[0] != b[0] {
		t.Errorf("rates at reference speed differ: %v vs %v", a[0], b[0])
	}
}

func TestProbeDoesItsFixedWork(t *testing.T) {
	d, err := probeOnce([]byte(probeDoc))
	if err != nil {
		t.Fatalf("the probe's document does not round-trip: %v", err)
	}
	if d <= 0 {
		t.Errorf("probe took %v of thread CPU time", d)
	}
}
