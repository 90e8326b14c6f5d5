package predict

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
	"edgescope/internal/workload"
)

// synthetic builds a seasonal series with controllable noise.
func synthetic(n, period int, amp, noise float64, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 10 + amp*math.Sin(2*math.Pi*float64(i)/float64(period)) + r.Normal(0, noise)
	}
	return out
}

func TestHoltWintersLearnsSeasonality(t *testing.T) {
	const period = 48
	data := synthetic(period*28, period, 5, 0.3, 1)
	split := period * 21
	hw := NewHoltWinters(period)
	pred, err := hw.FitPredict(data[:split], data[split:])
	if err != nil {
		t.Fatal(err)
	}
	rmse := stats.RMSE(pred, data[split:])
	if rmse > 1.0 {
		t.Fatalf("HW RMSE = %.3f on clean seasonal data, want <1", rmse)
	}
	// Must beat a naive last-value-of-season predictor's error bound of the
	// raw amplitude.
	if rmse > 2 {
		t.Fatal("HW failed to learn the cycle")
	}
}

func TestHoltWintersBeatsMeanOnSeasonal(t *testing.T) {
	const period = 24
	data := synthetic(period*20, period, 8, 0.5, 2)
	split := period * 15
	hw := NewHoltWinters(period)
	pred, err := hw.FitPredict(data[:split], data[split:])
	if err != nil {
		t.Fatal(err)
	}
	test := data[split:]
	m := stats.Mean(data[:split])
	flat := make([]float64, len(test))
	for i := range flat {
		flat[i] = m
	}
	if stats.RMSE(pred, test) >= stats.RMSE(flat, test) {
		t.Fatal("HW no better than predicting the mean")
	}
}

func TestHoltWintersValidation(t *testing.T) {
	hw := NewHoltWinters(48)
	if _, err := hw.FitPredict(make([]float64, 10), nil); err == nil {
		t.Fatal("expected error for short training data")
	}
	hw2 := NewHoltWinters(1)
	if _, err := hw2.FitPredict(make([]float64, 100), nil); err == nil {
		t.Fatal("expected error for period 1")
	}
	hw3 := NewHoltWinters(4)
	hw3.Alpha = 2
	if _, err := hw3.FitPredict(make([]float64, 100), nil); err == nil {
		t.Fatal("expected error for bad alpha")
	}
}

func TestLSTMWeightCount(t *testing.T) {
	l := NewLSTM(1)
	// Paper: 1 layer, 24 units, 2,496 weights.
	l.init()
	if got := len(l.wx) + len(l.b); got != 2496 {
		t.Fatalf("weights = %d, want 2496", got)
	}
}

func TestLSTMLearnsSeasonality(t *testing.T) {
	const period = 24
	data := synthetic(period*12, period, 5, 0.2, 3)
	split := period * 9
	l := NewLSTM(4)
	l.Epochs = 6
	l.Window = period
	pred, err := l.FitPredict(data[:split], data[split:])
	if err != nil {
		t.Fatal(err)
	}
	test := data[split:]
	rmse := stats.RMSE(pred, test)
	// LSTM must beat the constant-mean predictor decisively.
	m := stats.Mean(data[:split])
	flat := make([]float64, len(test))
	for i := range flat {
		flat[i] = m
	}
	if rmse >= stats.RMSE(flat, test)*0.8 {
		t.Fatalf("LSTM RMSE %.3f did not beat mean baseline %.3f", rmse, stats.RMSE(flat, test))
	}
}

func TestLSTMDeterministic(t *testing.T) {
	data := synthetic(24*8, 24, 3, 0.2, 5)
	run := func() []float64 {
		l := NewLSTM(7)
		l.Epochs = 2
		l.Window = 24
		pred, err := l.FitPredict(data[:24*6], data[24*6:])
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LSTM training not deterministic")
		}
	}
}

func TestLSTMValidation(t *testing.T) {
	l := NewLSTM(1)
	if _, err := l.FitPredict(make([]float64, 5), nil); err == nil {
		t.Fatal("expected error for short training data")
	}
	l2 := NewLSTM(1)
	l2.Hidden = 0
	if _, err := l2.FitPredict(make([]float64, 500), nil); err == nil {
		t.Fatal("expected error for zero hidden units")
	}
}

func TestLSTMConstantSeries(t *testing.T) {
	// Zero-variance input exercises the scale==0 guard.
	data := make([]float64, 200)
	for i := range data {
		data[i] = 42
	}
	l := NewLSTM(2)
	l.Epochs = 1
	l.Window = 24
	pred, err := l.FitPredict(data[:150], data[150:])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pred {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatal("non-finite prediction on constant series")
		}
	}
}

func TestEvaluateFigure14Shape(t *testing.T) {
	// Small edge and cloud traces; HW only (LSTM is exercised separately —
	// per-VM training is too slow for a full sweep in unit tests).
	nep, err := workload.GenerateNEP(rng.New(20), workload.Options{Apps: 10, Days: 8})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := workload.GenerateCloud(rng.New(21), workload.Options{Apps: 40, Days: 8})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxVMs: 60, Models: []string{"holt-winters"}}
	rn, err := Evaluate(nep, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Evaluate(cloud, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rn) == 0 || len(rc) == 0 {
		t.Fatal("no results")
	}
	// Paper Fig 14: edge workloads predict better (max-CPU HW error 2.4% vs
	// 8.5% on cloud).
	en := MedianRMSE(rn, "holt-winters", MaxCPU)
	ec := MedianRMSE(rc, "holt-winters", MaxCPU)
	if en >= ec {
		t.Fatalf("edge max-CPU RMSE %.2f should be below cloud %.2f", en, ec)
	}
	// Mean-CPU prediction is easier than max for both platforms.
	if mn := MedianRMSE(rn, "holt-winters", MeanCPU); mn > en {
		t.Fatalf("mean-CPU RMSE %.2f should not exceed max-CPU %.2f", mn, en)
	}
}

func TestEvaluateLSTMOnFewVMs(t *testing.T) {
	nep, err := workload.GenerateNEP(rng.New(22), workload.Options{Apps: 3, Days: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(nep, Options{MaxVMs: 2, Models: []string{"lstm"}, LSTMEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // 2 VMs × 2 targets
		t.Fatalf("results = %d, want 4", len(res))
	}
	for _, r := range res {
		if math.IsNaN(r.RMSE) || r.RMSE < 0 {
			t.Fatalf("bad RMSE %v", r.RMSE)
		}
	}
}

func TestEvaluateRejectsBadWindow(t *testing.T) {
	d := evalDataset(8)
	d.VMs[0] = withInterval(d.VMs[0], 7*time.Minute) // the 30-minute window is no multiple of it
	if _, err := Evaluate(d, Options{MaxVMs: 1}); err == nil {
		t.Fatal("expected window-multiple error")
	}
}

// fixed is a hand-built VM's Source: it replays the samples it holds.
type fixed struct{ s *timeseries.Series }

func (f fixed) Fill(dst *timeseries.Series) {
	copy(dst.Refill(f.s.Start, f.s.Interval, f.s.Len()), f.s.Values)
}

func (f fixed) Interval() time.Duration { return f.s.Interval }

// idleBW is the bandwidth of predict's hand-built VMs, which nothing here
// reads: one 15-minute sample.
var idleBW = timeseries.New(time.Time{}, 15*time.Minute, []float64{1})

// withCPU builds v with the CPU samples cpu.
func withCPU(v vm.VM, cpu *timeseries.Series) *vm.VM {
	return vm.New(v, cpu, fixed{cpu}, idleBW, fixed{idleBW})
}

// evalDataset is a hand-built trace of 5-minute seasonal CPU series, one
// per entry of days; a 1-day series is too short for the 3:1 split.
func evalDataset(days ...int) *vm.Dataset {
	d := &vm.Dataset{}
	for i, n := range days {
		vals := synthetic(n*288, 288, 4, 0.5, uint64(100+i))
		d.VMs = append(d.VMs, withCPU(vm.VM{}, timeseries.New(time.Time{}, 5*time.Minute, vals)))
	}
	return d
}

// withInterval returns v with its CPU samples relabelled at interval.
func withInterval(v *vm.VM, interval time.Duration) *vm.VM {
	var cpu timeseries.Series
	v.CPUSeries(&cpu)
	return withCPU(*v, timeseries.New(cpu.Start, interval, cpu.Values))
}

// TestEvaluateWorkerCountInvariance: the per-VM fan-out is scheduling only.
// Both models, and a series the split skips, give the same results in the
// same order at 1, 2 and 8 workers.
func TestEvaluateWorkerCountInvariance(t *testing.T) {
	d := evalDataset(8, 8, 1, 8, 8, 8, 8)
	run := func(workers int) []Result {
		res, err := Evaluate(d, Options{LSTMEpochs: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	if len(want) != 6*4 { // 6 long VMs × 2 targets × 2 models
		t.Fatalf("results = %d, want 24", len(want))
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d results differ from workers=1:\n%+v\n%+v", workers, got, want)
		}
	}
}

// TestEvaluateSameErrorAtAnyWorkerCount: a bad input names the same VM
// whichever worker reaches an error first.
func TestEvaluateSameErrorAtAnyWorkerCount(t *testing.T) {
	mixed := evalDataset(8, 8, 8, 8)
	mixed.VMs[2] = withInterval(mixed.VMs[2], 7*time.Minute)
	mixed.VMs[3] = withInterval(mixed.VMs[3], 11*time.Minute)
	// Every model is unknown; VM 0 is skipped as too short, so a serial loop
	// stops at VM 1.
	allFail := evalDataset(1, 8, 8, 8, 8, 8)
	for _, tc := range []struct {
		name string
		d    *vm.Dataset
		opts Options
		want string
	}{
		{"mixed-interval", mixed, Options{}, "window 30m0s not a multiple of series interval 7m0s"},
		{"unknown-model", allFail, Options{Models: []string{"prophet"}}, `unknown model "prophet"`},
	} {
		for _, workers := range []int{1, 2, 8} {
			tc.opts.Workers = workers
			res, err := Evaluate(tc.d, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s workers=%d: err = %v, want it to contain %q", tc.name, workers, err, tc.want)
			}
			if res != nil {
				t.Errorf("%s workers=%d: results returned beside an error", tc.name, workers)
			}
		}
	}
}

// TestEvaluateVMNamesFitError: a fit error names the VM and the model. The
// split Evaluate applies skips exactly the series Holt-Winters would reject
// (fewer than two seasons of training data), and the window and period are
// fixed, so no Evaluate input reaches a fit error; a period of 1 does.
func TestEvaluateVMNamesFitError(t *testing.T) {
	d := evalDataset(8)
	var cpu, buf timeseries.Series
	res := make([]Result, len(targets))
	err := evaluateVM(1, d.VMs[0].CPUSeries(&cpu), &buf, res, 1, Options{Models: []string{"holt-winters"}})
	if want := "predict: VM 1 holt-winters: predict: period 1 must exceed 1"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestBuildModelUnknown(t *testing.T) {
	if _, err := buildModel("prophet", 48, 1, Options{}); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestTargetString(t *testing.T) {
	if MaxCPU.String() != "max-cpu" || MeanCPU.String() != "mean-cpu" {
		t.Fatal("Target String broken")
	}
}
