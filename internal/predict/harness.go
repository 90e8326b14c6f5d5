package predict

import (
	"fmt"
	"sync"
	"time"

	"edgescope/internal/par"
	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// Target selects which half-hour aggregate is being forecast.
type Target int

// Forecast targets of Figure 14.
const (
	MaxCPU Target = iota
	MeanCPU
)

// String names the target.
func (t Target) String() string {
	if t == MaxCPU {
		return "max-cpu"
	}
	return "mean-cpu"
}

// Options configures the Figure 14 evaluation.
type Options struct {
	// MaxVMs bounds how many VMs are evaluated (0 = all).
	MaxVMs int
	// LSTMEpochs caps LSTM training epochs (0 = default).
	LSTMEpochs int
	// Models filters which models run; empty means both.
	Models []string
	// Workers is how many VMs are fitted at once (par.Workers semantics:
	// <= 0 means one per CPU). It never changes the results.
	Workers int
}

const (
	// window is the aggregation window (paper: 30 minutes).
	window = 30 * time.Minute
	// trainFrac is the training share (paper: 3 of 4 weeks = 0.75).
	trainFrac = 0.75
)

func (o *Options) fill() {
	if len(o.Models) == 0 {
		o.Models = []string{"holt-winters", "lstm"}
	}
}

// Result is one (VM, model, target) RMSE in CPU percentage points.
type Result struct {
	Model  string
	Target Target
	RMSE   float64
}

// Evaluate runs the Figure 14 experiment over a dataset: per VM and target,
// rolling one-step-ahead forecasts on the test week, scored by RMSE.
//
// VMs are fitted in parallel over opts.Workers workers. Every (VM, target,
// model) fit is independent — the LSTM is seeded from the VM index,
// Holt-Winters draws nothing — so the results, their order (VM, then
// target, then model) and the error returned are the same at any worker
// count.
func Evaluate(d *vm.Dataset, opts Options) ([]Result, error) {
	opts.fill()
	n := len(d.VMs)
	if opts.MaxVMs > 0 && opts.MaxVMs < n {
		n = opts.MaxVMs
	}
	for vi := 0; vi < n; vi++ {
		if iv := d.VMs[vi].CPUInterval(); window%iv != 0 {
			return nil, fmt.Errorf("predict: window %v not a multiple of series interval %v",
				window, iv)
		}
	}
	period := int(24 * time.Hour / window)
	perVM := len(targets) * len(opts.Models)
	// VM vi owns slots[vi*perVM:(vi+1)*perVM]; a slot left with an empty
	// Model belongs to a skipped series, so the compaction below restores
	// exactly the order a serial loop appends in.
	slots := make([]Result, n*perVM)
	// Each worker owns two buffers that serve every VM it runs: one the
	// VM's CPU series is regenerated into, and one each (VM, target)
	// resample writes. The models only read train/test, and both are
	// consumed before the worker's next resample overwrites the buffer.
	workers := par.Workers(opts.Workers)
	cpus := make([]timeseries.Series, workers)
	series := make([]timeseries.Series, workers)
	var (
		mu     sync.Mutex
		errVM  = n
		errOut error
	)
	par.ForEachWorker(n, opts.Workers, func(w, vi int) {
		cpu := d.VMs[vi].CPUSeries(&cpus[w])
		err := evaluateVM(vi, cpu, &series[w], slots[vi*perVM:(vi+1)*perVM], period, opts)
		if err != nil {
			// Keep the lowest-index VM's error — the one a serial loop
			// would have stopped at — whichever worker fails first.
			mu.Lock()
			if vi < errVM {
				errVM, errOut = vi, err
			}
			mu.Unlock()
		}
	})
	if errOut != nil {
		return nil, errOut
	}
	out := slots[:0]
	for _, r := range slots {
		if r.Model != "" {
			out = append(out, r)
		}
	}
	return out, nil
}

var targets = [...]Target{MaxCPU, MeanCPU}

// evaluateVM fits every (target, model) pair of VM vi and writes the scores
// to res in that order; a series too short for the split leaves res
// untouched. buf is the caller's resample scratch.
func evaluateVM(vi int, cpu, buf *timeseries.Series, res []Result, period int, opts Options) error {
	k := 0
	for _, target := range targets {
		agg := timeseries.AggMax
		if target == MeanCPU {
			agg = timeseries.AggMean
		}
		cpu.ResampleInto(buf, window, agg)
		split := int(float64(buf.Len()) * trainFrac)
		if split < 2*period || buf.Len()-split < period/2 {
			continue // series too short for this split
		}
		train := buf.Values[:split]
		test := buf.Values[split:]
		for _, model := range opts.Models {
			f, err := buildModel(model, period, uint64(vi), opts)
			if err != nil {
				return err
			}
			pred, err := f.FitPredict(train, test)
			if err != nil {
				return fmt.Errorf("predict: VM %d %s: %w", vi, model, err)
			}
			res[k] = Result{Model: f.Name(), Target: target, RMSE: stats.RMSE(pred, test)}
			k++
		}
	}
	return nil
}

func buildModel(name string, period int, seed uint64, opts Options) (Forecaster, error) {
	switch name {
	case "holt-winters":
		return NewHoltWinters(period), nil
	case "lstm":
		l := NewLSTM(seed + 1)
		if opts.LSTMEpochs > 0 {
			l.Epochs = opts.LSTMEpochs
		}
		return l, nil
	default:
		return nil, fmt.Errorf("predict: unknown model %q", name)
	}
}

// RMSEs extracts the RMSE distribution for one (model, target) pair.
func RMSEs(results []Result, model string, target Target) []float64 {
	var out []float64
	for _, r := range results {
		if r.Model == model && r.Target == target {
			out = append(out, r.RMSE)
		}
	}
	return out
}

// MedianRMSE is a convenience over RMSEs.
func MedianRMSE(results []Result, model string, target Target) float64 {
	return stats.Median(RMSEs(results, model, target))
}
