package mathx_test

import (
	"math"
	"testing"

	"edgescope/internal/mathx"
	"edgescope/internal/predict"
	"edgescope/internal/rng"
)

// TestLSTMFitPredictSameOnBothPaths runs predict's golden LSTM pass (the
// input, seed and epochs of TestLSTMFitPredictGolden) on the default path
// and on the portable one and demands the same bits. The golden test pins
// the default path to the committed hex values, so this pins the portable
// path to them too; where there is no AVX2 both runs are portable.
func TestLSTMFitPredictSameOnBothPaths(t *testing.T) {
	r := rng.New(42)
	const period = 48
	data := make([]float64, period*6)
	for i := range data {
		data[i] = 20 + 10*float64(i%period)/period + r.Normal(0, 0.5)
	}
	train, test := data[:period*5], data[period*5:]
	run := func(t *testing.T) []float64 {
		l := predict.NewLSTM(7)
		l.Epochs = 3
		out, err := l.FitPredict(train, test)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	def := run(t)
	var port []float64
	t.Run("portable", func(t *testing.T) {
		mathx.UsePortable(t)
		port = run(t)
	})
	for i := range def {
		if math.Float64bits(def[i]) != math.Float64bits(port[i]) {
			t.Fatalf("prediction %d: default path %x, portable %x", i, def[i], port[i])
		}
	}
}
