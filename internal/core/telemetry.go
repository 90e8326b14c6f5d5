package core

import (
	"math"
	"time"

	"edgescope/internal/netmodel"
	"edgescope/internal/report"
	"edgescope/internal/stats"
	"edgescope/internal/telemetry"
)

// ExtTelemetry replays the deterministic crowd campaign through the
// streaming telemetry pipeline (sharded ingest → windowed quantile-sketch
// rollups → merge query) and cross-checks the streaming p50/p95/p99 of the
// campaign's latency metric against the exact batch stats.Summary, overall
// and per access network. The rank-err columns report each slice's worst
// observed |CDF(streamed pXX) − XX/100| against the sketch's documented
// bound (stats.Sketch.RankErrorBound) — streaming must always land within
// 2× bound, which the telemetry tests also pin.
func (s *Suite) ExtTelemetry() *report.Table {
	st := s.LatencyStore()
	events := telemetry.LatencyEvents(st)

	ing := telemetry.NewIngestor(telemetry.Config{
		Shards: 4,
		Window: time.Minute,
		Block:  true, // lossless, deterministic replay
	})
	defer ing.Close()
	telemetry.Replay(ing, events)

	t := &report.Table{
		Title: "Extension: streaming telemetry vs batch summary (campaign RTT, ms)",
		Headers: []string{"slice", "events", "windows",
			"batch-p50", "stream-p50", "batch-p95", "stream-p95",
			"batch-p99", "stream-p99", "max-rank-err", "err-bound"},
	}

	slices := []struct {
		name   string
		net    string // query filter; "" = all
		access netmodel.Access
	}{
		{"all-access", "", 0},
		{"WiFi", "WiFi", netmodel.WiFi},
		{"LTE", "LTE", netmodel.LTE},
		{"5G", "5G", netmodel.FiveG},
	}
	for _, sl := range slices {
		// The batch side reads the median-RTT column straight off the
		// columnar substrate.
		xs := st.AppendMedianRTTs(nil, sl.access, sl.net == "")
		if len(xs) == 0 {
			continue
		}
		batch := stats.SummarizeInPlace(xs)
		res, err := ing.Query(telemetry.QuerySpec{
			Metric:    telemetry.MetricRTT,
			Net:       sl.net,
			Quantiles: []float64{0.5, 0.95, 0.99},
		})
		if err != nil {
			panic("core: telemetry query failed: " + err.Error())
		}
		maxErr, bound := 0.0, 0.0
		row := []any{sl.name, int(res.Count), res.Windows}
		for _, qe := range res.Quantiles {
			row = append(row, batch.Percentile(qe.Q*100), qe.Value)
			if e := math.Abs(batch.CDFAt(qe.Value) - qe.Q); e > maxErr {
				maxErr = e
			}
			if qe.RankError > bound {
				bound = qe.RankError
			}
		}
		row = append(row, maxErr, bound)
		t.AddRow(row...)
	}
	return t
}
