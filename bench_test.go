// Package edgescope's repository-level benchmarks regenerate every table
// and figure of the paper (one benchmark per artifact, over a shared
// small-scale suite with substrates pre-built), plus ablation and
// micro-benchmarks for the design choices DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package edgescope

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"edgescope/internal/core"
	"edgescope/internal/crowd"
	"edgescope/internal/mathx"
	"edgescope/internal/netmodel"
	"edgescope/internal/obs"
	"edgescope/internal/placement"
	"edgescope/internal/predict"
	"edgescope/internal/probe"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/stats"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
	"edgescope/internal/telemetry/serve"
	"edgescope/internal/timeseries"
	"edgescope/internal/workload"

	"time"
)

// benchScenario names the scenario every artifact benchmark is sized by.
// TestMain prints it as a `scenario:` context line (alongside go test's own
// `cpu:` line) so `cmd/benchdump` tags BENCH.json with the same name —
// successive perf snapshots then compare like against like without any
// hardcoded tag in the CI pipeline.
const benchScenario = "small"

func TestMain(m *testing.M) {
	fmt.Println("scenario: " + benchScenario)
	os.Exit(m.Run())
}

var (
	suiteOnce sync.Once
	benchS    *core.Suite
)

func benchSuite() *core.Suite {
	s, err := core.NewSuiteFromSpec(scenario.MustGet(benchScenario))
	if err != nil {
		panic("bench: " + err.Error())
	}
	return s
}

// suite returns a shared suite (benchScenario-sized) with all substrates
// warm, so each benchmark measures its experiment's analysis cost.
func suite() *core.Suite {
	suiteOnce.Do(func() {
		benchS = benchSuite()
		benchS.LatencyStore()
		benchS.ThroughputObs()
		benchS.NEPTrace()
		benchS.CloudTrace()
	})
	return benchS
}

// --- end-to-end experiment engine ---

// benchmarkRunAll measures a full cold reproduction: a fresh suite per
// iteration, so substrate construction (the dominant cost) is included.
// Serial vs parallel is the PR's headline comparison; the outputs are
// byte-identical either way.
func benchmarkRunAll(b *testing.B, scenarioName string, parallelism int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSuiteFromSpec(scenario.MustGet(scenarioName))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.RunAll(context.Background(), parallelism)
		if err != nil {
			b.Fatal(err)
		}
		arts := 0
		for _, r := range results {
			if r.Artifact != nil {
				arts++
			}
		}
		if arts != 21 {
			b.Fatalf("artifacts = %d, want 21", arts)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchmarkRunAll(b, benchScenario, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchmarkRunAll(b, benchScenario, 0) }

// BenchmarkRunAllStress tracks the full reproduction at the largest built-in
// scenario (320 users, 12 repeats), where the measurement kernels — not the
// workload traces — carry most of the weight.
func BenchmarkRunAllStress(b *testing.B) { benchmarkRunAll(b, "stress", 1) }

// --- one benchmark per paper table/figure ---

func BenchmarkTable1Deployment(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table1(); len(tbl.Rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure2aRTT(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure2a(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure2bJitter(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure2b(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable3HopBreakdown(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table3(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable4CoLocation(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table4(); len(tbl.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure3HopCount(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure3(); len(f.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure4InterSite(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure4(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure5Throughput(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure5(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable5QoERTT(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table5(); len(tbl.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure6Gaming(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure6(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure7Streaming(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure7(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure8VMSize(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure8(); len(tbl.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure9AppVMs(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure9(); len(f.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure10CPUUtil(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure10(); len(f.Series) != 6 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure11Imbalance(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure11(); len(tbl.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure12AppBalance(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure12(); len(f.Series) < 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure13BWVariation(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Figure13(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure14Prediction(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure14(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable6Cost(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table6(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable7Pricing(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table7(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationPlacement compares placement strategies end to end: how
// long trace generation takes under each, reporting the cross-site sales
// gap as a metric.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, strat := range []placement.Strategy{
		placement.NEPDefault{}, placement.BestFit{}, placement.Random{},
	} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := workload.GenerateNEP(rng.New(uint64(i)), workload.Options{
					Apps: 10, Days: 2, Strategy: strat,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduler compares the request schedulers of §4.3.
func BenchmarkAblationScheduler(b *testing.B) {
	replicas := []placement.Replica{
		{CapacityRPS: 100, DelayMs: 10},
		{CapacityRPS: 100, DelayMs: 13},
		{CapacityRPS: 100, DelayMs: 15},
		{CapacityRPS: 100, DelayMs: 18},
	}
	for _, sched := range []placement.Scheduler{
		placement.NearestSite{}, placement.LoadAware{DelaySlackMs: 6},
	} {
		b.Run(sched.Name(), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				placement.SimulateScheduling(r, sched, replicas, 1000)
			}
		})
	}
}

// BenchmarkForecasters isolates model cost: Holt-Winters vs the LSTM on the
// same series (the LSTM is ~1000× dearer, which is why Figure 14 samples
// fewer VMs for it).
func BenchmarkForecasters(b *testing.B) {
	r := rng.New(2)
	const period = 48
	data := make([]float64, period*10)
	for i := range data {
		data[i] = 10 + 5*float64(i%period)/period + r.Normal(0, 0.3)
	}
	train, test := data[:period*8], data[period*8:]
	b.Run("holt-winters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hw := predict.NewHoltWinters(period)
			if _, err := hw.FitPredict(train, test); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lstm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := predict.NewLSTM(3)
			l.Epochs = 2
			if _, err := l.FitPredict(train, test); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- measurement-kernel microbenchmarks ---

// BenchmarkVirtualPing measures the scalar virtual-ping kernel at the
// paper's 30-repeat schedule, including its per-call result allocation.
func BenchmarkVirtualPing(b *testing.B) {
	r := rng.New(29)
	p := netmodel.BuildPath(r, netmodel.LTE, netmodel.CloudSite, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := probe.VirtualPing(r, p, 30); len(st.RTTs) == 0 {
			b.Fatal("bad ping")
		}
	}
}

// BenchmarkVirtualPingInto is the fused kernel in steady state: the caller
// owns the PingStats buffer, so the loop allocates nothing.
func BenchmarkVirtualPingInto(b *testing.B) {
	r := rng.New(29)
	p := netmodel.BuildPath(r, netmodel.LTE, netmodel.CloudSite, 800)
	var st probe.PingStats
	probe.VirtualPingInto(r, p, 30, &st) // warm the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.VirtualPingInto(r, p, 30, &st)
	}
}

// BenchmarkSampleRTTBatch measures the batched RTT kernel: one 512-sample
// fill per op (the scalar comparison is PathModel/sample-rtt).
func BenchmarkSampleRTTBatch(b *testing.B) {
	r := rng.New(31)
	p := netmodel.BuildPath(r, netmodel.WiFi, netmodel.CloudSite, 800)
	dst := make([]float64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleRTTs(r, dst)
	}
	b.ReportMetric(float64(b.N)*float64(len(dst))/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkObserveWalk measures the one observation walk of the crowd
// campaign end to end (path build + fused pings + aggregation per target),
// building the whole columnar store it writes into.
func BenchmarkObserveWalk(b *testing.B) {
	r := rng.New(37)
	c := crowd.NewCampaign(r.Fork("campaign"), scenario.MustGet(benchScenario).Crowd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if crowd.NewObservationStore(c, rng.New(uint64(i))).Len() == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkFig2aFromColumns measures the columnar aggregation behind Figure
// 2a — per-user collapse and across-user median for every access×target
// group — over the warm substrate's group indexes.
func BenchmarkFig2aFromColumns(b *testing.B) {
	st := suite().LatencyStore()
	accesses := []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG}
	targets := []crowd.TargetKind{
		crowd.NearestEdge, crowd.ThirdNearestEdge, crowd.NearestCloud, crowd.CloudMember,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, a := range accesses {
			for _, k := range targets {
				sink += st.MedianRTTAcrossUsers(a, k)
			}
		}
		if sink == 0 {
			b.Fatal("empty aggregation")
		}
	}
}

// BenchmarkExpBulk measures the batched exponential kernel: one
// 4096-element fill per op over the argument range the samplers feed it
// (standard normals scaled by a few sigma), zero allocations.
func BenchmarkExpBulk(b *testing.B) {
	r := rng.New(41)
	src := make([]float64, 4096)
	dst := make([]float64, len(src))
	for i := range src {
		src[i] = r.Normal(0, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mathx.ExpBulk(dst, src)
	}
	b.ReportMetric(float64(b.N)*float64(len(src))/b.Elapsed().Seconds(), "elems/sec")
}

// BenchmarkUsageSeries measures one usage-trace synthesis through the
// production kernel (bulk ziggurat fills + batched exponential + fused
// scale pass): a week of 5-minute samples with weekly regime shifts, the
// workload generator's per-VM hot path.
func BenchmarkUsageSeries(b *testing.B) {
	p := workload.UsageParams{
		Level: 35, Amp: 0.5, PeakHour: 20, NoiseCV: 0.25,
		Days: 7, Interval: 5 * time.Minute,
		Start:   time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
		ClampHi: 95, WeekendFactor: 1.15,
		VolatileWeeks: true, VolatileSigma: 0.9,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := workload.SynthUsageSeries(rng.New(uint64(i)), p)
		if s.Mean() <= 0 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkLSTMForward isolates the blocked LSTM forward kernel: 256 steps
// through the paper-sized model (24 hidden units) per op.
func BenchmarkLSTMForward(b *testing.B) {
	r := rng.New(43)
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = math.Sin(float64(i)/24) + r.Normal(0, 0.05)
	}
	l := predict.NewLSTM(3)
	l.BenchForward(xs) // init weights outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = l.BenchForward(xs)
	}
	if math.IsNaN(sink) {
		b.Fatal("forward diverged")
	}
}

// BenchmarkSeriesMean measures Mean over a 4096-sample series: one
// left-to-right pass that allocates nothing.
func BenchmarkSeriesMean(b *testing.B) {
	r := rng.New(47)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = r.LogNormal(3, 0.6)
	}
	s := timeseries.New(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), time.Minute, vals)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Mean()
	}
	if sink <= 0 {
		b.Fatal("bad mean")
	}
}

// BenchmarkPathModel measures the core network-model hot paths.
func BenchmarkPathModel(b *testing.B) {
	r := rng.New(3)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netmodel.BuildPath(r, netmodel.WiFi, netmodel.CloudSite, 800)
		}
	})
	p := netmodel.BuildPath(r, netmodel.WiFi, netmodel.CloudSite, 800)
	b.Run("sample-rtt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SampleRTT(r)
		}
	})
	b.Run("sample-throughput", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SampleThroughput(r, netmodel.Downlink, 1000)
		}
	})
}

// BenchmarkTraceGeneration measures workload synthesis throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	b.Run("nep-10apps-2days", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.GenerateNEP(rng.New(uint64(i)), workload.Options{Apps: 10, Days: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cloud-40apps-2days", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.GenerateCloud(rng.New(uint64(i)), workload.Options{Apps: 40, Days: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- extension benchmarks ---

func BenchmarkExtDensity(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.ExtDensity(); len(tbl.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkExtMigration(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.ExtMigration(); len(tbl.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkExtScheduling(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.ExtScheduling(); len(tbl.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// --- streaming telemetry pipeline ---

// ingestWarmup is the events an ingest benchmark folds before its timed
// loop. After 16 384 the sketches of BenchmarkTelemetryIngestDurable's four
// rollups were still growing (their flushes allocated ≈ 17 KB over the next
// 2 M events); after 262 144 the rest is a few hundred bytes.
const ingestWarmup = 1 << 18

// BenchmarkTelemetryIngest measures end-to-end ingest throughput: offer →
// shard hash → bounded queue → single-writer sketch fold, reported as
// events/sec. The event stream cycles dimensions so every shard stays busy.
func BenchmarkTelemetryIngest(b *testing.B) {
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu"}
	nets := []string{"WiFi", "LTE", "5G"}
	events := make([]telemetry.Envelope, 4096)
	r := rng.New(17)
	for i := range events {
		events[i] = telemetry.Envelope{
			V: telemetry.SchemaVersion, TS: int64(i+1) * 100, Kind: telemetry.KindPing,
			Metric: telemetry.MetricRTT, User: i,
			Region: regions[i%len(regions)], Net: nets[i%len(nets)],
			Value: r.LogNormal(3, 0.6),
		}
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			ing := telemetry.NewIngestor(telemetry.Config{Shards: shards, Block: true})
			defer ing.Close()
			// Warm up as the durable benchmark does: the timed loop cycles
			// the same events, so once their rollups have taken
			// ingestWarmup events their sketches no longer grow.
			for range ingestWarmup / len(events) {
				ing.OfferAll(events)
			}
			ing.Flush()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ing.Offer(events[i%len(events)])
			}
			ing.Flush()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkTelemetryIngestDurable measures what durability adds to ingest when
// the WAL holds 1 or 8 (the handle cap) open segments and every event lands in
// the newest window — the serving plane's steady state. One shard, fsync every
// 256 records, no checkpoints. A cadence fsyncs the segments written since the
// last one, so the two must read alike; a WAL that fsynced every open handle
// read open-8 well above open-1 on a filesystem where fsync costs something
// (on a tmpfs TMPDIR it is free and both always read alike). batch-500 is
// open-1 offered the way a node's /ingest offers a request, OfferAll of 500
// envelopes at a time, so the shard worker drains and folds runs; an op is
// still one event, so its figures read against open-1's.
func BenchmarkTelemetryIngestDurable(b *testing.B) {
	const minute = 60_000
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu"}
	at := func(window, i int) telemetry.Envelope {
		return telemetry.Envelope{
			V: telemetry.SchemaVersion, TS: 1633046400000 + int64(window)*minute + int64(i%minute),
			Kind: telemetry.KindPing, Metric: telemetry.MetricRTT, User: i % 64,
			Region: regions[i%len(regions)], Net: "WiFi",
			Value: float64(1 + i%97),
		}
	}
	for _, c := range []struct {
		name        string
		open, batch int
	}{{"open-1", 1, 1}, {"open-8", 8, 1}, {"batch-500", 1, 500}} {
		open := c.open
		b.Run(c.name, func(b *testing.B) {
			ing := telemetry.NewIngestor(telemetry.Config{Shards: 1, QueueLen: 1024, Block: true,
				WAL: telemetry.WALConfig{Dir: b.TempDir(), SyncEvery: 256}})
			defer ing.Close()
			events := make([]telemetry.Envelope, 4096)
			for i := range events {
				events[i] = at(open-1, i)
			}
			// Open the older windows' segments, then fold enough into the
			// newest window's four rollups that their sketches have reached
			// full size and the timed loop allocates nothing of its own.
			for w := 0; w < open-1; w++ {
				ing.Offer(at(w, 0))
			}
			for range ingestWarmup / len(events) {
				ing.OfferAll(events)
			}
			ing.Flush()
			if err := ing.SyncWAL(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += c.batch {
				if c.batch == 1 {
					ing.Offer(events[i%len(events)])
					continue
				}
				lo := i % (len(events) - c.batch)
				ing.OfferAll(events[lo : lo+min(c.batch, b.N-i)])
			}
			ing.Flush()
			b.StopTimer() // the deferred Close cuts a checkpoint: not ingest
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// BenchmarkRecovery measures telemetryd restart cost: reopening a durable
// data directory through both recovery paths — snapshot-primary (the clean
// shutdown case, WAL suffixes only) and full WAL replay (the crash-without-
// checkpoint fallback, snapshots removed before each Open).
func BenchmarkRecovery(b *testing.B) {
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu"}
	nets := []string{"WiFi", "LTE", "5G"}
	events := make([]telemetry.Envelope, 4096)
	r := rng.New(17)
	for i := range events {
		events[i] = telemetry.Envelope{
			V: telemetry.SchemaVersion, TS: int64(i+1) * 100, Kind: telemetry.KindPing,
			Metric: telemetry.MetricRTT, User: i % 64,
			Region: regions[i%len(regions)], Net: nets[i%len(nets)],
			Value: r.LogNormal(3, 0.6),
		}
	}
	cfg := func(dir string) telemetry.Config {
		return telemetry.Config{Shards: 4, QueueLen: 1024, Block: true,
			WAL: telemetry.WALConfig{Dir: dir, SyncEvery: 256, SnapshotEvery: 1024}}
	}
	seedDir := func(b *testing.B) string {
		dir := b.TempDir()
		ing := telemetry.NewIngestor(cfg(dir))
		ing.OfferAll(events)
		ing.Flush()
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	reopen := func(b *testing.B, dir string) telemetry.RecoveryStats {
		ing, rec, err := telemetry.Open(cfg(dir))
		if err != nil {
			b.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		return rec
	}

	b.Run("snapshot", func(b *testing.B) {
		dir := seedDir(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := reopen(b, dir)
			if rec.Snapshots == 0 {
				b.Fatalf("snapshot path not taken: %+v", rec)
			}
		}
	})
	b.Run("wal-replay", func(b *testing.B) {
		dir := seedDir(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Close re-checkpoints, so drop the snapshots each round to
			// force the full-replay fallback.
			snaps, _ := filepath.Glob(filepath.Join(dir, "shard-*", "snapshot.bin"))
			for _, s := range snaps {
				os.Remove(s)
			}
			b.StartTimer()
			rec := reopen(b, dir)
			if rec.RecordsReplayed == 0 {
				b.Fatalf("replay path not taken: %+v", rec)
			}
		}
	})
}

// BenchmarkTelemetryEncodeDecode measures the JSONL wire hot path.
func BenchmarkTelemetryEncodeDecode(b *testing.B) {
	e := telemetry.Envelope{
		V: telemetry.SchemaVersion, TS: 1633046400000, Kind: "ping",
		Metric: "rtt_ms", User: 7, Region: "Beijing", Net: "WiFi",
		Target: "nearest-edge", Value: 12.25,
	}
	line, err := telemetry.AppendJSONL(nil, e)
	if err != nil {
		b.Fatal(err)
	}
	line = line[:len(line)-1] // strip newline for DecodeLine
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = telemetry.AppendJSONL(buf[:0], e)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := telemetry.DecodeLine(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSketchMerge measures eager merging: 32 compacted 2000-point
// sketches, one flush per Merge. The query layer does not take this path —
// it defers compaction (Absorb/AbsorbBinary); BenchmarkSketchAbsorbWide
// prices that.
func BenchmarkSketchMerge(b *testing.B) {
	r := rng.New(19)
	const parts = 32
	sketches := make([]*stats.Sketch, parts)
	for i := range sketches {
		sk := stats.NewSketch(stats.DefaultCompression)
		for j := 0; j < 2000; j++ {
			if err := sk.Add(r.LogNormal(3, 0.6)); err != nil {
				b.Fatal(err)
			}
		}
		sketches[i] = sk
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := stats.NewSketch(stats.DefaultCompression)
		for _, sk := range sketches {
			merged.Merge(sk)
		}
		if merged.Quantile(0.95) <= 0 {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkSketchAbsorbWide prices the deferred-compaction kernel at the
// size a `wide` query folds in total: 7 680 encoded window rollups of ≈ 20
// buffered points each absorbed into one sketch with AbsorbBinary — one
// flush per 8δ absorbed points, ≈ 190 in all — then evaluated. (Queries now
// do that work key by key on the nodes, BenchmarkMatchSketchesWide, and
// merge only the sealed folds, BenchmarkMergeSketchPagesWide.) In the
// allocation gate: the flush kernel's scratch is pooled, so a merge
// allocates only the accumulator's own growth.
func BenchmarkSketchAbsorbWide(b *testing.B) {
	r := rng.New(29)
	const rollups = 7680
	encs := make([][]byte, rollups)
	for i := range encs {
		sk := stats.NewSketch(stats.DefaultCompression)
		for j, n := 0, 16+i%9; j < n; j++ {
			if err := sk.Add(r.LogNormal(3, 0.6)); err != nil {
				b.Fatal(err)
			}
		}
		encs[i], _ = sk.MarshalBinary()
	}
	b.ReportAllocs()
	defer onePForAllocs(b)()
	for i := 0; i < b.N; i++ {
		merged := stats.NewSketch(stats.DefaultCompression)
		for _, enc := range encs {
			if err := merged.AbsorbBinary(enc); err != nil {
				b.Fatal(err)
			}
		}
		if merged.Quantile(0.95) <= 0 {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkSketchAdd isolates the per-observation sketch fold.
func BenchmarkSketchAdd(b *testing.B) {
	r := rng.New(23)
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = r.LogNormal(3, 0.6)
	}
	sk := stats.NewSketch(stats.DefaultCompression)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sk.Add(xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterQueryFixture is the stream and query BenchmarkClusterQuery and
// BenchmarkSketchPage share: 8192 rtt events over 12 keys and 14 windows.
func clusterQueryFixture() ([]telemetry.Envelope, telemetry.QuerySpec) {
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu"}
	nets := []string{"WiFi", "LTE", "5G"}
	events := make([]telemetry.Envelope, 8192)
	r := rng.New(53)
	for i := range events {
		events[i] = telemetry.Envelope{
			V: telemetry.SchemaVersion, TS: int64(i+1) * 100, Kind: telemetry.KindPing,
			Metric: telemetry.MetricRTT, User: i % 64,
			Region: regions[i%len(regions)], Net: nets[i%len(nets)],
			Value: r.LogNormal(3, 0.6),
		}
	}
	return events, telemetry.QuerySpec{
		Metric:    telemetry.MetricRTT,
		Quantiles: []float64{0.5, 0.95, 0.99},
		CDFAt:     []float64{10, 20, 40},
	}
}

// BenchmarkClusterQuery compares answering one quantile query from a single
// ingestor against scatter-gathering the same data from a 3-node cluster
// (per-key fold and page export on each node, key-ordered merge, evaluation) — the per-query
// price of the distributed plane, with the transport taken out of the
// picture (in-process NodeClients). Each side runs cold — one event offered
// to every key before each query, so every key is folded again — and warm,
// the same query repeated over unchanged rollups, which the nodes' fold memo
// answers without folding.
func BenchmarkClusterQuery(b *testing.B) {
	events, spec := clusterQueryFixture()

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	single.OfferAll(events)
	single.Flush()

	pm, err := cluster.NewMap(cluster.MapConfig{Nodes: []string{"n0", "n1", "n2"}})
	if err != nil {
		b.Fatal(err)
	}
	clients := map[string]cluster.NodeClient{}
	for _, id := range pm.Nodes() {
		ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 1024, Block: true})
		defer ing.Close()
		clients[id] = cluster.LocalNode{Ing: ing}
	}
	owner := func(e telemetry.Envelope) *telemetry.Ingestor {
		return clients[pm.Owner(pm.PartitionOf(e.Key()))].(cluster.LocalNode).Ing
	}
	for _, e := range events {
		owner(e).Offer(e)
	}
	for _, c := range clients {
		c.(cluster.LocalNode).Ing.Flush()
	}
	front := cluster.NewFrontend(pm, clients, cluster.FrontendConfig{})
	// touch is one more event for each of the fixture's 12 keys, in its last
	// window, offered to wherever that key lives.
	touch := events[len(events)-12:]

	query := func(b *testing.B, cold bool, route func(telemetry.Envelope) *telemetry.Ingestor, q func() (telemetry.QueryResult, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cold {
				b.StopTimer()
				for _, e := range touch {
					route(e).Offer(e)
				}
				for _, e := range touch {
					route(e).Flush()
				}
				b.StartTimer()
			}
			if res, err := q(); err != nil || res.Count == 0 {
				b.Fatalf("query: %v", err)
			}
		}
	}
	toSingle := func(telemetry.Envelope) *telemetry.Ingestor { return single }
	ctx := context.Background()
	for _, temp := range []string{"cold", "warm"} {
		b.Run("single/"+temp, func(b *testing.B) {
			query(b, temp == "cold", toSingle, func() (telemetry.QueryResult, error) { return single.Query(spec) })
		})
		b.Run("scatter-gather/"+temp, func(b *testing.B) {
			query(b, temp == "cold", owner, func() (telemetry.QueryResult, error) {
				res, err := front.Query(ctx, spec)
				if err == nil && res.Partial {
					err = fmt.Errorf("partial answer, missing %v", res.MissingPartitions)
				}
				return res.QueryResult, err
			})
		})
	}
}

// BenchmarkSketchPage prices the two wire forms of one node's /sketches
// answer over the ClusterQuery fixture: the indented JSON the external
// surface serves (base64 sketches) against the binary, CRC-trailed page the
// frontend↔node legs carry. binary-decode is in the allocation gate: its
// allocations must stay O(1) per page, never per match.
func BenchmarkSketchPage(b *testing.B) {
	events, spec := clusterQueryFixture()
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer ing.Close()
	ing.OfferAll(events)
	ing.Flush()
	page, err := ing.MatchSketches(spec)
	if err != nil || len(page.Matches) == 0 {
		b.Fatalf("fixture page: %d matches, err %v", len(page.Matches), err)
	}
	var asJSON bytes.Buffer
	encodeJSON := func() {
		asJSON.Reset()
		enc := json.NewEncoder(&asJSON)
		enc.SetIndent("", "  ")
		if err := enc.Encode(page); err != nil {
			b.Fatal(err)
		}
	}
	encodeJSON()
	asBinary, _ := page.AppendBinary(nil)

	b.Run("json-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(asJSON.Len()))
		for i := 0; i < b.N; i++ {
			encodeJSON()
		}
	})
	b.Run("json-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(asJSON.Len()))
		for i := 0; i < b.N; i++ {
			var back telemetry.SketchPage
			if err := json.Unmarshal(asJSON.Bytes(), &back); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(asBinary)))
		for i := 0; i < b.N; i++ {
			out, _ := page.AppendBinary(make([]byte, 0, page.BinarySize()))
			if len(out) != len(asBinary) {
				b.Fatal("size drifted")
			}
		}
	})
	b.Run("binary-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(asBinary)))
		for i := 0; i < b.N; i++ {
			back, err := telemetry.DecodeSketchPage(asBinary)
			if err != nil || len(back.Matches) != len(page.Matches) {
				b.Fatalf("decode: %v", err)
			}
		}
	})
}

// wideFixture is the key space the end-to-end benchmark's `wide` query scans
// (bench/e2e/gen.go), rebuilt here so the in-process benches price the same
// shape: 32 regions × 4 nets of rtt_ms, 60 one-second windows, 20 points per
// (window, key) rollup — 7 680 rollups, 153 600 points — dealt whole-key to
// `nodes` ingestors (1 = the single reference).
func wideFixture(b *testing.B, nodes int) ([]*telemetry.Ingestor, telemetry.QuerySpec) {
	ings := make([]*telemetry.Ingestor, nodes)
	for i := range ings {
		ings[i] = telemetry.NewIngestor(telemetry.Config{Window: time.Second, Block: true})
		b.Cleanup(func() { ings[i].Close() })
	}
	r := rng.New(61)
	for i := 0; i < 32*4*60*20; i++ {
		key, window := i%128, i/128%60
		ings[key%nodes].Offer(wideEnvelope(key, int64(window)*1000+int64(i%1000), math.Round(r.LogNormal(math.Log(20), 0.5)*1000)/1000))
	}
	for _, ing := range ings {
		ing.Flush()
	}
	return ings, telemetry.QuerySpec{Metric: telemetry.MetricRTT, CDFAt: []float64{10, 20, 40}}
}

// wideEnvelope is one event of wideFixture's key `key` (0..127).
func wideEnvelope(key int, ts int64, v float64) telemetry.Envelope {
	nets := []string{"wifi", "lte", "5g", "wired"}
	return telemetry.Envelope{
		V: telemetry.SchemaVersion, TS: ts, Kind: telemetry.KindPing,
		Metric: telemetry.MetricRTT, User: key,
		Region: fmt.Sprintf("r%02d", key/4), Net: nets[key%4],
		Value: v,
	}
}

// onePForAllocs runs the rest of a benchmark on one P, restarts its timer
// and returns the restore. The wide benchmarks reuse pooled scratch (the
// fold's and the flush kernel's), and a sync.Pool keeps an object in the
// slot of the P that put it back: a goroutine the scheduler moves to another
// P misses it and allocates again, so on several Ps their B/op would read
// the scheduler rather than the code. The paths they time run on one
// goroutine either way.
func onePForAllocs(b *testing.B) func() {
	prev := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkMatchSketchesWide is a node's share of a `wide` query, on one
// ingestor holding the whole bench key space: scan 7 680 rollups, fold them
// per key, seal and encode — one page of 128 folds. cold offers one event to
// every key (into the last window) before each query, so every key's
// rollups changed and all 7 680 are folded again; warm repeats the query over
// unchanged rollups, every key a fold memo hit. Both are in the allocation
// gate: the fold's scratch is pooled, so what remains cold is one encoding
// per key, and warm the page.
func BenchmarkMatchSketchesWide(b *testing.B) {
	ings, spec := wideFixture(b, 1)
	ing := ings[0]
	touch := make([]telemetry.Envelope, 128)
	for key := range touch {
		touch[key] = wideEnvelope(key, 59_999, 20)
	}
	for _, temp := range []string{"cold", "warm"} {
		b.Run(temp, func(b *testing.B) {
			b.ReportAllocs()
			defer onePForAllocs(b)()
			var page telemetry.SketchPage
			for i := 0; i < b.N; i++ {
				if temp == "cold" {
					b.StopTimer()
					ing.OfferAll(touch)
					ing.Flush()
					b.StartTimer()
				}
				var err error
				if page, err = ing.MatchSketches(spec); err != nil || len(page.Matches) != 128 {
					b.Fatalf("page: %d matches, err %v", len(page.Matches), err)
				}
			}
			b.ReportMetric(float64(page.BinarySize()), "page-bytes")
		})
	}
}

// BenchmarkMergeSketchPagesWide is the front-end's share of the same query:
// three nodes' folded pages (the key space dealt whole-key across them)
// k-way merged by key and evaluated.
func BenchmarkMergeSketchPagesWide(b *testing.B) {
	ings, spec := wideFixture(b, 3)
	pages := make([]telemetry.SketchPage, len(ings))
	for i, ing := range ings {
		var err error
		if pages[i], err = ing.MatchSketches(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	defer onePForAllocs(b)()
	for i := 0; i < b.N; i++ {
		res, err := telemetry.MergeSketchPages(spec, pages)
		if err != nil || res.Windows != 7680 {
			b.Fatalf("merge: %d windows, err %v", res.Windows, err)
		}
	}
}

// keyspaceFixture is the end-to-end benchmark's whole preloaded key space
// (bench/e2e/gen.go) on one ingestor: its 3 metrics over wideFixture's 128
// (region, net) keys, 60 one-second windows, 8 points per (window, key)
// rollup — 23 040 rollups, of which a node's /keys lists 384 keys and a
// narrow query picks 15.
func keyspaceFixture(b *testing.B) *telemetry.Ingestor {
	ing := keyspaceNode(b)
	offerKeyspace(ing.Offer)
	ing.Flush()
	return ing
}

// keyspaceNode is one empty ingestor configured as keyspaceFixture's.
func keyspaceNode(b *testing.B) *telemetry.Ingestor {
	ing := telemetry.NewIngestor(telemetry.Config{Window: time.Second, Block: true})
	b.Cleanup(func() { ing.Close() })
	return ing
}

// offerKeyspace hands keyspaceFixture's events, in order, to offer.
func offerKeyspace(offer func(telemetry.Envelope) bool) {
	metrics := []string{"rtt_ms", "hop_count", "tput_mbps"}
	r := rng.New(67)
	for i := 0; i < len(metrics)*128*60*8; i++ {
		key, window := i%128, i/(len(metrics)*128)%60
		e := wideEnvelope(key, int64(window+1)*1000+int64(i%1000), math.Round(r.LogNormal(math.Log(20), 0.5)*1000)/1000)
		e.Metric = metrics[i/128%len(metrics)]
		offer(e)
	}
}

// BenchmarkKeys is a node's /keys inventory over the end-to-end key space:
// 384 keys and their event counts, from 23 040 rollups.
func BenchmarkKeys(b *testing.B) {
	ing := keyspaceFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keys := ing.Keys(); len(keys) != 384 {
			b.Fatalf("%d keys, want 384", len(keys))
		}
	}
}

// keyspaceCluster is keyspaceFixture split by owner across three nodes,
// each served by its own handlers (serve.NewNode over memTransport) and
// reached through cluster.HTTPNode, behind one cluster.Frontend.
func keyspaceCluster(b *testing.B) *cluster.Frontend {
	pm, err := cluster.NewMap(cluster.MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	if err != nil {
		b.Fatal(err)
	}
	discard := slog.New(slog.DiscardHandler)
	nodes := memTransport{}
	client := &http.Client{Transport: nodes}
	ings := map[string]*telemetry.Ingestor{}
	clients := map[string]cluster.NodeClient{}
	for _, id := range pm.Nodes() {
		ings[id] = keyspaceNode(b)
		nodes[id] = serve.NewNode(serve.NodeConfig{Ing: ings[id], Metrics: obs.NewRegistry(), ID: id, Log: discard})
		clients[id] = cluster.NewHTTPNode("http://"+id, client)
	}
	offerKeyspace(func(e telemetry.Envelope) bool { return ings[pm.Owner(pm.PartitionOf(e.Key()))].Offer(e) })
	for _, ing := range ings {
		ing.Flush()
	}
	return cluster.NewFrontend(pm, clients, cluster.FrontendConfig{})
}

// BenchmarkFrontendKeys is the frontend's /keys over keyspaceCluster:
// cluster.Frontend.Keys gathers each node's binary inventory, merges the
// runs, and the answer is encoded as the edge's JSON.
func BenchmarkFrontendKeys(b *testing.B) {
	front := keyspaceCluster(b)
	ctx := context.Background()
	b.Run("http", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keys, missing := front.Keys(ctx)
			if _, ok := telemetry.AppendKeysJSON(nil, keys); len(keys) != 384 || missing != nil || !ok {
				b.Fatalf("%d keys, missing %v, encoded %v", len(keys), missing, ok)
			}
		}
	})
}

// BenchmarkFrontendQuery is the frontend's /query over keyspaceCluster, as
// the end-to-end benchmark's two query classes ask it: wide (every rtt_ms
// key over all 60 windows, a leg to each node) and narrow (one key over the
// last 15, a leg to its owner alone). Each leg pays its request, the node's
// page encode, the body read, CRC and decode; then the merge. Repeated, the
// nodes answer from their fold memos, so what is priced is the gather. One
// P, so the pooled wire buffers' B/op reads the code, not the scheduler.
func BenchmarkFrontendQuery(b *testing.B) {
	front := keyspaceCluster(b)
	ctx := context.Background()
	base := telemetry.QuerySpec{Metric: telemetry.MetricRTT, From: time.UnixMilli(1_000), To: time.UnixMilli(61_000),
		Quantiles: []float64{0.5, 0.95, 0.99}, CDFAt: []float64{10, 50, 100}}
	narrow := base
	narrow.From, narrow.Region, narrow.Net = time.UnixMilli(46_000), "r07", "lte"
	for _, c := range []struct {
		name    string
		spec    telemetry.QuerySpec
		windows int
	}{{"wide", base, 128 * 60}, {"narrow", narrow, 15}} {
		b.Run("http/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			defer onePForAllocs(b)()
			for i := 0; i < b.N; i++ {
				if res, err := front.Query(ctx, c.spec); err != nil || res.Partial || res.Windows != c.windows {
					b.Fatalf("query: %d windows, partial %v, err %v", res.Windows, res.Partial, err)
				}
			}
		})
	}
}

// BenchmarkMatchSketchesNarrow is a node's share of the end-to-end `narrow`
// query — one fully keyed (region, net) over the last 15 of 60 windows — on
// the whole key space. warm repeats it over unchanged rollups, a fold memo
// hit: what is left is finding the key's windows and building the page.
func BenchmarkMatchSketchesNarrow(b *testing.B) {
	ing := keyspaceFixture(b)
	spec := telemetry.QuerySpec{Metric: telemetry.MetricRTT, Region: "r07", Net: "lte",
		From: time.UnixMilli(46_000), To: time.UnixMilli(61_000), CDFAt: []float64{10, 50, 100}}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if page, err := ing.MatchSketches(spec); err != nil || len(page.Matches) != 1 || page.Matches[0].Windows != 15 {
				b.Fatalf("page: %+v, err %v", page.Matches, err)
			}
		}
	})
}

// BenchmarkRebalanceHandoff prices one elastic membership change: a fourth
// node joining a loaded 3-node cluster, end to end through the migrator —
// freeze, flush, sketch-page cut, drop-then-absorb rebuild, cutover,
// activation, stale-copy drops — with cluster.HTTPNode driving each node's
// own handlers (serve.NewNode), so every leg pays its request, page encode,
// CRC and decode; only the sockets are taken out (memTransport).
// Sub-benchmarks scale the resident keyspace, so the reported per-join cost
// tracks how much state a quota's worth of partitions carries.
func BenchmarkRebalanceHandoff(b *testing.B) {
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu"}
	nets := []string{"WiFi", "LTE", "5G"}
	discard := slog.New(slog.DiscardHandler)
	for _, size := range []int{2048, 16384} {
		b.Run(fmt.Sprintf("http/events-%d", size), func(b *testing.B) {
			events := make([]telemetry.Envelope, size)
			r := rng.New(53)
			for i := range events {
				events[i] = telemetry.Envelope{
					V: telemetry.SchemaVersion, TS: int64(i+1) * 100, Kind: telemetry.KindPing,
					Metric: telemetry.MetricRTT, User: i % 64,
					Region: regions[i%len(regions)], Net: nets[i%len(nets)],
					Value: r.LogNormal(3, 0.6),
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pm, err := cluster.NewMap(cluster.MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
				if err != nil {
					b.Fatal(err)
				}
				ings := map[string]*telemetry.Ingestor{}
				nodes := memTransport{}
				client := &http.Client{Transport: nodes}
				admins := map[string]cluster.NodeAdmin{}
				for _, id := range []string{"n0", "n1", "n2", "n3"} {
					ings[id] = telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 1024, Block: true})
					nodes[id] = serve.NewNode(serve.NodeConfig{Ing: ings[id], Metrics: obs.NewRegistry(), ID: id, Log: discard})
					admins[id] = cluster.NewHTTPNode("http://"+id, client)
				}
				for _, e := range events {
					ings[pm.Owner(pm.PartitionOf(e.Key()))].Offer(e)
				}
				for _, ing := range ings {
					ing.Flush()
				}
				mig := cluster.NewMigrator(pm, admins, cluster.MigratorConfig{})
				b.StartTimer()
				next, err := mig.Join(ctx, "n3", nil)
				b.StopTimer()
				if err != nil || next.Epoch != 2 {
					b.Fatalf("join: epoch=%d err=%v", next.Epoch, err)
				}
				for _, ing := range ings {
					ing.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// memTransport hands each request to the handler its host names, in
// process: status, headers and bodies as over HTTP, without sockets.
type memTransport map[string]http.Handler

func (m memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	h, ok := m[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	// The handler gets its own copy, shaped as a server-side request.
	sr := r.Clone(r.Context())
	sr.RequestURI = r.URL.RequestURI()
	if sr.Body == nil {
		sr.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, sr)
	return rec.Result(), nil
}

func BenchmarkTable2TraceSurvey(b *testing.B) {
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table2(); len(tbl.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkObsCounterInc pins the hot-path cost of the self-observability
// counters: one atomic add, zero allocations. Every ingest-path event pays
// exactly this, so the allocation gate (scripts/bench_gate) holds it at 0.
func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().CounterVec("bench_events_total", "bench", "shard").With("0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("count lost")
	}
}

// BenchmarkObsSpan pins a Begin/End span pair over reserved capacity at zero
// allocations — the per-node cost the execution engine pays when traced.
func BenchmarkObsSpan(b *testing.B) {
	tr := obs.NewTracer(nil)
	tr.Reserve(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.End(tr.Begin("node", 0))
	}
	if tr.Len() != b.N {
		b.Fatal("spans lost")
	}
}
