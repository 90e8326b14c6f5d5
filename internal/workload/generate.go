package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"edgescope/internal/geo"
	"edgescope/internal/mathx"
	"edgescope/internal/placement"
	"edgescope/internal/rng"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// Options configures trace generation. Zero values take platform defaults.
type Options struct {
	// Apps is the number of applications (customers × images).
	Apps int
	// Days is the trace length; the paper collected 3 months, the default
	// is 14 days to bound memory while spanning both daily and weekly
	// cycles. Use 28+ for prediction experiments.
	Days int
	// Categories overrides the platform's app mix.
	Categories []Category
	// Strategy overrides the placement strategy (default: NEPDefault for
	// edge, Random for cloud).
	Strategy placement.Strategy
}

func (o *Options) fill(defaultApps int) {
	if o.Apps == 0 {
		o.Apps = defaultApps
	}
	if o.Days == 0 {
		o.Days = 14
	}
}

const (
	// cpuInterval is the CPU sampling period (paper: 1 min; 5 min here).
	cpuInterval = 5 * time.Minute
	// bwInterval is the bandwidth sampling period (paper: 5 min; 15 min
	// here to bound memory).
	bwInterval = 15 * time.Minute
)

// traceStart is the trace start, 2020-06-01 like the dataset.
var traceStart = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// provincePops returns provinces with their city-population totals, sorted
// by population descending (the demand-popularity ranking).
func provincePops() ([]string, []float64) {
	totals := map[string]float64{}
	for _, c := range geo.Cities() {
		totals[c.Province] += c.PopulationM
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]] != totals[names[j]] {
			return totals[names[i]] > totals[names[j]]
		}
		return names[i] < names[j]
	})
	pops := make([]float64, len(names))
	for i, n := range names {
		pops[i] = totals[n]
	}
	return names, pops
}

// buildNEPSites creates the edge inventory: per-province site counts grow
// sub-linearly with population (Guangdong ends up with ~11 sites, matching
// the Figure 11 sample).
func buildNEPSites(r *rng.Source) []*vm.Site {
	names, pops := provincePops()
	var sites []*vm.Site
	for i, prov := range names {
		n := int(math.Round(math.Pow(pops[i], 0.8) / 2.5))
		if n < 2 {
			n = 2
		}
		for k := 0; k < n; k++ {
			// Memory-rich servers (8 GB/core) against 4 GB/vCPU subscriptions
			// reproduce the paper's finding that CPU sells at ~2× the rate
			// of memory.
			servers := make([]vm.Server, 6+r.IntN(18))
			for s := range servers {
				servers[s] = vm.Server{CPUCores: 64, MemGB: 512}
			}
			sites = append(sites, &vm.Site{
				Name:     fmt.Sprintf("%s-%02d", prov, k+1),
				Province: prov,
				Servers:  servers,
			})
		}
	}
	return sites
}

// buildCloudSites creates the cloud inventory: 8 large regions.
func buildCloudSites(r *rng.Source) []*vm.Site {
	regions := []string{"Beijing", "Shanghai", "Zhejiang", "Guangdong",
		"Shandong", "Sichuan", "InnerMongolia", "Guangdong"}
	var sites []*vm.Site
	for i, prov := range regions {
		servers := make([]vm.Server, 150)
		for s := range servers {
			servers[s] = vm.Server{CPUCores: 96, MemGB: 384}
		}
		sites = append(sites, &vm.Site{
			Name:     fmt.Sprintf("region-%d", i+1),
			Province: prov,
			Servers:  servers,
		})
	}
	return sites
}

// GenerateNEP synthesises the edge-platform trace.
func GenerateNEP(r *rng.Source, opts Options) (*vm.Dataset, error) {
	opts.fill(100)
	if opts.Categories == nil {
		opts.Categories = NEPCategories()
	}
	if opts.Strategy == nil {
		opts.Strategy = placement.NEPDefault{}
	}
	sites := buildNEPSites(r.Fork("sites"))
	return generate(r, opts, sites, true)
}

// GenerateCloud synthesises the Azure-like cloud trace.
func GenerateCloud(r *rng.Source, opts Options) (*vm.Dataset, error) {
	opts.fill(500)
	if opts.Categories == nil {
		opts.Categories = CloudCategories()
	}
	if opts.Strategy == nil {
		opts.Strategy = placement.Random{}
	}
	sites := buildCloudSites(r.Fork("sites"))
	return generate(r, opts, sites, false)
}

func generate(r *rng.Source, opts Options, sites []*vm.Site, geoSkew bool) (*vm.Dataset, error) {
	st := placement.NewClusterState(sites)
	provNames, _ := provincePops()
	d := &vm.Dataset{
		Duration: time.Duration(opts.Days) * 24 * time.Hour,
		Sites:    sites,
	}

	catWeights := make([]float64, len(opts.Categories))
	for i, c := range opts.Categories {
		catWeights[i] = c.Share
	}
	provZipf := rng.NewZipf(r.Fork("prov"), 1.3, len(provNames))

	// cpuBuf and bwBuf take each VM's draws in turn: vm.New reduces them to
	// the VM's summaries while they are hot, and the VM keeps only the
	// recipes.
	var cpuBuf, bwBuf timeseries.Series
	for app := 0; app < opts.Apps; app++ {
		cat := opts.Categories[r.Choice(catWeights)]
		nVMs := int(r.BoundedPareto(cat.MinVMs, cat.VMAlpha, cat.MaxVMs))
		if nVMs < 1 {
			nVMs = 1
		}
		vcpu := cat.VCPUOptions[r.Choice(cat.VCPUWeights)]
		mem := vcpu * cat.GBPerVCPU

		// Demand geography: edge apps subscribe in a few popular provinces;
		// cloud apps ignore geography.
		var provs []string
		if geoSkew && cat.Provinces > 0 {
			seen := map[string]bool{}
			for len(provs) < cat.Provinces {
				p := provNames[provZipf.Next()]
				if !seen[p] {
					seen[p] = true
					provs = append(provs, p)
				}
			}
		} else {
			provs = []string{""}
		}

		// Split the fleet across provinces (first province dominates).
		perProv := splitCounts(r, nVMs, len(provs))

		// App-level usage parameters shared by its VMs.
		appBase := r.LogNormalMeanMedian(cat.CPUMedianPct, cat.CPUSigma*0.6)
		appAmp := r.Uniform(cat.AmpLo, cat.AmpHi)
		appPeak := cat.PeakHour + r.Normal(0, 1.5)
		crossSigma := r.Uniform(cat.CrossVMSigmaLo, cat.CrossVMSigmaHi)
		appBWBase := float64(vcpu) * r.LogNormalMeanMedian(cat.BWPerVCPUMedian, cat.BWSigma)

		for pi, prov := range provs {
			if perProv[pi] == 0 {
				continue
			}
			req := placement.Request{VCPUs: vcpu, MemGB: mem, Province: prov, Count: perProv[pi]}
			assigns, err := opts.Strategy.Place(r, st, req)
			if err != nil {
				// Province full: fall back to anywhere (NEP would negotiate
				// an adjacent province with the customer).
				req.Province = ""
				var err2 error
				assigns, err2 = opts.Strategy.Place(r, st, req)
				if err2 != nil {
					return nil, fmt.Errorf("workload: placing app %d: %w", app, err2)
				}
			}
			for _, a := range assigns {
				mult := mathx.Exp(r.Normal(0, crossSigma))
				level := appBase * mult
				cpu := &recipe{snap: r.Snapshot(), p: seriesParams{
					level: level, amp: appAmp, peakHour: appPeak,
					windowHours: cat.WindowHours, noiseCV: cat.NoiseCV,
					days: opts.Days, interval: cpuInterval,
					start: traceStart, clampHi: 95, weekendFactor: weekendFactorFor(cat.Name),
				}}
				cpu.draw(r, &cpuBuf)
				volatile := r.Bernoulli(cat.VolatileBWProb)
				bw := &recipe{snap: r.Snapshot(), p: seriesParams{
					level: appBWBase * mult, amp: appAmp, peakHour: appPeak,
					windowHours: cat.WindowHours, noiseCV: cat.NoiseCV * 1.3,
					days: opts.Days, interval: bwInterval,
					start: traceStart, clampHi: 0, weekendFactor: weekendFactorFor(cat.Name),
					volatileWeeks: volatile, volatileSigma: 0.9,
				}}
				bw.draw(r, &bwBuf)
				v := vm.New(vm.VM{
					App: app, Site: a.Site, Server: a.Server,
					VCPUs: vcpu, MemGB: mem,
					DiskGB: int(r.BoundedPareto(cat.DiskXmGB, cat.DiskAlpha, cat.DiskCapGB)),
				}, &cpuBuf, cpu, &bwBuf, bw)
				st.ObserveUsage(a.Site, a.Server, v.MeanCPU())
				d.VMs = append(d.VMs, v)
			}
		}
	}
	return d, nil
}

// splitCounts divides n VMs over k buckets with geometric decay (the first
// province gets roughly half).
func splitCounts(r *rng.Source, n, k int) []int {
	if k <= 1 {
		return []int{n}
	}
	out := make([]int, k)
	remaining := n
	for i := 0; i < k-1; i++ {
		share := int(float64(remaining) * r.Uniform(0.4, 0.7))
		if share < 1 && remaining > 0 {
			share = 1
		}
		out[i] = share
		remaining -= share
		if remaining <= 0 {
			remaining = 0
			break
		}
	}
	out[k-1] += remaining
	return out
}

func weekendFactorFor(category string) float64 {
	switch category {
	case "online-education":
		return 0.55 // classes pause on weekends
	case "live-streaming", "cloud-gaming":
		return 1.2 // leisure peaks on weekends
	default:
		return 1.0
	}
}

type seriesParams struct {
	level         float64 // base level (CPU % or Mbps)
	amp           float64 // diurnal amplitude in [0,1]
	peakHour      float64
	windowHours   float64 // >0: usage confined around the peak
	noiseCV       float64
	days          int
	interval      time.Duration
	start         time.Time
	clampHi       float64 // >0: clamp (CPU is a percentage)
	weekendFactor float64
	volatileWeeks bool
	volatileSigma float64
}

// samples is the series' length.
func (p *seriesParams) samples() int {
	return int(time.Duration(p.days) * 24 * time.Hour / p.interval)
}

// recipe is one of a generated VM's usage series kept as the draws that
// made it: the stream position before the series' first draw, and its
// parameters. Fill replays them through a Source of its own, so the samples
// come out bit for bit as generated while the snapshot stays untouched:
// concurrent readers of one dataset each replay independently.
type recipe struct {
	snap rng.Snapshot
	p    seriesParams
}

// draw makes the generator's own pass: it fills dst from r, which must sit
// at the snapshot, and leaves r after the series' last draw.
func (c *recipe) draw(r *rng.Source, dst *timeseries.Series) {
	fillUsage(r, c.p, dst.Refill(c.p.start, c.p.interval, c.p.samples()))
}

// Fill regenerates the series into dst without allocating once dst's
// buffer has grown to the series length: the replay Source lives on the
// stack (TestCPUReplayAllocatesNothing, TestBWReplayAllocatesNothing).
func (c *recipe) Fill(dst *timeseries.Series) {
	r := rng.New(0)
	r.Restore(c.snap)
	c.draw(r, dst)
}

func (c *recipe) Interval() time.Duration { return c.p.interval }

// fillUsage synthesises one usage trace into vals: diurnal cycle × weekly
// factor × optional weekly regime shifts × multiplicative noise.
//
// This is the workload generator's hot kernel (one call per VM per metric,
// thousands of samples each), so the per-sample work is stripped to the
// irreducible noise draw: the diurnal shape is a pure function of the minute
// of day and is cached per distinct minute (a day of samples shares at most
// 1440 cos/exp evaluations instead of one per sample), and hour/minute/
// weekday come from integer nanosecond arithmetic instead of per-sample
// time.Time decomposition. Values are bit-identical to the direct
// per-sample formula — pinned by TestUsageSeriesFastPathMatchesSlow.
func fillUsage(r *rng.Source, p seriesParams, vals []float64) {
	// The integer fast path needs UTC (hour/minute shortcuts assume a fixed
	// zero offset) and a start within UnixNano range; every built-in trace
	// starts 2020-06-01 UTC. Anything else takes the legacy loop.
	if p.start.Location() == time.UTC && p.start.Year() >= 1970 && p.start.Year() <= 2200 {
		usageSeriesUTC(r, p, vals)
	} else {
		usageSeriesSlow(r, p, vals)
	}
}

// UsageParams is the exported form of the usage-trace parameters, for
// benchmarks and tools that exercise the synthesis kernel directly.
type UsageParams struct {
	Level         float64 // base level (CPU % or Mbps)
	Amp           float64 // diurnal amplitude in [0,1]
	PeakHour      float64
	WindowHours   float64 // >0: usage confined around the peak
	NoiseCV       float64
	Days          int
	Interval      time.Duration
	Start         time.Time
	ClampHi       float64 // >0: clamp (CPU is a percentage)
	WeekendFactor float64
	VolatileWeeks bool
	VolatileSigma float64
}

// SynthUsageSeries synthesises one usage trace through the production
// kernel (bulk draws + batched exponential + fused scale pass).
func SynthUsageSeries(r *rng.Source, p UsageParams) *timeseries.Series {
	sp := seriesParams{
		level: p.Level, amp: p.Amp, peakHour: p.PeakHour,
		windowHours: p.WindowHours, noiseCV: p.NoiseCV,
		days: p.Days, interval: p.Interval, start: p.Start,
		clampHi: p.ClampHi, weekendFactor: p.WeekendFactor,
		volatileWeeks: p.VolatileWeeks, volatileSigma: p.VolatileSigma,
	}
	vals := make([]float64, sp.samples())
	fillUsage(r, sp, vals)
	return timeseries.New(sp.start, sp.interval, vals)
}

// usageSeriesUTC fills vals using cached diurnal shapes and integer time
// arithmetic, batching the per-sample randomness: one bulk ziggurat fill
// per draw segment, one batched exponential over the whole buffer, one
// fused scale-and-clamp pass. Draw order is exactly usageSeriesSlow's —
// on volatile series the weekly regime draw interleaves with the noise
// draws at each week boundary, so the bulk fills run per week segment
// with the regime draw between them — and every float is combined in the
// scalar formula's operation order, so the output is bit-identical
// (pinned by TestUsageSeriesFastPathMatchesSlow).
func usageSeriesUTC(r *rng.Source, p seriesParams, vals []float64) {
	const (
		minuteNs = int64(time.Minute)
		dayNs    = 24 * int64(time.Hour)
	)
	startAbs := p.start.UnixNano() // >= 0 by the fast-path gate
	ivl := int64(p.interval)

	// Pass 1 — randomness, in scalar draw order. vals doubles as the
	// noise buffer: standard-normal segments, then one in-place batched
	// exponential (bit-identical to the slow path's per-sample mathx.Exp).
	type weekSeg struct {
		end  int     // one past the last sample of the segment
		mult float64 // exp(weekly regime draw)
	}
	// The segments live in a stack array that covers traces of up to eight
	// weeks, so a replay allocates nothing; longer ones spill to the heap.
	var segArr [8]weekSeg
	segs := segArr[:0]
	if !p.volatileWeeks {
		r.Normals(vals, 0, p.noiseCV)
	} else {
		weekOf := func(i int) int {
			return int((time.Duration(i) * p.interval).Hours() / (24 * 7))
		}
		if n := 1 + len(vals)/max(1, int(7*dayNs/ivl)); n > len(segArr) {
			segs = make([]weekSeg, 0, n)
		}
		for i := 0; i < len(vals); {
			week := weekOf(i)
			// Scalar order at a week boundary: regime draw first, then
			// that week's noise draws.
			mult := mathx.Exp(r.Normal(0, p.volatileSigma))
			j := i + 1
			for j < len(vals) && weekOf(j) == week {
				j++
			}
			r.Normals(vals[i:j], 0, p.noiseCV)
			segs = append(segs, weekSeg{end: j, mult: mult})
			i = j
		}
	}
	mathx.ExpBulk(vals, vals)

	// Pass 2 — deterministic shaping, fused over the buffer.
	// shapeFor computes the raw diurnal shape (before weekend and weekly
	// multipliers) for one minute of day — the exact per-sample formula.
	shapeFor := func(minOfDay int) float64 {
		h := float64(minOfDay/60) + float64(minOfDay%60)/60
		if p.windowHours > 0 {
			// Gaussian bump around the peak: near-zero usage off-window.
			dh := hourDiff(h, p.peakHour)
			sigma := p.windowHours / 2.355 // FWHM → sigma
			return 0.05 + mathx.Exp(-dh*dh/(2*sigma*sigma))*3.5
		}
		shape := 1 + p.amp*math.Cos((h-p.peakHour)/24*2*math.Pi)
		if shape < 0.05 {
			shape = 0.05
		}
		return shape
	}
	var (
		cache  [24 * 60]float64
		cached [24 * 60]bool
	)
	seg, weekMult := 0, 1.0
	for i := range vals {
		abs := startAbs + int64(i)*ivl
		day := abs / dayNs
		minOfDay := int((abs - day*dayNs) / minuteNs)

		shape := cache[minOfDay]
		if !cached[minOfDay] {
			shape = shapeFor(minOfDay)
			cache[minOfDay] = shape
			cached[minOfDay] = true
		}
		// 1970-01-01 (epoch day 0) was a Thursday; Sunday=0, Saturday=6.
		wd := (day + 4) % 7
		if wd == 6 || wd == 0 {
			shape *= p.weekendFactor
		}
		if p.volatileWeeks {
			for i >= segs[seg].end {
				seg++
			}
			weekMult = segs[seg].mult
			shape *= weekMult
		}
		v := p.level * shape * vals[i]
		if v < 0.01 {
			v = 0.01
		}
		if p.clampHi > 0 && v > p.clampHi {
			v = p.clampHi
		}
		vals[i] = v
	}
}

// usageSeriesSlow is the direct per-sample loop: the reference the fast path
// must match bit for bit, and the fallback for non-UTC starts.
func usageSeriesSlow(r *rng.Source, p seriesParams, vals []float64) {
	weekMult := 1.0
	curWeek := -1
	for i := range vals {
		ts := p.start.Add(time.Duration(i) * p.interval)
		h := float64(ts.Hour()) + float64(ts.Minute())/60

		var shape float64
		if p.windowHours > 0 {
			// Gaussian bump around the peak: near-zero usage off-window.
			dh := hourDiff(h, p.peakHour)
			sigma := p.windowHours / 2.355 // FWHM → sigma
			shape = 0.05 + mathx.Exp(-dh*dh/(2*sigma*sigma))*3.5
		} else {
			shape = 1 + p.amp*math.Cos((h-p.peakHour)/24*2*math.Pi)
			if shape < 0.05 {
				shape = 0.05
			}
		}
		wd := ts.Weekday()
		if wd == time.Saturday || wd == time.Sunday {
			shape *= p.weekendFactor
		}
		if p.volatileWeeks {
			week := int(ts.Sub(p.start).Hours() / (24 * 7))
			if week != curWeek {
				curWeek = week
				weekMult = mathx.Exp(r.Normal(0, p.volatileSigma))
			}
			shape *= weekMult
		}
		v := p.level * shape * mathx.Exp(r.Normal(0, p.noiseCV))
		if v < 0.01 {
			v = 0.01
		}
		if p.clampHi > 0 && v > p.clampHi {
			v = p.clampHi
		}
		vals[i] = v
	}
}

// hourDiff returns the circular distance between two hours of day.
func hourDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 12 {
		d = 24 - d
	}
	return d
}
