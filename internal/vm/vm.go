// Package vm defines the workload-trace schema of the paper's §2.1.2
// dataset: every IaaS VM on the platform with its placement (site, server),
// owning app, resource sizes, a CPU-usage series and a bandwidth-usage
// series. The same schema holds both the NEP edge trace and the Azure-like
// cloud trace, so every §4 analysis runs unchanged on either.
//
// A VM holds no samples. Each of its two series sits behind one accessor,
// CPUSeries or BWSeries, which fills a caller-owned buffer from the VM's
// Source. The generator's source is a recipe (the random-stream snapshot and
// parameters the samples were drawn from) that regenerates them bit for bit
// on each call. Only a few readers need samples; every other one reads the
// per-VM summaries (MeanCPU, CPUCV, P95MaxCPU, MeanBW, WeeklyBW), which New
// computes once, so a trace costs a few scalars per VM, not a series.
package vm

import (
	"sync"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
)

// VM is one IaaS virtual machine and its usage traces. Build one with New:
// the usage series and their summaries are private to it.
type VM struct {
	App    int // VMs with the same image and customer form one edge app
	Site   int // index into Dataset.Sites
	Server int // index into the site's servers

	VCPUs  int
	MemGB  int
	DiskGB int

	// cpu yields the CPU utilisation series in percent (paper: 1-minute
	// reports; the synthetic default is 5-minute); bw the public (Internet)
	// bandwidth usage in Mbps (paper: 5-minute reports).
	cpu, bw                   Source
	meanCPU, cpuCV, p95MaxCPU float64
	meanBW                    float64
	weeklyBW                  []float64
}

// Source produces one of a VM's usage series on demand.
type Source interface {
	// Fill writes the series into dst, reusing dst's buffer
	// (timeseries.Series.Refill). It must be safe to call concurrently:
	// readers share one dataset.
	Fill(dst *timeseries.Series)
	// Interval is the series' sampling interval, known without a fill.
	Interval() time.Duration
}

// week is the window of the weekly bandwidth summary (Figure 13).
const week = 7 * 24 * time.Hour

// pctScratch recycles the percentile copy New takes of each series.
var pctScratch = sync.Pool{New: func() any { return new(stats.Scratch) }}

// New returns v with its usage set. cpu and bw hold the samples; New
// computes every summary from them here, once. The VM keeps only the two
// sources, and cpu and bw stay the caller's, free for reuse (the generator's
// draw buffers): cpuSrc.Fill must write cpu's samples bit for bit, and
// bwSrc.Fill bw's.
func New(v VM, cpu *timeseries.Series, cpuSrc Source, bw *timeseries.Series, bwSrc Source) *VM {
	v.cpu, v.bw = cpuSrc, bwSrc
	v.meanCPU = stats.Mean(cpu.Values)
	v.cpuCV = stats.CVWithMean(cpu.Values, v.meanCPU)
	sc := pctScratch.Get().(*stats.Scratch)
	v.p95MaxCPU = sc.Percentile(cpu.Values, 95)
	pctScratch.Put(sc)
	v.meanBW = stats.Mean(bw.Values)
	var weekly timeseries.Series
	v.weeklyBW = bw.ResampleInto(&weekly, week, timeseries.AggMean).Values
	return &v
}

// CPUSeries writes the VM's CPU utilisation series (percent) into dst,
// reusing dst's buffer, and returns dst. A generated VM regenerates it; the
// caller must be done with dst's previous contents.
func (v *VM) CPUSeries(dst *timeseries.Series) *timeseries.Series {
	v.cpu.Fill(dst)
	return dst
}

// CPUInterval returns the CPU series' sampling interval without filling it.
func (v *VM) CPUInterval() time.Duration { return v.cpu.Interval() }

// MeanCPU returns the VM's average CPU utilisation.
func (v *VM) MeanCPU() float64 { return v.meanCPU }

// P95MaxCPU returns the 95th percentile of the VM's CPU samples, the
// paper's "P95 Max" robust-maximum metric.
func (v *VM) P95MaxCPU() float64 { return v.p95MaxCPU }

// CPUCV returns the across-time coefficient of variation of CPU usage.
func (v *VM) CPUCV() float64 { return v.cpuCV }

// BWSeries writes the VM's public bandwidth series (Mbps) into dst, as
// CPUSeries does the CPU series, and returns dst.
func (v *VM) BWSeries(dst *timeseries.Series) *timeseries.Series {
	v.bw.Fill(dst)
	return dst
}

// MeanBW returns the VM's average public bandwidth in Mbps.
func (v *VM) MeanBW() float64 { return v.meanBW }

// WeeklyBW returns the VM's bandwidth averaged per week, one value per
// (possibly partial) week of the trace. The slice is the VM's own: callers
// must not modify it.
func (v *VM) WeeklyBW() []float64 { return v.weeklyBW }

// Server is one physical machine of a site.
type Server struct {
	CPUCores int
	MemGB    int
}

// Site is one datacenter with its physical inventory.
type Site struct {
	Name     string
	Province string
	Servers  []Server
}

// Dataset is a complete platform trace over a time window.
type Dataset struct {
	Duration time.Duration
	Sites    []*Site
	VMs      []*VM
}

// AppVMs groups VM indices by app ID.
func (d *Dataset) AppVMs() map[int][]int {
	out := map[int][]int{}
	for i, v := range d.VMs {
		out[v.App] = append(out[v.App], i)
	}
	return out
}

// SiteVMs groups VM indices by site index.
func (d *Dataset) SiteVMs() map[int][]int {
	out := map[int][]int{}
	for i, v := range d.VMs {
		out[v.Site] = append(out[v.Site], i)
	}
	return out
}

// SiteSalesRates returns each site's CPU sales rate: subscribed vCPUs over
// physical cores.
func (d *Dataset) SiteSalesRates() []float64 {
	out := make([]float64, len(d.Sites))
	sold := make([]float64, len(d.Sites))
	for _, v := range d.VMs {
		sold[v.Site] += float64(v.VCPUs)
	}
	for i, s := range d.Sites {
		var cores float64
		for _, srv := range s.Servers {
			cores += float64(srv.CPUCores)
		}
		if cores > 0 {
			out[i] = sold[i] / cores
		}
	}
	return out
}

// SiteBandwidth returns a site's total public bandwidth series in Mbps
// (summed across hosted VMs, in d.VMs order), or nil when the site hosts
// nothing. The first VM's series is replayed into the result; every further
// one is replayed into a single scratch buffer and folded in with
// AddInPlace, so the walk allocates two series whatever the site's size.
func (d *Dataset) SiteBandwidth(site int) *timeseries.Series {
	var acc, buf *timeseries.Series
	for _, v := range d.VMs {
		if v.Site != site {
			continue
		}
		if acc == nil {
			acc = v.BWSeries(new(timeseries.Series))
			buf = new(timeseries.Series)
			continue
		}
		acc.AddInPlace(v.BWSeries(buf))
	}
	return acc
}
