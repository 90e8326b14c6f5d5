// Package vm defines the workload-trace schema of the paper's §2.1.2
// dataset: every IaaS VM on the platform with its placement (site, server),
// owning app, resource sizes, a CPU-usage series and a bandwidth-usage
// series. The same schema holds both the NEP edge trace and the Azure-like
// cloud trace, so every §4 analysis runs unchanged on either.
//
// A VM's CPU samples sit behind one accessor, CPUSeries, which fills a
// caller-owned buffer from the VM's CPUSource. The generator's source is a
// recipe (the random-stream snapshot and parameters the samples were drawn
// from) that regenerates them bit for bit on each call. Only a few readers
// need samples; every other one reads the three per-VM summaries (MeanCPU,
// CPUCV, P95MaxCPU), which New computes once, so a trace costs a few scalars
// per VM, not a series.
package vm

import (
	"sync"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
)

// VM is one IaaS virtual machine and its usage traces. Build one with New:
// the CPU usage and its summaries are private to it.
type VM struct {
	App    int // VMs with the same image and customer form one edge app
	Site   int // index into Dataset.Sites
	Server int // index into the site's servers

	VCPUs  int
	MemGB  int
	DiskGB int

	// PublicBW is the public (Internet) bandwidth usage in Mbps (paper:
	// 5-minute reports).
	PublicBW *timeseries.Series

	// cpu yields the CPU utilisation series in percent (paper: 1-minute
	// reports; the synthetic default is 5-minute).
	cpu                       CPUSource
	meanCPU, cpuCV, p95MaxCPU float64
}

// CPUSource produces a VM's CPU-utilisation series on demand.
type CPUSource interface {
	// FillCPU writes the series into dst, reusing dst's buffer
	// (timeseries.Series.Refill). It must be safe to call concurrently:
	// readers share one dataset.
	FillCPU(dst *timeseries.Series)
	// CPUInterval is the series' sampling interval, known without a fill.
	CPUInterval() time.Duration
}

// pctScratch recycles the percentile copy New takes of each series.
var pctScratch = sync.Pool{New: func() any { return new(stats.Scratch) }}

// New returns v with its CPU usage set. cpu holds the samples; New computes
// MeanCPU, CPUCV and P95MaxCPU from them here, once. The VM keeps only
// replay, and cpu stays the caller's, free for reuse (the generator's draw
// buffer): replay.FillCPU must write cpu's samples bit for bit.
func New(v VM, cpu *timeseries.Series, replay CPUSource) *VM {
	v.cpu = replay
	v.meanCPU = stats.Mean(cpu.Values)
	v.cpuCV = stats.CVWithMean(cpu.Values, v.meanCPU)
	sc := pctScratch.Get().(*stats.Scratch)
	v.p95MaxCPU = sc.Percentile(cpu.Values, 95)
	pctScratch.Put(sc)
	return &v
}

// CPUSeries writes the VM's CPU utilisation series (percent) into dst,
// reusing dst's buffer, and returns dst. A generated VM regenerates it; the
// caller must be done with dst's previous contents.
func (v *VM) CPUSeries(dst *timeseries.Series) *timeseries.Series {
	v.cpu.FillCPU(dst)
	return dst
}

// CPUInterval returns the CPU series' sampling interval without filling it.
func (v *VM) CPUInterval() time.Duration { return v.cpu.CPUInterval() }

// MeanCPU returns the VM's average CPU utilisation.
func (v *VM) MeanCPU() float64 { return v.meanCPU }

// P95MaxCPU returns the 95th percentile of the VM's CPU samples, the
// paper's "P95 Max" robust-maximum metric.
func (v *VM) P95MaxCPU() float64 { return v.p95MaxCPU }

// CPUCV returns the across-time coefficient of variation of CPU usage.
func (v *VM) CPUCV() float64 { return v.cpuCV }

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
// (summed across hosted VMs), or nil when the site hosts nothing. One clone
// seeds the accumulator; every further VM folds in with AddInPlace, so the
// whole walk allocates a single series.
func (d *Dataset) SiteBandwidth(site int) *timeseries.Series {
	var acc *timeseries.Series
	for _, v := range d.VMs {
		if v.Site != site || v.PublicBW == nil {
			continue
		}
		if acc == nil {
			acc = v.PublicBW.Clone()
			continue
		}
		acc.AddInPlace(v.PublicBW)
	}
	return acc
}
