// Package vm defines the workload-trace schema of the paper's §2.1.2
// dataset: every IaaS VM on the platform with its placement (site, server),
// ownership (customer, app), resource sizes, a CPU-usage series and a
// bandwidth-usage series. The same schema holds both the NEP edge trace and
// the Azure-like cloud trace, so every §4 analysis runs unchanged on either;
// it also matches the EdgeWorkloadsTraces dataset the authors released, so
// the analysis code would apply to the real trace directly.
//
// A VM's CPU samples sit behind one accessor, CPUSeries, which fills a
// caller-owned buffer. A generated VM holds a recipe (the random-stream
// snapshot and parameters its samples were drawn from) and regenerates them
// bit for bit on each call; an imported VM holds its samples, since real
// data cannot be regenerated. Only a few readers need samples; every other
// one reads the three per-VM summaries (MeanCPU, CPUCV, P95MaxCPU), which
// New computes once, so a trace costs a few scalars per VM, not a series.
package vm

import (
	"fmt"
	"sync"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
)

// VM is one IaaS virtual machine and its usage traces. Build one with New:
// the CPU usage and its summaries are private to it.
type VM struct {
	ID       int
	App      int // VMs with the same image and customer form one edge app
	Customer int
	Site     int // index into Dataset.Sites
	Server   int // index into the site's servers

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

// stored is an imported VM's CPU source: the samples themselves.
type stored struct{ s *timeseries.Series }

func (st stored) FillCPU(dst *timeseries.Series) {
	copy(dst.Refill(st.s.Start, st.s.Interval, st.s.Len()), st.s.Values)
}

func (st stored) CPUInterval() time.Duration { return st.s.Interval }

// pctScratch recycles the percentile copy New takes of each series.
var pctScratch = sync.Pool{New: func() any { return new(stats.Scratch) }}

// New returns v with its CPU usage set. cpu holds the samples; New computes
// MeanCPU, CPUCV and P95MaxCPU from them here, once. With a nil replay the
// VM keeps cpu itself as its source (an imported trace). With a replay the
// VM keeps only the replay and cpu stays the caller's, free for reuse (the
// generator's draw buffer): replay.FillCPU must write cpu's samples bit for
// bit. A nil cpu leaves the VM without CPU usage, which Validate reports.
func New(v VM, cpu *timeseries.Series, replay CPUSource) *VM {
	if cpu == nil {
		return &v
	}
	v.cpu = replay
	if replay == nil {
		v.cpu = stored{cpu}
	}
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
	Platform string
	Start    time.Time
	Duration time.Duration
	Sites    []*Site
	VMs      []*VM
}

// Validate checks referential integrity: placements in range, series
// present, capacities positive, CPU samples within [0,100]. It returns the
// first problem found.
func (d *Dataset) Validate() error {
	for i, s := range d.Sites {
		if len(s.Servers) == 0 {
			return fmt.Errorf("vm: site %d (%s) has no servers", i, s.Name)
		}
		for j, srv := range s.Servers {
			if srv.CPUCores <= 0 || srv.MemGB <= 0 {
				return fmt.Errorf("vm: site %d server %d has non-positive capacity", i, j)
			}
		}
	}
	var cpu timeseries.Series
	for _, v := range d.VMs {
		if v.Site < 0 || v.Site >= len(d.Sites) {
			return fmt.Errorf("vm: VM %d references site %d of %d", v.ID, v.Site, len(d.Sites))
		}
		if v.Server < 0 || v.Server >= len(d.Sites[v.Site].Servers) {
			return fmt.Errorf("vm: VM %d references server %d", v.ID, v.Server)
		}
		if v.VCPUs <= 0 || v.MemGB <= 0 {
			return fmt.Errorf("vm: VM %d has non-positive size", v.ID)
		}
		if v.cpu == nil || v.CPUSeries(&cpu).Len() == 0 {
			return fmt.Errorf("vm: VM %d has no CPU series", v.ID)
		}
		if v.PublicBW == nil || v.PublicBW.Len() == 0 {
			return fmt.Errorf("vm: VM %d has no bandwidth series", v.ID)
		}
		for _, x := range cpu.Values {
			if x < 0 || x > 100 {
				return fmt.Errorf("vm: VM %d CPU sample %v out of [0,100]", v.ID, x)
			}
		}
	}
	return nil
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

// SalesRate describes how much of a pool's capacity is subscribed.
type SalesRate struct {
	CPU float64 // subscribed vCPUs / physical cores
	Mem float64 // subscribed GB / physical GB
}

// SiteSalesRates returns the per-site CPU/memory sales rate.
func (d *Dataset) SiteSalesRates() []SalesRate {
	out := make([]SalesRate, len(d.Sites))
	soldCPU := make([]float64, len(d.Sites))
	soldMem := make([]float64, len(d.Sites))
	for _, v := range d.VMs {
		soldCPU[v.Site] += float64(v.VCPUs)
		soldMem[v.Site] += float64(v.MemGB)
	}
	for i, s := range d.Sites {
		var cores, mem float64
		for _, srv := range s.Servers {
			cores += float64(srv.CPUCores)
			mem += float64(srv.MemGB)
		}
		if cores > 0 {
			out[i].CPU = soldCPU[i] / cores
		}
		if mem > 0 {
			out[i].Mem = soldMem[i] / mem
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
