// Package vm defines the workload-trace schema of the paper's §2.1.2
// dataset: every IaaS VM on the platform with its placement (site, server),
// ownership (customer, app), resource sizes, a CPU-usage series and a
// bandwidth-usage series. The same schema holds both the NEP edge trace and
// the Azure-like cloud trace, so every §4 analysis runs unchanged on either;
// it also matches the EdgeWorkloadsTraces dataset the authors released, so
// the analysis code would apply to the real trace directly.
package vm

import (
	"fmt"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
)

// VM is one IaaS virtual machine and its usage traces.
type VM struct {
	ID       int
	App      int // VMs with the same image and customer form one edge app
	Customer int
	Site     int // index into Dataset.Sites
	Server   int // index into the site's servers

	VCPUs  int
	MemGB  int
	DiskGB int

	// CPU is the CPU utilisation series in percent (paper: 1-minute
	// reports; the synthetic default is 5-minute to bound memory).
	CPU *timeseries.Series
	// PublicBW is the public (Internet) bandwidth usage in Mbps (paper:
	// 5-minute reports).
	PublicBW *timeseries.Series
}

// MeanCPU returns the VM's average CPU utilisation.
func (v *VM) MeanCPU() float64 { return v.CPU.Mean() }

// P95MaxCPU returns the 95th percentile of the VM's CPU samples, the
// paper's "P95 Max" robust-maximum metric.
func (v *VM) P95MaxCPU() float64 { return stats.Percentile(v.CPU.Values, 95) }

// P95MaxCPUScratch is P95MaxCPU computed through a caller-owned
// stats.Scratch, so a walk over many VMs (Figure 10 touches every VM of both
// traces) reuses one buffer instead of copying each CPU series.
func (v *VM) P95MaxCPUScratch(sc *stats.Scratch) float64 {
	return sc.Percentile(v.CPU.Values, 95)
}

// CPUCV returns the across-time coefficient of variation of CPU usage.
func (v *VM) CPUCV() float64 { return v.CPU.CV() }

// MeanBWMbps returns the VM's average public bandwidth.
func (v *VM) MeanBWMbps() float64 {
	if v.PublicBW == nil {
		return 0
	}
	return v.PublicBW.Mean()
}

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
// non-nil, capacities positive. It returns the first problem found.
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
		if v.CPU == nil || v.CPU.Len() == 0 {
			return fmt.Errorf("vm: VM %d has no CPU series", v.ID)
		}
		if v.PublicBW == nil || v.PublicBW.Len() == 0 {
			return fmt.Errorf("vm: VM %d has no bandwidth series", v.ID)
		}
		for _, x := range v.CPU.Values {
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

// ServerCPUUsage returns, for one server, the capacity-weighted mean CPU
// utilisation of its hosted VMs at each sample (the paper's Figure 11
// machine-level metric), or nil when the server hosts nothing.
func (d *Dataset) ServerCPUUsage(site, server int) *timeseries.Series {
	var hosted []*VM
	for _, v := range d.VMs {
		if v.Site == site && v.Server == server {
			hosted = append(hosted, v)
		}
	}
	if len(hosted) == 0 {
		return nil
	}
	n := hosted[0].CPU.Len()
	vals := make([]float64, n)
	var weight float64
	for _, v := range hosted {
		w := float64(v.VCPUs)
		weight += w
		m := v.CPU.Len()
		if m > n {
			m = n
		}
		for t := 0; t < m; t++ {
			vals[t] += w * v.CPU.Values[t]
		}
	}
	if weight > 0 {
		for t := range vals {
			vals[t] /= weight
		}
	}
	return timeseries.New(hosted[0].CPU.Start, hosted[0].CPU.Interval, vals)
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
