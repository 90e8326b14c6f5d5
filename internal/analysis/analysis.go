// Package analysis computes the paper's §4 workload characterisations from
// a vm.Dataset: VM sizing (Fig 8), per-app fleet sizes (Fig 9), CPU
// utilisation and its temporal variance (Fig 10), cross-server/site load
// imbalance (Fig 11), per-app cross-VM imbalance (Fig 12), and week-scale
// bandwidth volatility (Fig 13). Every function works on the trace schema
// alone, so it would run unchanged on the released EdgeWorkloadsTraces data.
package analysis

import (
	"slices"
	"sort"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// SizeDistribution summarises Figure 8 for one platform.
type SizeDistribution struct {
	MedianVCPUs float64
	MedianMemGB float64
	// SmallShare/MediumShare/LargeShare bucket VMs at ≤4 / 5–16 / >16
	// vCPUs (or GB), the paper's small/medium/large split.
	CPUSmall, CPUMedium, CPULarge float64
	MemSmall, MemMedium, MemLarge float64
}

// VMSizes computes Figure 8's distribution for a dataset.
func VMSizes(d *vm.Dataset) SizeDistribution {
	var out SizeDistribution
	n := float64(len(d.VMs))
	if n == 0 {
		return out
	}
	cpus := make([]float64, len(d.VMs))
	mems := make([]float64, len(d.VMs))
	for i, v := range d.VMs {
		cpus[i] = float64(v.VCPUs)
		mems[i] = float64(v.MemGB)
		switch {
		case v.VCPUs <= 4:
			out.CPUSmall++
		case v.VCPUs <= 16:
			out.CPUMedium++
		default:
			out.CPULarge++
		}
		switch {
		case v.MemGB <= 4:
			out.MemSmall++
		case v.MemGB <= 16:
			out.MemMedium++
		default:
			out.MemLarge++
		}
	}
	out.CPUSmall /= n
	out.CPUMedium /= n
	out.CPULarge /= n
	out.MemSmall /= n
	out.MemMedium /= n
	out.MemLarge /= n
	out.MedianVCPUs = stats.SummarizeInPlace(cpus).Median()
	out.MedianMemGB = stats.SummarizeInPlace(mems).Median()
	return out
}

// AppVMCounts returns the per-app fleet sizes (Figure 9's CDF input) sorted
// ascending.
func AppVMCounts(d *vm.Dataset) []float64 {
	apps := d.AppVMs()
	out := make([]float64, 0, len(apps))
	for _, vms := range apps {
		out = append(out, float64(len(vms)))
	}
	sort.Float64s(out)
	return out
}

// ShareAtLeast returns the fraction of values ≥ threshold (e.g. the paper's
// "9.6% of apps deploy at least 50 VMs").
func ShareAtLeast(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// UtilizationSummary summarises Figure 10 for one platform.
type UtilizationSummary struct {
	// MeanCPU / P95MaxCPU / CPUCVs hold one entry per VM.
	MeanCPU   []float64
	P95MaxCPU []float64
	CPUCVs    []float64
}

// Utilization computes Figure 10's inputs from the per-VM summaries the
// trace holds: no CPU series is read.
func Utilization(d *vm.Dataset) UtilizationSummary {
	out := UtilizationSummary{
		MeanCPU:   make([]float64, len(d.VMs)),
		P95MaxCPU: make([]float64, len(d.VMs)),
		CPUCVs:    make([]float64, len(d.VMs)),
	}
	for i, v := range d.VMs {
		out.MeanCPU[i] = v.MeanCPU()
		out.P95MaxCPU[i] = v.P95MaxCPU()
		out.CPUCVs[i] = v.CPUCV()
	}
	return out
}

// ImbalanceReport quantifies Figure 11 for one province sample: per-server
// and per-site CPU usage and bandwidth, normalised to the smallest, plus
// their max/min gaps.
type ImbalanceReport struct {
	// SiteCPU / SiteNET hold one mean value per site (normalised); Gap
	// fields are max/min ratios before normalisation flooring.
	SiteCPU []float64
	SiteNET []float64
	// ServerCPU / ServerNET are for the servers of the busiest site.
	ServerCPU []float64
	ServerNET []float64

	SiteCPUGap   float64
	SiteNETGap   float64
	ServerCPUGap float64
	ServerNETGap float64
}

// Imbalance computes Figure 11 over the sites of one province (the paper
// samples Guangdong). A server's CPU usage is the vCPU-weighted mean
// utilisation of its VMs at each sample, and a site's is the mean of its
// servers'; NET is total bandwidth. Returns a zero report when the province
// hosts nothing.
func Imbalance(d *vm.Dataset, province string) ImbalanceReport {
	var rep ImbalanceReport
	siteVMs := d.SiteVMs()

	type siteStat struct {
		cpu   float64
		net   float64
		vmCt  int
		usage []serverUsage
	}
	var sites []siteStat
	var cpu timeseries.Series // the regeneration buffer every VM shares
	for i, s := range d.Sites {
		if s.Province != province || len(siteVMs[i]) == 0 {
			continue
		}
		usage := serverUsages(d, siteVMs[i], &cpu)
		var cpuSum float64
		for _, u := range usage {
			cpuSum += u.cpu
		}
		var net float64
		if bw := d.SiteBandwidth(i); bw != nil {
			net = bw.Mean()
		}
		sites = append(sites, siteStat{cpu: cpuSum / float64(len(usage)), net: net,
			vmCt: len(siteVMs[i]), usage: usage})
	}
	if len(sites) == 0 {
		return rep
	}

	for _, s := range sites {
		rep.SiteCPU = append(rep.SiteCPU, s.cpu)
		rep.SiteNET = append(rep.SiteNET, s.net)
	}
	rep.SiteCPUGap = gap(rep.SiteCPU)
	rep.SiteNETGap = gap(rep.SiteNET)
	rep.SiteCPU = stats.Normalize(rep.SiteCPU, 1e-6)
	rep.SiteNET = stats.Normalize(rep.SiteNET, 1e-6)

	// Busiest site's servers.
	busiest := sites[0]
	for _, s := range sites[1:] {
		if s.vmCt > busiest.vmCt {
			busiest = s
		}
	}
	for _, u := range busiest.usage {
		rep.ServerCPU = append(rep.ServerCPU, u.cpu)
		rep.ServerNET = append(rep.ServerNET, u.net)
	}
	rep.ServerCPUGap = gap(rep.ServerCPU)
	rep.ServerNETGap = gap(rep.ServerNET)
	rep.ServerCPU = stats.Normalize(rep.ServerCPU, 1e-6)
	rep.ServerNET = stats.Normalize(rep.ServerNET, 1e-6)
	return rep
}

// serverUsage is one server's Figure 11 load: the mean of its weighted CPU
// usage series and its VMs' total mean bandwidth.
type serverUsage struct {
	cpu, net float64
}

// serverUsages walks one site's VMs once, in d.VMs order, regenerating each
// VM's CPU series into buf and folding it, weighted by vCPUs, into its
// server's usage series; it returns the hosting servers' loads by ascending
// server index. The weighted series has the first hosted VM's length.
func serverUsages(d *vm.Dataset, vmIdx []int, buf *timeseries.Series) []serverUsage {
	type acc struct {
		vals   []float64
		weight float64
		net    float64
	}
	accs := map[int]*acc{}
	for _, vi := range vmIdx {
		v := d.VMs[vi]
		v.CPUSeries(buf)
		a := accs[v.Server]
		if a == nil {
			a = &acc{vals: make([]float64, buf.Len())}
			accs[v.Server] = a
		}
		w := float64(v.VCPUs)
		a.weight += w
		for t := range min(len(a.vals), buf.Len()) {
			a.vals[t] += w * buf.Values[t]
		}
		a.net += v.MeanBW()
	}
	servers := make([]int, 0, len(accs))
	for srv := range accs {
		servers = append(servers, srv)
	}
	sort.Ints(servers)
	out := make([]serverUsage, len(servers))
	for i, srv := range servers {
		a := accs[srv]
		if a.weight > 0 {
			for t := range a.vals {
				a.vals[t] /= a.weight
			}
		}
		out[i] = serverUsage{cpu: stats.Mean(a.vals), net: a.net}
	}
	return out
}

// gap is max/min with a tiny floor to keep ratios finite.
func gap(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mn, mx := stats.Min(xs), stats.Max(xs)
	if mn < 1e-6 {
		mn = 1e-6
	}
	return mx / mn
}

// AppGaps returns, for every app with at least minVMs VMs, the P95/P5 gap of
// its VMs' mean CPU usage — Figure 12a's CDF input.
func AppGaps(d *vm.Dataset, minVMs int) []float64 {
	if minVMs < 2 {
		minVMs = 2
	}
	var out []float64
	apps := d.AppVMs()
	ids := make([]int, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		vms := apps[id]
		if len(vms) < minVMs {
			continue
		}
		means := make([]float64, len(vms))
		for i, vi := range vms {
			means[i] = d.VMs[vi].MeanCPU()
		}
		out = append(out, stats.SummarizeInPlace(means).Gap(0.01))
	}
	return out
}

// AppDaySample extracts one day of CPU usage for up to maxVMs VMs of the
// app with the most VMs — Figure 12b's spaghetti plot.
func AppDaySample(d *vm.Dataset, maxVMs int) [][]float64 {
	apps := d.AppVMs()
	bestApp, bestN := -1, 0
	for id, vms := range apps {
		if len(vms) > bestN || (len(vms) == bestN && id < bestApp) {
			bestApp, bestN = id, len(vms)
		}
	}
	if bestApp < 0 {
		return nil
	}
	var out [][]float64
	var cpu timeseries.Series
	for _, vi := range apps[bestApp] {
		if len(out) >= maxVMs {
			break
		}
		d.VMs[vi].CPUSeries(&cpu)
		perDay := int(24 * time.Hour / cpu.Interval)
		if perDay > cpu.Len() {
			perDay = cpu.Len()
		}
		day := make([]float64, perDay)
		copy(day, cpu.Values[:perDay])
		out = append(out, day)
	}
	return out
}

// WeeklyBandwidth returns each selected VM's weekly-averaged bandwidth
// (Figure 13): one row per VM, one column per week, copied from the VMs'
// weekly summaries.
func WeeklyBandwidth(d *vm.Dataset, vmIdx []int) [][]float64 {
	var out [][]float64
	for _, vi := range vmIdx {
		if vi < 0 || vi >= len(d.VMs) {
			continue
		}
		out = append(out, slices.Clone(d.VMs[vi].WeeklyBW()))
	}
	return out
}

// MostVolatileBW returns the indices of the n VMs whose weekly bandwidth
// averages vary the most (max/min ratio), the paper's Figure 13 selection.
func MostVolatileBW(d *vm.Dataset, n int) []int {
	type cand struct {
		idx   int
		ratio float64
	}
	var cands []cand
	for i, v := range d.VMs {
		weekly := v.WeeklyBW()
		if len(weekly) < 2 {
			continue
		}
		mn, mx := stats.Min(weekly), stats.Max(weekly)
		if mn <= 0 {
			mn = 1e-6
		}
		cands = append(cands, cand{idx: i, ratio: mx / mn})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].ratio != cands[b].ratio {
			return cands[a].ratio > cands[b].ratio
		}
		return cands[a].idx < cands[b].idx
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}
