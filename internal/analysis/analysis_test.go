package analysis

import (
	"sync"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
	"edgescope/internal/workload"
)

var (
	once       sync.Once
	nepTrace   *vm.Dataset
	cloudTrace *vm.Dataset
)

func traces(t *testing.T) (*vm.Dataset, *vm.Dataset) {
	t.Helper()
	once.Do(func() {
		var err error
		// 14 days so weekly resampling (Figure 13) has ≥2 windows.
		nepTrace, err = workload.GenerateNEP(rng.New(11), workload.Options{Apps: 60, Days: 14})
		if err != nil {
			panic(err)
		}
		cloudTrace, err = workload.GenerateCloud(rng.New(12), workload.Options{Apps: 250, Days: 7})
		if err != nil {
			panic(err)
		}
	})
	return nepTrace, cloudTrace
}

func TestVMSizesFigure8(t *testing.T) {
	nep, cloud := traces(t)
	sn, sc := VMSizes(nep), VMSizes(cloud)
	if sn.MedianVCPUs < 8 || sc.MedianVCPUs > 2 {
		t.Fatalf("median vCPUs: NEP %.0f (want ≥8), cloud %.0f (want ~1)",
			sn.MedianVCPUs, sc.MedianVCPUs)
	}
	if sn.MedianMemGB < 32 || sc.MedianMemGB > 8 {
		t.Fatalf("median mem: NEP %.0f, cloud %.0f", sn.MedianMemGB, sc.MedianMemGB)
	}
	// Paper: 90% of Azure VMs are small (≤4 vCPU); NEP skews medium/large.
	if sc.CPUSmall < 0.8 {
		t.Fatalf("cloud small-CPU share = %.2f, want ~0.9", sc.CPUSmall)
	}
	if sn.CPUSmall > 0.4 {
		t.Fatalf("NEP small-CPU share = %.2f, should be minor", sn.CPUSmall)
	}
	// Bucket shares sum to 1.
	for _, s := range []SizeDistribution{sn, sc} {
		if tot := s.CPUSmall + s.CPUMedium + s.CPULarge; tot < 0.999 || tot > 1.001 {
			t.Fatalf("CPU shares sum to %v", tot)
		}
		if tot := s.MemSmall + s.MemMedium + s.MemLarge; tot < 0.999 || tot > 1.001 {
			t.Fatalf("mem shares sum to %v", tot)
		}
	}
}

func TestVMSizesEmpty(t *testing.T) {
	if s := VMSizes(&vm.Dataset{}); s.MedianVCPUs != 0 {
		t.Fatal("empty dataset should be zero")
	}
}

func TestAppVMCountsFigure9(t *testing.T) {
	nep, cloud := traces(t)
	cn, cc := AppVMCounts(nep), AppVMCounts(cloud)
	for i := 1; i < len(cn); i++ {
		if cn[i-1] > cn[i] {
			t.Fatal("counts not sorted")
		}
	}
	// Paper: more big fleets on NEP (9.6% vs 6.1% with ≥50 VMs).
	if ShareAtLeast(cn, 50) <= ShareAtLeast(cc, 50) {
		t.Fatalf("NEP ≥50-VM share %.3f not above cloud %.3f",
			ShareAtLeast(cn, 50), ShareAtLeast(cc, 50))
	}
	if ShareAtLeast(nil, 1) != 0 {
		t.Fatal("empty ShareAtLeast should be 0")
	}
}

func TestUtilizationFigure10(t *testing.T) {
	nep, cloud := traces(t)
	un, uc := Utilization(nep), Utilization(cloud)
	if len(un.MeanCPU) != len(nep.VMs) {
		t.Fatal("wrong length")
	}
	// P95Max ≥ mean for every VM.
	for i := range un.MeanCPU {
		if un.P95MaxCPU[i] < un.MeanCPU[i]-1e-9 {
			t.Fatalf("VM %d: P95 max %.1f below mean %.1f", i, un.P95MaxCPU[i], un.MeanCPU[i])
		}
	}
	if stats.CDFAt(un.MeanCPU, 10) <= stats.CDFAt(uc.MeanCPU, 10) {
		t.Fatal("NEP should have more cold VMs than cloud")
	}
	if stats.Median(un.CPUCVs) <= stats.Median(uc.CPUCVs) {
		t.Fatal("NEP CPU CV should exceed cloud")
	}
}

func TestImbalanceFigure11(t *testing.T) {
	nep, _ := traces(t)
	rep := Imbalance(nep, "Guangdong")
	if len(rep.SiteCPU) < 3 {
		t.Fatalf("Guangdong sites with VMs = %d, want several", len(rep.SiteCPU))
	}
	if len(rep.ServerCPU) < 2 {
		t.Fatalf("busiest-site servers = %d", len(rep.ServerCPU))
	}
	// Normalised series have min 1.
	if mn := stats.Min(rep.SiteCPU); mn < 0.999 || mn > 1.001 {
		t.Fatalf("normalised site CPU min = %v", mn)
	}
	// Paper: usage is highly unbalanced (19.8× CPU and 731× NET across the
	// Guangdong sites sampled). The exact ordering is sample-specific; we
	// assert strong imbalance on both axes.
	if rep.SiteCPUGap < 2 {
		t.Fatalf("site CPU gap = %.1f, want imbalance", rep.SiteCPUGap)
	}
	if rep.SiteNETGap < 4 {
		t.Fatalf("site NET gap = %.1f, want severe imbalance", rep.SiteNETGap)
	}
	if rep.ServerCPUGap < 1.2 {
		t.Fatalf("server CPU gap = %.1f", rep.ServerCPUGap)
	}
}

// usageSeries builds a 5-minute series for the serverUsages tests.
func usageSeries(vals ...float64) *timeseries.Series {
	return timeseries.New(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

// fixed is a hand-built VM's Source: it replays the samples it holds.
type fixed struct{ s *timeseries.Series }

func (f fixed) Fill(dst *timeseries.Series) {
	copy(dst.Refill(f.s.Start, f.s.Interval, f.s.Len()), f.s.Values)
}

func (f fixed) Interval() time.Duration { return f.s.Interval }

// withUsage builds v with the CPU samples cpu and the bandwidth samples bw.
func withUsage(v vm.VM, cpu, bw *timeseries.Series) *vm.VM {
	return vm.New(v, cpu, fixed{cpu}, bw, fixed{bw})
}

// TestServerUsagesWeighted: a lone VM's vCPU weight cancels, so its server's
// usage is the VM's own mean CPU and its NET the VM's mean bandwidth; servers
// that host nothing are absent, and the rest come back by ascending index.
func TestServerUsagesWeighted(t *testing.T) {
	d := &vm.Dataset{VMs: []*vm.VM{
		withUsage(vm.VM{Server: 3, VCPUs: 8}, usageSeries(10, 20, 30), usageSeries(100, 200, 300)),
		withUsage(vm.VM{Server: 1, VCPUs: 4}, usageSeries(5, 5, 5), usageSeries(10, 10, 10)),
	}}
	var buf timeseries.Series
	got := serverUsages(d, []int{0, 1}, &buf)
	want := []serverUsage{{cpu: 5, net: 10}, {cpu: 20, net: 200}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("serverUsages = %+v, want %+v", got, want)
	}
}

// TestServerUsagesMultiVM: co-located VMs' CPU samples are weighted by
// vCPUs, (8·10 + 16·40)/24 = 30 at the first sample (30, 40, 50 in all, mean
// 40), and their mean bandwidths add.
func TestServerUsagesMultiVM(t *testing.T) {
	d := &vm.Dataset{VMs: []*vm.VM{
		withUsage(vm.VM{Server: 0, VCPUs: 8}, usageSeries(10, 20, 30), usageSeries(100, 200, 300)),
		withUsage(vm.VM{Server: 0, VCPUs: 16}, usageSeries(40, 50, 60), usageSeries(50, 50, 50)),
	}}
	var buf timeseries.Series
	got := serverUsages(d, []int{0, 1}, &buf)
	want := serverUsage{cpu: 40, net: 250}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("serverUsages = %+v, want [%+v]", got, want)
	}
}

// TestServerUsagesMatchPerServerScan pins the one-walk fold against the
// per-server scan it replaced, bit for bit, on every Guangdong site of a
// generated trace: for each server, the VMs it hosts in d.VMs order, their
// regenerated series weighted into one, then its mean.
func TestServerUsagesMatchPerServerScan(t *testing.T) {
	nep, _ := traces(t)
	siteVMs := nep.SiteVMs()
	var buf, cpu, bw timeseries.Series
	for i, site := range nep.Sites {
		if site.Province != "Guangdong" || len(siteVMs[i]) == 0 {
			continue
		}
		got := serverUsages(nep, siteVMs[i], &buf)
		k := 0
		for srv := range site.Servers {
			var vals []float64
			var weight, net float64
			for _, v := range nep.VMs {
				if v.Site != i || v.Server != srv {
					continue
				}
				v.CPUSeries(&cpu)
				if vals == nil {
					vals = make([]float64, cpu.Len())
				}
				w := float64(v.VCPUs)
				weight += w
				for t := range min(len(vals), cpu.Len()) {
					vals[t] += w * cpu.Values[t]
				}
				net += v.BWSeries(&bw).Mean()
			}
			if vals == nil {
				continue
			}
			for t := range vals {
				vals[t] /= weight
			}
			want := serverUsage{cpu: stats.Mean(vals), net: net}
			if k >= len(got) || got[k] != want {
				t.Fatalf("site %d server %d: one walk %+v, per-server scan %+v", i, srv, got[k:], want)
			}
			k++
		}
		if k != len(got) {
			t.Fatalf("site %d: one walk found %d servers, scan %d", i, len(got), k)
		}
	}
}

func TestImbalanceUnknownProvince(t *testing.T) {
	nep, _ := traces(t)
	rep := Imbalance(nep, "Atlantis")
	if len(rep.SiteCPU) != 0 || rep.SiteCPUGap != 0 {
		t.Fatal("unknown province should be empty")
	}
}

func TestAppGapsFigure12(t *testing.T) {
	nep, cloud := traces(t)
	gn, gc := AppGaps(nep, 5), AppGaps(cloud, 5)
	if len(gn) == 0 || len(gc) == 0 {
		t.Fatal("no apps with ≥5 VMs")
	}
	// Paper: 16.3% of NEP apps exceed a 50× cross-VM gap vs 0.1% on Azure.
	nepBig := ShareAtLeast(gn, 50)
	cloudBig := ShareAtLeast(gc, 50)
	if nepBig <= cloudBig {
		t.Fatalf("NEP ≥50× share %.3f not above cloud %.3f", nepBig, cloudBig)
	}
	if nepBig < 0.04 {
		t.Fatalf("NEP ≥50× share = %.3f, want ~0.16", nepBig)
	}
	if cloudBig > 0.05 {
		t.Fatalf("cloud ≥50× share = %.3f, want ~0", cloudBig)
	}
}

func TestAppDaySampleFigure12b(t *testing.T) {
	nep, _ := traces(t)
	rows := AppDaySample(nep, 11)
	if len(rows) == 0 {
		t.Fatal("no day sample")
	}
	if len(rows) > 11 {
		t.Fatalf("rows = %d, want ≤11", len(rows))
	}
	perDay := len(rows[0])
	for _, row := range rows {
		if len(row) != perDay {
			t.Fatal("ragged day sample")
		}
	}
	if AppDaySample(&vm.Dataset{}, 5) != nil {
		t.Fatal("empty dataset should be nil")
	}
}

func TestWeeklyBandwidthFigure13(t *testing.T) {
	nep, _ := traces(t)
	idx := MostVolatileBW(nep, 4)
	if len(idx) != 4 {
		t.Fatalf("volatile VMs = %d", len(idx))
	}
	rows := WeeklyBandwidth(nep, idx)
	if len(rows) != 4 {
		t.Fatalf("weekly rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row) < 1 {
			t.Fatal("missing weeks")
		}
	}
	// Volatile selection must out-vary a random VM.
	some := WeeklyBandwidth(nep, []int{0})
	_ = some
	// Out-of-range indices are skipped, not fatal.
	if got := WeeklyBandwidth(nep, []int{-1, 1 << 30}); len(got) != 0 {
		t.Fatal("bad indices should be skipped")
	}
}

func TestMostVolatileOrdering(t *testing.T) {
	nep, _ := traces(t)
	idx := MostVolatileBW(nep, 10)
	ratio := func(i int) float64 {
		w := nep.VMs[i].BWSeries(new(timeseries.Series)).ResampleInto(&timeseries.Series{}, 7*24*time.Hour, timeseries.AggMean)
		mn, mx := stats.Min(w.Values), stats.Max(w.Values)
		if mn <= 0 {
			mn = 1e-6
		}
		return mx / mn
	}
	for k := 1; k < len(idx); k++ {
		if ratio(idx[k-1]) < ratio(idx[k])-1e-9 {
			t.Fatal("volatility not sorted descending")
		}
	}
}
