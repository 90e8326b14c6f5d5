package vm

import (
	"testing"
	"time"

	"edgescope/internal/timeseries"
)

var t0 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.New(t0, 5*time.Minute, vals)
}

// fixed is a hand-built VM's Source: it replays the samples it holds.
type fixed struct{ s *timeseries.Series }

func (f fixed) Fill(dst *timeseries.Series) {
	copy(dst.Refill(f.s.Start, f.s.Interval, f.s.Len()), f.s.Values)
}

func (f fixed) Interval() time.Duration { return f.s.Interval }

// withUsage builds v with the CPU samples cpu and the bandwidth samples bw.
func withUsage(v VM, cpu, bw *timeseries.Series) *VM { return New(v, cpu, fixed{cpu}, bw, fixed{bw}) }

// WithUsage is withUsage for the external tests in validate_test.go.
var WithUsage = withUsage

// tinyDataset builds a 2-site, 3-VM dataset used across tests.
func tinyDataset() *Dataset {
	return &Dataset{
		Duration: time.Hour,
		Sites: []*Site{
			{Name: "Guangdong-01", Province: "Guangdong", Servers: []Server{
				{CPUCores: 64, MemGB: 256}, {CPUCores: 64, MemGB: 256},
			}},
			{Name: "Beijing-01", Province: "Beijing", Servers: []Server{
				{CPUCores: 64, MemGB: 256},
			}},
		},
		VMs: []*VM{
			withUsage(VM{App: 0, Site: 0, Server: 0, VCPUs: 8, MemGB: 16, DiskGB: 100},
				series(10, 20, 30), series(100, 200, 300)),
			withUsage(VM{App: 0, Site: 0, Server: 1, VCPUs: 16, MemGB: 64, DiskGB: 200},
				series(40, 50, 60), series(50, 50, 50)),
			withUsage(VM{App: 1, Site: 1, Server: 0, VCPUs: 4, MemGB: 16, DiskGB: 50},
				series(5, 5, 5), series(10, 10, 10)),
		},
	}
}

func TestVMStats(t *testing.T) {
	v := tinyDataset().VMs[0]
	if v.MeanCPU() != 20 {
		t.Fatalf("MeanCPU = %v", v.MeanCPU())
	}
	if v.P95MaxCPU() < 28 || v.P95MaxCPU() > 30 {
		t.Fatalf("P95MaxCPU = %v", v.P95MaxCPU())
	}
	if v.CPUCV() <= 0 {
		t.Fatal("CPUCV should be positive")
	}
	var got timeseries.Series
	if v.CPUSeries(&got).Len() != 3 || got.Values[2] != 30 || v.CPUInterval() != 5*time.Minute {
		t.Fatalf("CPUSeries = %+v", got)
	}
	if v.MeanBW() != 200 || len(v.WeeklyBW()) != 1 || v.WeeklyBW()[0] != 200 {
		t.Fatalf("MeanBW = %v, WeeklyBW = %v, want 200 and [200]", v.MeanBW(), v.WeeklyBW())
	}
	if v.BWSeries(&got).Len() != 3 || got.Values[1] != 200 {
		t.Fatalf("BWSeries = %+v", got)
	}
}

// TestWeeklyBWSummary: the weekly summary is the series' 7-day means, a
// trailing partial week averaged as-is.
func TestWeeklyBWSummary(t *testing.T) {
	perWeek := int(week / time.Hour)
	vals := make([]float64, 2*perWeek+2)
	for i := range vals {
		vals[i] = float64(1 + i/perWeek) // 1 in week one, 2 in week two, 3 after
	}
	bw := timeseries.New(t0, time.Hour, vals)
	v := withUsage(VM{}, series(1), bw)
	if w := v.WeeklyBW(); len(w) != 3 || w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Fatalf("WeeklyBW = %v, want [1 2 3]", w)
	}
	if v.MeanBW() != bw.Mean() {
		t.Fatalf("MeanBW = %v, want %v", v.MeanBW(), bw.Mean())
	}
}

func TestGroupings(t *testing.T) {
	d := tinyDataset()
	apps := d.AppVMs()
	if len(apps) != 2 || len(apps[0]) != 2 || len(apps[1]) != 1 {
		t.Fatalf("AppVMs = %v", apps)
	}
	sites := d.SiteVMs()
	if len(sites[0]) != 2 || len(sites[1]) != 1 {
		t.Fatalf("SiteVMs = %v", sites)
	}
}

func TestSiteSalesRates(t *testing.T) {
	d := tinyDataset()
	rates := d.SiteSalesRates()
	// Site 0: (8+16)/128 vCPU; site 1: 4/64.
	if len(rates) != 2 || rates[0] != 24.0/128 || rates[1] != 4.0/64 {
		t.Fatalf("CPU sales rates = %v, want [%v %v]", rates, 24.0/128, 4.0/64)
	}
}

func TestSiteBandwidth(t *testing.T) {
	d := tinyDataset()
	bw := d.SiteBandwidth(0)
	if bw.Values[0] != 150 || bw.Values[2] != 350 {
		t.Fatalf("site bandwidth = %v", bw.Values)
	}
	if d.SiteBandwidth(9) != nil {
		t.Fatal("unknown site should be nil")
	}
}
