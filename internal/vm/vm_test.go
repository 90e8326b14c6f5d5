package vm

import (
	"strings"
	"testing"
	"time"

	"edgescope/internal/timeseries"
)

var t0 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.New(t0, 5*time.Minute, vals)
}

// tinyDataset builds a 2-site, 3-VM dataset used across tests.
func tinyDataset() *Dataset {
	return &Dataset{
		Platform: "NEP",
		Start:    t0,
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
			New(VM{ID: 0, App: 0, Customer: 0, Site: 0, Server: 0, VCPUs: 8, MemGB: 16, DiskGB: 100,
				PublicBW: series(100, 200, 300)}, series(10, 20, 30), nil),
			New(VM{ID: 1, App: 0, Customer: 0, Site: 0, Server: 1, VCPUs: 16, MemGB: 64, DiskGB: 200,
				PublicBW: series(50, 50, 50)}, series(40, 50, 60), nil),
			New(VM{ID: 2, App: 1, Customer: 1, Site: 1, Server: 0, VCPUs: 4, MemGB: 16, DiskGB: 50,
				PublicBW: series(10, 10, 10)}, series(5, 5, 5), nil),
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadPlacement(t *testing.T) {
	d := tinyDataset()
	d.VMs[0].Site = 9
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "site") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesBadServer(t *testing.T) {
	d := tinyDataset()
	d.VMs[2].Server = 5
	if err := d.Validate(); err == nil {
		t.Fatal("expected server error")
	}
}

func TestValidateCatchesMissingSeries(t *testing.T) {
	d := tinyDataset()
	d.VMs[1] = New(VM{ID: 1, Site: 0, Server: 1, VCPUs: 16, MemGB: 64, PublicBW: series(50)}, nil, nil)
	if err := d.Validate(); err == nil {
		t.Fatal("expected CPU series error")
	}
}

func TestValidateCatchesCPURange(t *testing.T) {
	d := tinyDataset()
	d.VMs[0] = New(VM{ID: 0, Site: 0, Server: 0, VCPUs: 8, MemGB: 16, PublicBW: series(100)},
		series(10, 120, 30), nil)
	if err := d.Validate(); err == nil {
		t.Fatal("expected CPU range error")
	}
}

func TestValidateCatchesEmptySite(t *testing.T) {
	d := tinyDataset()
	d.Sites = append(d.Sites, &Site{Name: "empty"})
	if err := d.Validate(); err == nil {
		t.Fatal("expected empty site error")
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
	// Site 0: (8+16)/128 vCPU, (16+64)/512 mem.
	if rates[0].CPU != 24.0/128 {
		t.Fatalf("site 0 CPU sales = %v", rates[0].CPU)
	}
	if rates[0].Mem != 80.0/512 {
		t.Fatalf("site 0 mem sales = %v", rates[0].Mem)
	}
	// Paper: CPU sells ~2× better than memory relative to capacity.
	if rates[0].CPU <= rates[0].Mem {
		t.Fatal("CPU sales rate should exceed memory in this dataset")
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
