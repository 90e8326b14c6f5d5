package vm

import (
	"bytes"
	"path/filepath"
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
			{ID: 0, App: 0, Customer: 0, Site: 0, Server: 0, VCPUs: 8, MemGB: 16, DiskGB: 100,
				CPU: series(10, 20, 30), PublicBW: series(100, 200, 300)},
			{ID: 1, App: 0, Customer: 0, Site: 0, Server: 1, VCPUs: 16, MemGB: 64, DiskGB: 200,
				CPU: series(40, 50, 60), PublicBW: series(50, 50, 50)},
			{ID: 2, App: 1, Customer: 1, Site: 1, Server: 0, VCPUs: 4, MemGB: 16, DiskGB: 50,
				CPU: series(5, 5, 5), PublicBW: series(10, 10, 10)},
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
	d.VMs[1].CPU = nil
	if err := d.Validate(); err == nil {
		t.Fatal("expected CPU series error")
	}
}

func TestValidateCatchesCPURange(t *testing.T) {
	d := tinyDataset()
	d.VMs[0].CPU = series(10, 120, 30)
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
	if v.MeanBWMbps() != 200 {
		t.Fatalf("MeanBWMbps = %v", v.MeanBWMbps())
	}
	if (&VM{}).MeanBWMbps() != 0 {
		t.Fatal("nil bandwidth should mean 0")
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

func TestServerCPUUsageWeighted(t *testing.T) {
	d := tinyDataset()
	s := d.ServerCPUUsage(0, 0)
	if s == nil || s.Len() != 3 {
		t.Fatal("missing usage series")
	}
	if s.Values[0] != 10 { // single VM, weight cancels
		t.Fatalf("usage[0] = %v", s.Values[0])
	}
	if d.ServerCPUUsage(1, 0) == nil {
		t.Fatal("occupied server reported empty")
	}
	if d.ServerCPUUsage(0, 9) != nil {
		t.Fatal("empty server should be nil")
	}
}

func TestServerCPUUsageMultiVM(t *testing.T) {
	d := tinyDataset()
	d.VMs[1].Server = 0 // co-locate with VM 0
	s := d.ServerCPUUsage(0, 0)
	// weighted: (8*10 + 16*40)/24 = 30
	if s.Values[0] != 30 {
		t.Fatalf("weighted usage = %v, want 30", s.Values[0])
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

func TestSaveLoadRoundTrip(t *testing.T) {
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "trace.gob.gz")
	if err := Save(d, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != d.Platform || len(got.VMs) != len(d.VMs) || len(got.Sites) != len(d.Sites) {
		t.Fatal("round trip lost structure")
	}
	if got.VMs[1].CPU.Values[2] != 60 {
		t.Fatal("round trip lost series data")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob.gz")); err == nil {
		t.Fatal("expected error")
	}
}

func TestWriteVMTableCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVMTableCSV(tinyDataset(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 VMs
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "vm_id,app_id") {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.Contains(lines[1], "8,16,100") {
		t.Fatalf("row = %s", lines[1])
	}
}
