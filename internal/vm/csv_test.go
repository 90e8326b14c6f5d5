package vm

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"edgescope/internal/timeseries"
)

func exportAll(t *testing.T, d *Dataset) (sites, vms, cpu, bw bytes.Buffer) {
	t.Helper()
	if err := ExportCSV(d, &sites, &vms, &cpu, &bw); err != nil {
		t.Fatal(err)
	}
	return
}

func TestCSVRoundTrip(t *testing.T) {
	d := tinyDataset()
	sites, vms, cpu, bw := exportAll(t, d)

	got, err := ImportCSV("NEP", &sites, &vms, &cpu, &bw, CSVOptions{
		Start:       d.Start,
		CPUInterval: 5 * time.Minute,
		BWInterval:  5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(d.VMs) || len(got.Sites) != len(d.Sites) {
		t.Fatal("round trip lost structure")
	}
	for i, v := range d.VMs {
		g := got.VMs[i]
		if g.ID != v.ID || g.App != v.App || g.Site != v.Site || g.Server != v.Server ||
			g.VCPUs != v.VCPUs || g.MemGB != v.MemGB || g.DiskGB != v.DiskGB {
			t.Fatalf("vm %d metadata mismatch: %+v vs %+v", i, g, v)
		}
		var want, have timeseries.Series
		v.CPUSeries(&want)
		for k := range want.Values {
			if g.CPUSeries(&have).Values[k] != want.Values[k] {
				t.Fatalf("vm %d cpu[%d] mismatch", i, k)
			}
		}
		for k := range v.PublicBW.Values {
			if g.PublicBW.Values[k] != v.PublicBW.Values[k] {
				t.Fatalf("vm %d bw[%d] mismatch", i, k)
			}
		}
	}
	if got.Duration != 15*time.Minute {
		t.Fatalf("duration = %v, want 15m (3 samples at 5m)", got.Duration)
	}
}

func TestCSVHeaders(t *testing.T) {
	sites, vms, cpu, bw := exportAll(t, tinyDataset())
	for name, buf := range map[string]*bytes.Buffer{
		"sites": &sites, "vms": &vms, "cpu": &cpu, "bw": &bw,
	} {
		first := strings.SplitN(buf.String(), "\n", 2)[0]
		if !strings.Contains(first, "_") || strings.ContainsAny(first, "0123456789.") {
			t.Fatalf("%s csv header looks wrong: %q", name, first)
		}
	}
}

func TestImportCSVRejectsUnknownVM(t *testing.T) {
	sites, vms, _, bw := exportAll(t, tinyDataset())
	badCPU := strings.NewReader("vm_id,slot,cpu_pct\n99,0,10\n")
	if _, err := ImportCSV("NEP", &sites, &vms, badCPU, &bw, CSVOptions{}); err == nil {
		t.Fatal("unknown vm_id accepted")
	}
}

func TestImportCSVRejectsOutOfOrderSlots(t *testing.T) {
	sites, vms, _, bw := exportAll(t, tinyDataset())
	badCPU := strings.NewReader("vm_id,slot,cpu_pct\n0,1,10\n")
	if _, err := ImportCSV("NEP", &sites, &vms, badCPU, &bw, CSVOptions{}); err == nil {
		t.Fatal("out-of-order slot accepted")
	}
}

func TestImportCSVRejectsDuplicateVM(t *testing.T) {
	sites, _, cpu, bw := exportAll(t, tinyDataset())
	dupVMs := strings.NewReader(
		"vm_id,app_id,customer_id,site,server,vcpus,mem_gb,disk_gb\n" +
			"0,0,0,0,0,8,16,100\n0,0,0,0,0,8,16,100\n")
	if _, err := ImportCSV("NEP", &sites, dupVMs, &cpu, &bw, CSVOptions{}); err == nil {
		t.Fatal("duplicate vm_id accepted")
	}
}

func TestImportCSVRejectsBadSiteRow(t *testing.T) {
	badSites := strings.NewReader(
		"site_id,name,province,servers,cores_per_server,mem_gb_per_server\n" +
			"0,x,y,0,64,256\n")
	_, vms, cpu, bw := exportAll(t, tinyDataset())
	if _, err := ImportCSV("NEP", badSites, &vms, &cpu, &bw, CSVOptions{}); err == nil {
		t.Fatal("zero-server site accepted")
	}
}

func TestImportCSVValidates(t *testing.T) {
	// A VM referencing a missing site index must fail Validate at import.
	sites := strings.NewReader(
		"site_id,name,province,servers,cores_per_server,mem_gb_per_server\n" +
			"0,a,P,1,64,256\n")
	vms := strings.NewReader(
		"vm_id,app_id,customer_id,site,server,vcpus,mem_gb,disk_gb\n" +
			"0,0,0,7,0,8,16,100\n")
	cpu := strings.NewReader("vm_id,slot,cpu_pct\n0,0,10\n")
	bw := strings.NewReader("vm_id,slot,public_mbps\n0,0,10\n")
	if _, err := ImportCSV("NEP", sites, vms, cpu, bw, CSVOptions{}); err == nil {
		t.Fatal("invalid placement accepted")
	}
}
