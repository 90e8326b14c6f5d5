package vm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
	"edgescope/internal/workload"
)

// validate checks a trace's referential integrity: every site has servers
// of positive capacity, every VM sits on a site and server that exist, has a
// positive size, a CPU series with every sample in [0,100] and a bandwidth
// series that spans the trace. It returns the first problem found.
func validate(d *vm.Dataset) error {
	for i, s := range d.Sites {
		if len(s.Servers) == 0 {
			return fmt.Errorf("site %d (%s) has no servers", i, s.Name)
		}
		for j, srv := range s.Servers {
			if srv.CPUCores <= 0 || srv.MemGB <= 0 {
				return fmt.Errorf("site %d server %d has non-positive capacity", i, j)
			}
		}
	}
	var cpu, bw timeseries.Series
	for i, v := range d.VMs {
		if v.Site < 0 || v.Site >= len(d.Sites) {
			return fmt.Errorf("VM %d references site %d of %d", i, v.Site, len(d.Sites))
		}
		if v.Server < 0 || v.Server >= len(d.Sites[v.Site].Servers) {
			return fmt.Errorf("VM %d references server %d", i, v.Server)
		}
		if v.VCPUs <= 0 || v.MemGB <= 0 {
			return fmt.Errorf("VM %d has non-positive size", i)
		}
		if v.CPUSeries(&cpu).Len() == 0 {
			return fmt.Errorf("VM %d has no CPU series", i)
		}
		if v.BWSeries(&bw).Len() == 0 {
			return fmt.Errorf("VM %d has no bandwidth series", i)
		}
		if span := time.Duration(bw.Len()) * bw.Interval; span != d.Duration {
			return fmt.Errorf("VM %d bandwidth series spans %v of a %v trace", i, span, d.Duration)
		}
		for _, x := range cpu.Values {
			if x < 0 || x > 100 {
				return fmt.Errorf("VM %d CPU sample %v out of [0,100]", i, x)
			}
		}
	}
	return nil
}

// TestValidateOK: the generator's traces, at the sizes the workload tests
// use, pass every check.
func TestValidateOK(t *testing.T) {
	nep, err := workload.GenerateNEP(rng.New(1), workload.Options{Apps: 60, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(nep); err != nil {
		t.Fatalf("NEP trace invalid: %v", err)
	}
	cloud, err := workload.GenerateCloud(rng.New(2), workload.Options{Apps: 250, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(cloud); err != nil {
		t.Fatalf("cloud trace invalid: %v", err)
	}
}

// catches plants one fault in a small generated trace, which passes
// validate before, and asserts validate reports it by want, so
// TestValidateOK is not vacuous.
func catches(t *testing.T, want string, plant func(d *vm.Dataset)) {
	t.Helper()
	d, err := workload.GenerateNEP(rng.New(5), workload.Options{Apps: 3, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(d); err != nil {
		t.Fatalf("unplanted trace invalid: %v", err)
	}
	plant(d)
	if err := validate(d); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("planted %q: validate = %v", want, err)
	}
}

func TestValidateCatchesBadPlacement(t *testing.T) {
	catches(t, "references site", func(d *vm.Dataset) { d.VMs[0].Site = len(d.Sites) })
}

func TestValidateCatchesBadServer(t *testing.T) {
	catches(t, "references server", func(d *vm.Dataset) {
		d.VMs[0].Server = len(d.Sites[d.VMs[0].Site].Servers)
	})
}

func TestValidateCatchesBadSize(t *testing.T) {
	catches(t, "non-positive size", func(d *vm.Dataset) { d.VMs[0].MemGB = 0 })
}

func TestValidateCatchesBadCapacity(t *testing.T) {
	catches(t, "non-positive capacity", func(d *vm.Dataset) { d.Sites[0].Servers[0].CPUCores = 0 })
}

func TestValidateCatchesEmptySite(t *testing.T) {
	catches(t, "has no servers", func(d *vm.Dataset) { d.Sites = append(d.Sites, &vm.Site{Name: "empty"}) })
}

// withBW rebuilds v with the bandwidth samples bw and its own CPU samples.
func withBW(v *vm.VM, bw *timeseries.Series) *vm.VM {
	return vm.WithUsage(*v, v.CPUSeries(new(timeseries.Series)), bw)
}

// TestValidateCatchesMissingSeries: every VM has both sources, so what can
// be missing is the samples — a bandwidth source that fills nothing, or
// one that stops short of the trace.
func TestValidateCatchesMissingSeries(t *testing.T) {
	catches(t, "no bandwidth series", func(d *vm.Dataset) {
		d.VMs[0] = withBW(d.VMs[0], timeseries.New(d.VMs[0].BWSeries(new(timeseries.Series)).Start, 15*time.Minute, nil))
	})
	catches(t, "bandwidth series spans", func(d *vm.Dataset) {
		bw := d.VMs[0].BWSeries(new(timeseries.Series))
		d.VMs[0] = withBW(d.VMs[0], timeseries.New(bw.Start, bw.Interval, bw.Values[:bw.Len()-1]))
	})
}

func TestValidateCatchesCPURange(t *testing.T) {
	catches(t, "out of [0,100]", func(d *vm.Dataset) {
		v := d.VMs[0]
		cpu := timeseries.New(v.CPUSeries(new(timeseries.Series)).Start, v.CPUInterval(), []float64{10, 120, 30})
		d.VMs[0] = vm.WithUsage(*v, cpu, v.BWSeries(new(timeseries.Series)))
	})
}
