package workload

import (
	"bytes"
	"math"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// TestCPUReplayAllocatesNothing: regenerating a VM's CPU series into a
// buffer that already fits it allocates nothing — the replay Source lives
// on the stack — which is what lets every Figure 14 worker regenerate VM
// after VM into one buffer.
func TestCPUReplayAllocatesNothing(t *testing.T) {
	d, err := GenerateNEP(rng.New(5), Options{Apps: 3, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf timeseries.Series
	v := d.VMs[0]
	v.CPUSeries(&buf)
	if allocs := testing.AllocsPerRun(20, func() { v.CPUSeries(&buf) }); allocs != 0 {
		t.Fatalf("CPUSeries allocates %v times per call into a warm buffer", allocs)
	}
}

// TestCSVRoundTripOfGeneratedTrace: exporting a generated trace (whose VMs
// replay recipes) and importing it back (whose VMs hold the parsed samples)
// gives the same summaries and the same samples, bit for bit — one
// accessor over both kinds of CPU source.
func TestCSVRoundTripOfGeneratedTrace(t *testing.T) {
	d, err := GenerateNEP(rng.New(8), Options{Apps: 6, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sites, vms, cpu, bw bytes.Buffer
	if err := vm.ExportCSV(d, &sites, &vms, &cpu, &bw); err != nil {
		t.Fatal(err)
	}
	got, err := vm.ImportCSV(d.Platform, &sites, &vms, &cpu, &bw, vm.CSVOptions{
		Start: d.Start, CPUInterval: cpuInterval, BWInterval: bwInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(d.VMs) || got.Duration != 3*24*time.Hour {
		t.Fatalf("imported %d VMs over %v, want %d over 72h", len(got.VMs), got.Duration, len(d.VMs))
	}
	bits := math.Float64bits
	var want, have timeseries.Series
	for i, v := range d.VMs {
		g := got.VMs[i]
		if bits(g.MeanCPU()) != bits(v.MeanCPU()) || bits(g.CPUCV()) != bits(v.CPUCV()) ||
			bits(g.P95MaxCPU()) != bits(v.P95MaxCPU()) {
			t.Fatalf("VM %d: imported summaries (%v, %v, %v), generated (%v, %v, %v)", v.ID,
				g.MeanCPU(), g.CPUCV(), g.P95MaxCPU(), v.MeanCPU(), v.CPUCV(), v.P95MaxCPU())
		}
		v.CPUSeries(&want)
		g.CPUSeries(&have)
		if have.Len() != want.Len() || have.Interval != want.Interval || !have.Start.Equal(want.Start) {
			t.Fatalf("VM %d: imported series shape %d×%v from %v, generated %d×%v from %v", v.ID,
				have.Len(), have.Interval, have.Start, want.Len(), want.Interval, want.Start)
		}
		for k := range want.Values {
			if bits(have.Values[k]) != bits(want.Values[k]) {
				t.Fatalf("VM %d sample %d: imported %v, generated %v", v.ID, k, have.Values[k], want.Values[k])
			}
		}
	}
}
