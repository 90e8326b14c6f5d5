package workload

import (
	"testing"

	"edgescope/internal/rng"
	"edgescope/internal/timeseries"
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

// TestBWReplayAllocatesNothing: a bandwidth replay into a warm buffer
// allocates nothing either, volatile weeks included — their regime
// segments stay on the stack for a four-week trace — so billing and
// Figure 11 replay VM after VM into one buffer.
func TestBWReplayAllocatesNothing(t *testing.T) {
	for _, volatile := range []bool{false, true} {
		bw := &recipe{snap: rng.New(8).Snapshot(), p: seriesParams{
			level: 40, amp: 0.5, peakHour: 21, noiseCV: 0.3,
			days: 28, interval: bwInterval, start: traceStart, weekendFactor: 1,
			volatileWeeks: volatile, volatileSigma: 0.9,
		}}
		var buf timeseries.Series
		bw.Fill(&buf)
		if allocs := testing.AllocsPerRun(20, func() { bw.Fill(&buf) }); allocs != 0 {
			t.Fatalf("volatile=%v: bandwidth replay allocates %v times per call into a warm buffer", volatile, allocs)
		}
	}
	d, err := GenerateNEP(rng.New(5), Options{Apps: 3, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf timeseries.Series
	v := d.VMs[0]
	v.BWSeries(&buf)
	if allocs := testing.AllocsPerRun(20, func() { v.BWSeries(&buf) }); allocs != 0 {
		t.Fatalf("BWSeries allocates %v times per call into a warm buffer", allocs)
	}
}
