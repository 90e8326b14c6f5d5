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
