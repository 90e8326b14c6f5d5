package probe

import (
	"math"
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

func TestVirtualPingMatchesModel(t *testing.T) {
	r := rng.New(3)
	path := netmodel.BuildPath(r, netmodel.WiFi, netmodel.EdgeSite, 60)
	st := VirtualPing(r, path, 30)
	if n := len(st.RTTs); n < 28 || n > 30 { // loss is ~1e-6
		t.Fatalf("received = %d of 30", n)
	}
	base := path.BaseRTTMs()
	if m := stats.Median(st.RTTs); math.Abs(m-base) > 0.25*base {
		t.Fatalf("virtual median %.1f far from base %.1f", m, base)
	}
}

func TestVirtualIperf(t *testing.T) {
	r := rng.New(7)
	path := netmodel.BuildPath(r, netmodel.FiveG, netmodel.EdgeSite, 50)
	twin := rng.New(7)
	twinPath := netmodel.BuildPath(twin, netmodel.FiveG, netmodel.EdgeSite, 50)
	mbps := VirtualIperf(r, path, netmodel.Downlink, 1000)
	if mbps <= 0 {
		t.Fatalf("virtual iperf = %v Mbps", mbps)
	}
	// The probe is one draw of the path's throughput model.
	if want := twinPath.SampleThroughput(twin, netmodel.Downlink, 1000); mbps != want {
		t.Fatalf("virtual iperf = %v Mbps, model sample %v", mbps, want)
	}
}
