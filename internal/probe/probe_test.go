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
	if st.Sent != 30 {
		t.Fatalf("sent = %d", st.Sent)
	}
	if st.Received < 28 { // loss is ~1e-6
		t.Fatalf("received = %d", st.Received)
	}
	base := path.BaseRTTMs()
	if m := stats.Median(st.RTTs); math.Abs(m-base) > 0.25*base {
		t.Fatalf("virtual median %.1f far from base %.1f", m, base)
	}
}

func TestVirtualIperf(t *testing.T) {
	r := rng.New(7)
	path := netmodel.BuildPath(r, netmodel.FiveG, netmodel.EdgeSite, 50)
	res := VirtualIperf(r, path, netmodel.Downlink, 1000)
	if res.Mbps <= 0 || res.Bytes <= 0 {
		t.Fatalf("virtual iperf = %+v", res)
	}
	// 15 s at the measured rate must match the byte count.
	wantBytes := res.Mbps * 1e6 / 8 * 15
	if math.Abs(wantBytes-float64(res.Bytes)) > 1e6 {
		t.Fatalf("bytes %.0f inconsistent with rate", float64(res.Bytes))
	}
}
