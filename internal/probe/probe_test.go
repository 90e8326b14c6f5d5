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
