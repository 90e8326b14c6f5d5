package netmodel

import (
	"testing"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

func TestSunkPathHopCount(t *testing.T) {
	r := rng.New(1)
	p := BuildSunkPath(r, WiFi)
	// The MEC vision: 1–2 hops of infrastructure past the access network.
	if p.HopCount() != 3 {
		t.Fatalf("sunk path hops = %d, want 3 (access, agg, dc)", p.HopCount())
	}
}

func TestSunkPathBeatsRegularEdge(t *testing.T) {
	r := rng.New(2)
	med := func(build func() *Path) float64 {
		var vals []float64
		for i := 0; i < 400; i++ {
			vals = append(vals, build().SampleRTT(r))
		}
		return stats.Median(vals)
	}
	sunk := med(func() *Path { return BuildSunkPath(r, WiFi) })
	regular := med(func() *Path { return BuildPath(r, WiFi, EdgeSite, 60) })
	if sunk >= regular {
		t.Fatalf("sunk RTT %.1f not below regular edge %.1f", sunk, regular)
	}
	// WiFi MEC should approach the paper's sub-10ms target.
	if sunk > 10 {
		t.Fatalf("sunk WiFi RTT = %.1f ms, want <10 (access %.1f + agg %.1f)", sunk, 4.6, 1.1)
	}
}

func TestSunkPathMeetsVRBudgetOn5G(t *testing.T) {
	// Cloud VR/AR needs 5–20 ms (§3.1); today's NEP "barely" meets it.
	// Sinking into the RAN should land 5G inside the budget.
	r := rng.New(3)
	var vals []float64
	for i := 0; i < 400; i++ {
		vals = append(vals, BuildSunkPath(r, FiveG).SampleRTT(r))
	}
	if m := stats.Median(vals); m > 12 {
		t.Fatalf("sunk 5G median RTT = %.1f ms, want well inside 5-20", m)
	}
}

func TestSunkPathLossMinimal(t *testing.T) {
	r := rng.New(4)
	sunk := BuildSunkPath(r, WiFi)
	far := BuildPath(r, WiFi, CloudSite, 1500)
	if sunk.LossRate >= far.LossRate {
		t.Fatal("sunk path should carry less loss than a long WAN path")
	}
}
