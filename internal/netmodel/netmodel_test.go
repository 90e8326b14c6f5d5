package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// medianRTT builds n independent paths and returns the median of one RTT
// sample from each, mimicking the campaign's aggregation.
func medianRTT(seed uint64, access Access, class SiteClass, distKm float64, n int) float64 {
	r := rng.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		p := BuildPath(r, access, class, distKm)
		vals[i] = p.SampleRTT(r)
	}
	return stats.Median(vals)
}

func TestAccessString(t *testing.T) {
	cases := map[Access]string{WiFi: "WiFi", LTE: "LTE", FiveG: "5G", Wired: "wired"}
	for a, want := range cases {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", int(a), a.String())
		}
	}
}

func TestProfileForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProfileFor(Access(99))
}

func TestWiFiEdgeRTTCalibration(t *testing.T) {
	// Paper: WiFi nearest edge median RTT ≈ 10.5 ms at ~130 km.
	m := medianRTT(1, WiFi, EdgeSite, 60, 800)
	if m < 7 || m > 15 {
		t.Fatalf("WiFi edge median RTT = %.1f ms, want ~10.5", m)
	}
}

func TestWiFiCloudSlower(t *testing.T) {
	// Paper: WiFi nearest cloud ≈ 19.8 ms at ~351 km, 1.89× the edge.
	edge := medianRTT(2, WiFi, EdgeSite, 60, 800)
	cloud := medianRTT(2, WiFi, CloudSite, 351, 800)
	if cloud < 15 || cloud > 28 {
		t.Fatalf("WiFi cloud median RTT = %.1f ms, want ~19.8", cloud)
	}
	ratio := cloud / edge
	if ratio < 1.3 || ratio > 2.8 {
		t.Fatalf("cloud/edge RTT ratio = %.2f, want ~1.9", ratio)
	}
}

func TestLTEEdgeRTTCalibration(t *testing.T) {
	// Paper: LTE nearest edge median RTT ≈ 34.2 ms; GTP second hop dominates.
	m := medianRTT(3, LTE, EdgeSite, 60, 800)
	if m < 26 || m > 44 {
		t.Fatalf("LTE edge median RTT = %.1f ms, want ~34.2", m)
	}
}

func TestFiveGEdgeRTTCalibration(t *testing.T) {
	// Paper: 5G nearest edge ≈ 10.4 ms, tests were co-located (Beijing).
	m := medianRTT(4, FiveG, EdgeSite, 5, 800)
	if m < 7 || m > 15 {
		t.Fatalf("5G edge median RTT = %.1f ms, want ~10.4", m)
	}
}

func TestRTTIncreasesWithDistance(t *testing.T) {
	near := medianRTT(5, WiFi, CloudSite, 100, 400)
	far := medianRTT(5, WiFi, CloudSite, 2000, 400)
	if far <= near+20 {
		t.Fatalf("RTT at 2000 km (%.1f) should exceed 100 km (%.1f) by ~38 ms", far, near)
	}
}

func TestHopCountRanges(t *testing.T) {
	r := rng.New(6)
	for i := 0; i < 500; i++ {
		e := BuildPath(r, WiFi, EdgeSite, 20+r.Float64()*280)
		if n := e.HopCount(); n < 5 || n > 12 {
			t.Fatalf("edge hop count %d outside 5-12", n)
		}
		c := BuildPath(r, WiFi, CloudSite, 300+r.Float64()*1500)
		if n := c.HopCount(); n < 10 || n > 17 {
			t.Fatalf("cloud hop count %d outside 10-17", n)
		}
	}
}

func TestCloudHasMoreHopsOnAverage(t *testing.T) {
	r := rng.New(7)
	var se, sc int
	for i := 0; i < 300; i++ {
		se += BuildPath(r, WiFi, EdgeSite, 130).HopCount()
		sc += BuildPath(r, WiFi, CloudSite, 600).HopCount()
	}
	if sc <= se {
		t.Fatalf("cloud avg hops (%d) not above edge (%d)", sc, se)
	}
}

func TestJitterEdgeVsCloud(t *testing.T) {
	// Paper Fig 2b: nearest-cloud RTT CV is ~5.8× the nearest edge under WiFi.
	r := rng.New(8)
	cvOf := func(class SiteClass, dist float64) float64 {
		var cvs []float64
		for u := 0; u < 120; u++ {
			p := BuildPath(r, WiFi, class, dist)
			samples := make([]float64, 30)
			for i := range samples {
				samples[i] = p.SampleRTT(r)
			}
			cvs = append(cvs, stats.CV(samples))
		}
		return stats.Median(cvs)
	}
	edge := cvOf(EdgeSite, 60)
	cloud := cvOf(CloudSite, 351)
	if edge <= 0 || cloud <= 0 {
		t.Fatal("CV must be positive")
	}
	if cloud < 2.5*edge {
		t.Fatalf("cloud CV (%.4f) should be well above edge CV (%.4f)", cloud, edge)
	}
	if edge > 0.04 {
		t.Fatalf("edge WiFi CV = %.4f, paper reports ~0.011", edge)
	}
}

func TestLTESecondHopDominates(t *testing.T) {
	// Paper Table 3: LTE 2nd hop ≈ 70% of end-to-end latency to nearest edge.
	r := rng.New(9)
	var share float64
	const n = 200
	for i := 0; i < n; i++ {
		_, h2, _, _ := BuildPath(r, LTE, EdgeSite, 60).HopShare()
		share += h2
	}
	share /= n
	if share < 0.5 || share > 0.85 {
		t.Fatalf("LTE 2nd-hop share = %.2f, want ~0.70", share)
	}
}

func TestWiFiFirstHopLargest(t *testing.T) {
	// Paper Table 3: WiFi 1st hop ≈ 44% of latency to the nearest edge.
	r := rng.New(10)
	var h1s, rests float64
	const n = 200
	for i := 0; i < n; i++ {
		h1, _, _, rest := BuildPath(r, WiFi, EdgeSite, 60).HopShare()
		h1s += h1
		rests += rest
	}
	if h1s/n < 0.30 {
		t.Fatalf("WiFi 1st-hop share = %.2f, want ~0.44", h1s/n)
	}
	_ = rests
}

func TestHopSharesSumToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64, d uint16) bool {
		r := rng.New(seed)
		p := BuildPath(r, WiFi, CloudSite, float64(d%3000))
		h1, h2, h3, rest := p.HopShare()
		return math.Abs(h1+h2+h3+rest-1) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleRTTPositiveAndNearBase(t *testing.T) {
	r := rng.New(12)
	p := BuildPath(r, LTE, CloudSite, 1200)
	base := p.BaseRTTMs()
	for i := 0; i < 1000; i++ {
		v := p.SampleRTT(r)
		if v < 0.8*base-1e-9 {
			t.Fatalf("sample %.2f below floor of base %.2f", v, base)
		}
	}
}

func TestBuildPathPanicsOnNegativeDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildPath(rng.New(1), WiFi, EdgeSite, -1)
}

func TestMathisMonotonicity(t *testing.T) {
	if MathisThroughputMbps(10, 1e-5) <= MathisThroughputMbps(50, 1e-5) {
		t.Fatal("throughput should fall with RTT")
	}
	if MathisThroughputMbps(10, 1e-6) <= MathisThroughputMbps(10, 1e-4) {
		t.Fatal("throughput should fall with loss")
	}
	if !math.IsInf(MathisThroughputMbps(0, 1e-5), 1) {
		t.Fatal("zero RTT should be unbounded")
	}
}

func corrDistanceThroughput(seed uint64, access Access, dir Direction) float64 {
	r := rng.New(seed)
	var ds, ts []float64
	for i := 0; i < 600; i++ {
		d := 20 + r.Float64()*2480
		p := BuildPath(r, access, EdgeSite, d)
		ds = append(ds, d)
		ts = append(ts, p.SampleThroughput(r, dir, 1000))
	}
	return stats.Pearson(ds, ts)
}

// TestSampleThroughputDeterministic: one 15-second transfer over a 5G edge
// path is a positive rate, and the same seed builds the same path and draws
// the same rate — the crowd campaign's iperf probe is exactly this draw.
func TestSampleThroughputDeterministic(t *testing.T) {
	r, twin := rng.New(7), rng.New(7)
	path := BuildPath(r, FiveG, EdgeSite, 50)
	twinPath := BuildPath(twin, FiveG, EdgeSite, 50)
	mbps := path.SampleThroughput(r, Downlink, 1000)
	if mbps <= 0 {
		t.Fatalf("throughput = %v Mbps", mbps)
	}
	if want := twinPath.SampleThroughput(twin, Downlink, 1000); mbps != want {
		t.Fatalf("throughput = %v Mbps, twin draw %v", mbps, want)
	}
}

func TestThroughputDistanceCorrelation(t *testing.T) {
	// Paper Fig 5: only high-capacity access (5G downlink, wired) shows a
	// strong negative correlation between distance and throughput.
	if c := corrDistanceThroughput(13, FiveG, Downlink); c > -0.6 {
		t.Fatalf("5G downlink corr = %.2f, want strongly negative", c)
	}
	if c := corrDistanceThroughput(14, Wired, Downlink); c > -0.6 {
		t.Fatalf("wired downlink corr = %.2f, want strongly negative", c)
	}
	if c := corrDistanceThroughput(15, WiFi, Downlink); math.Abs(c) > 0.35 {
		t.Fatalf("WiFi downlink corr = %.2f, want negligible", c)
	}
	if c := corrDistanceThroughput(16, LTE, Downlink); math.Abs(c) > 0.35 {
		t.Fatalf("LTE downlink corr = %.2f, want negligible", c)
	}
	if c := corrDistanceThroughput(17, FiveG, Uplink); math.Abs(c) > 0.35 {
		t.Fatalf("5G uplink corr = %.2f, want negligible (TDD cap)", c)
	}
}

func TestFiveGUplinkCapped(t *testing.T) {
	r := rng.New(18)
	p := BuildPath(r, FiveG, EdgeSite, 10)
	for i := 0; i < 500; i++ {
		if mbps := p.SampleThroughput(r, Uplink, 0); mbps > 65 {
			t.Fatalf("5G uplink sample %.0f Mbps above TDD cap", mbps)
		}
	}
}

func TestFiveGDownlinkMean(t *testing.T) {
	// Paper: 5G downlink mean ≈ 497 Mbps near the site.
	r := rng.New(19)
	var sum float64
	const n = 500
	for i := 0; i < n; i++ {
		p := BuildPath(r, FiveG, EdgeSite, 5)
		sum += p.SampleThroughput(r, Downlink, 1000)
	}
	mean := sum / n
	if mean < 350 || mean > 650 {
		t.Fatalf("5G downlink mean = %.0f Mbps, want ~497", mean)
	}
}

func TestServerBottleneck(t *testing.T) {
	r := rng.New(20)
	p := BuildPath(r, Wired, EdgeSite, 5)
	// A wired path carries far more than 3 Mbps, so the server allocation
	// binds: 3 Mbps at the 0.94 protocol efficiency, within the noise.
	if mbps := p.SampleThroughput(r, Downlink, 3); mbps > 3.2 || mbps < 2.4 {
		t.Fatalf("throughput %.2f, want the 3 Mbps server allocation to bind", mbps)
	}
}

// TestEnumStrings checks the names the tables print for directions and
// site classes.
func TestEnumStrings(t *testing.T) {
	if Downlink.String() != "down" || Uplink.String() != "up" {
		t.Fatal("Direction String broken")
	}
	if EdgeSite.String() != "edge" || CloudSite.String() != "cloud" {
		t.Fatal("SiteClass String broken")
	}
}

func TestLossGrowsWithDistance(t *testing.T) {
	r := rng.New(21)
	near := BuildPath(r, WiFi, EdgeSite, 50)
	far := BuildPath(r, WiFi, CloudSite, 2500)
	if far.LossRate <= near.LossRate {
		t.Fatal("loss should grow with distance/hops")
	}
}
