package crowd

import (
	"math"
	"runtime"
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/stats"
)

func testCampaign(t *testing.T, seed uint64) (*Campaign, *ObservationStore) {
	t.Helper()
	r := rng.New(seed)
	c := NewCampaign(r, scenario.CrowdSpec{})
	st := NewObservationStore(c, r.Fork("latency"))
	if st.Len() == 0 {
		t.Fatal("no observations")
	}
	return c, st
}

// sameRows reports the first row at which two stores differ, or -1.
func sameRows(a, b *ObservationStore) int {
	if a.Len() != b.Len() {
		return min(a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Row(i) != b.Row(i) {
			return i
		}
	}
	return -1
}

func TestGenerateUsersMix(t *testing.T) {
	r := rng.New(1)
	users := GenerateUsers(r, scenario.CrowdSpec{Users: 2000})
	var wifi, lte, fiveg, county int
	for _, u := range users {
		switch u.Access {
		case netmodel.WiFi:
			wifi++
		case netmodel.LTE:
			lte++
		case netmodel.FiveG:
			fiveg++
			if u.Metro.Name != "Beijing" {
				t.Fatalf("5G user in %s; 2020 coverage pins them to Beijing", u.Metro.Name)
			}
		}
		if u.County {
			county++
		}
	}
	n := float64(len(users))
	if w := float64(wifi) / n; math.Abs(w-0.59) > 0.05 {
		t.Fatalf("WiFi share = %.2f, want ~0.59", w)
	}
	if l := float64(lte) / n; math.Abs(l-0.34) > 0.05 {
		t.Fatalf("LTE share = %.2f, want ~0.34", l)
	}
	if f := float64(fiveg) / n; math.Abs(f-0.07) > 0.03 {
		t.Fatalf("5G share = %.2f, want ~0.07", f)
	}
	if c := float64(county) / n; c < 0.5 || c > 0.8 {
		t.Fatalf("county share = %.2f, want ~0.65 (0.7 of non-5G users)", c)
	}
}

func TestCampaignObservationShape(t *testing.T) {
	c, st := testCampaign(t, 2)
	// Per user: 1 nearest edge + 1 third edge + 1 nearest cloud + 8 members.
	want := len(c.Users) * (3 + len(c.Cloud.Sites))
	if st.Len() != want {
		t.Fatalf("observations = %d, want %d", st.Len(), want)
	}
	for i := 0; i < st.Len(); i++ {
		o := st.Row(i)
		if o.MedianRTTMs <= 0 {
			t.Fatalf("non-positive RTT in %+v", o)
		}
		if s := o.Share1 + o.Share2 + o.Share3 + o.ShareRest; math.Abs(s-1) > 1e-9 {
			t.Fatalf("hop shares sum to %v", s)
		}
	}
}

func TestFigure2aShape(t *testing.T) {
	_, st := testCampaign(t, 3)
	for _, a := range []netmodel.Access{netmodel.WiFi, netmodel.LTE} {
		ne := st.MedianRTTAcrossUsers(a, NearestEdge)
		e3 := st.MedianRTTAcrossUsers(a, ThirdNearestEdge)
		nc := st.MedianRTTAcrossUsers(a, NearestCloud)
		ac := st.MedianRTTAcrossUsers(a, CloudMember)
		if !(ne < nc && nc < ac) {
			t.Fatalf("%v: ordering broken: edge %.1f, cloud %.1f, all-clouds %.1f", a, ne, nc, ac)
		}
		if e3 < ne {
			t.Fatalf("%v: 3rd-nearest edge (%.1f) below nearest (%.1f)", a, e3, ne)
		}
		ratio := nc / ne
		if ratio < 1.15 || ratio > 3.2 {
			t.Fatalf("%v: cloud/edge RTT ratio = %.2f, paper reports 1.4-1.9x", a, ratio)
		}
	}
	// WiFi nearest edge ≈ 10.5 ms in the paper; ours includes county users
	// at up to 300 km, so allow a wider band.
	wifiEdge := st.MedianRTTAcrossUsers(netmodel.WiFi, NearestEdge)
	if wifiEdge < 6 || wifiEdge > 22 {
		t.Fatalf("WiFi nearest-edge median = %.1f ms", wifiEdge)
	}
	lteEdge := st.MedianRTTAcrossUsers(netmodel.LTE, NearestEdge)
	if lteEdge < 26 || lteEdge > 48 {
		t.Fatalf("LTE nearest-edge median = %.1f ms, want ~34", lteEdge)
	}
	if lteEdge <= wifiEdge {
		t.Fatal("LTE should be slower than WiFi at the edge")
	}
}

func TestFigure2bJitterShape(t *testing.T) {
	_, st := testCampaign(t, 4)
	for _, a := range []netmodel.Access{netmodel.WiFi, netmodel.LTE} {
		edgeCV := st.MedianCVAcrossUsers(a, NearestEdge)
		cloudCV := st.MedianCVAcrossUsers(a, NearestCloud)
		if edgeCV <= 0 || cloudCV <= 0 {
			t.Fatalf("%v: CVs must be positive", a)
		}
		if cloudCV < 1.8*edgeCV {
			t.Fatalf("%v: cloud CV (%.4f) should be ≫ edge CV (%.4f)", a, cloudCV, edgeCV)
		}
	}
}

func TestTable3HopBreakdown(t *testing.T) {
	_, st := testCampaign(t, 5)
	wifiEdge := st.HopBreakdown(netmodel.WiFi, NearestEdge)
	if wifiEdge.Share1 < 0.28 {
		t.Fatalf("WiFi edge 1st-hop share = %.2f, paper reports 44%%", wifiEdge.Share1)
	}
	lteEdge := st.HopBreakdown(netmodel.LTE, NearestEdge)
	if lteEdge.Share2 < 0.45 {
		t.Fatalf("LTE edge 2nd-hop share = %.2f, paper reports 70%%", lteEdge.Share2)
	}
	// Cloud paths spend more latency beyond the first three hops.
	wifiCloud := st.HopBreakdown(netmodel.WiFi, NearestCloud)
	if wifiCloud.ShareRest <= wifiEdge.ShareRest {
		t.Fatalf("cloud rest-share (%.2f) should exceed edge (%.2f)",
			wifiCloud.ShareRest, wifiEdge.ShareRest)
	}
	// 5G: nearly all latency in the first three hops to the nearest edge.
	fgEdge := st.HopBreakdown(netmodel.FiveG, NearestEdge)
	if first3 := fgEdge.Share1 + fgEdge.Share2 + fgEdge.Share3; first3 < 0.6 {
		t.Fatalf("5G edge first-3 share = %.2f, paper reports 98%%", first3)
	}
}

func TestTable4CoLocation(t *testing.T) {
	_, st := testCampaign(t, 6)
	rows := st.CoLocationTable()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var shareSum float64
	for _, r := range rows {
		shareSum += r.UserShare
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("class shares sum to %v", shareSum)
	}
	none := rows[NoneCoLocated]
	if none.UserShare < 0.5 || none.UserShare > 0.85 {
		t.Fatalf("none-co-located share = %.2f, paper reports 0.69", none.UserShare)
	}
	// Co-located users have zero city distance by definition.
	if rows[BothCoLocated].DistEdgeKm != 0 || rows[BothCoLocated].DistCloudKm != 0 {
		t.Fatal("both-co-located distances must be zero")
	}
	if rows[EdgeCoLocated].DistEdgeKm != 0 {
		t.Fatal("edge-co-located edge distance must be zero")
	}
	if rows[EdgeCoLocated].UserShare > 0 && rows[EdgeCoLocated].DistCloudKm <= 0 {
		t.Fatal("edge-co-located users must be away from cloud cities")
	}
	// Edge wins on RTT in every class (Table 4's headline).
	for _, r := range rows {
		if r.UserShare == 0 {
			continue
		}
		if r.RTTEdgeMs >= r.RTTCloudMs {
			t.Fatalf("%v: edge RTT %.1f not below cloud %.1f", r.Class, r.RTTEdgeMs, r.RTTCloudMs)
		}
	}
	// None-co-located users sit farther from clouds than from edges.
	if none.DistEdgeKm >= none.DistCloudKm {
		t.Fatalf("none class: edge dist %.0f should be below cloud dist %.0f",
			none.DistEdgeKm, none.DistCloudKm)
	}
}

func TestFigure3HopCounts(t *testing.T) {
	_, st := testCampaign(t, 7)
	edge := st.HopCounts(true)
	cloud := st.HopCounts(false)
	if len(edge) == 0 || len(cloud) == 0 {
		t.Fatal("missing hop-count samples")
	}
	me, mc := stats.Median(edge), stats.Median(cloud)
	if me < 5 || me > 12 {
		t.Fatalf("edge median hops = %v, paper reports 5-12 (median 8)", me)
	}
	if mc < 10 || mc > 17 {
		t.Fatalf("cloud median hops = %v, paper reports 10-16", mc)
	}
	if me >= mc {
		t.Fatal("edge should have fewer hops than cloud")
	}
}

func TestFigure5ThroughputCorrelations(t *testing.T) {
	r := rng.New(8)
	c := NewCampaign(r, scenario.CrowdSpec{})
	tobs := c.RunThroughput(r.Fork("tp"))
	rows := ThroughputCorrelations(tobs)
	if len(rows) == 0 {
		t.Fatal("no correlation rows")
	}
	get := func(a netmodel.Access, d netmodel.Direction) (CorrRow, bool) {
		for _, row := range rows {
			if row.Access == a && row.Dir == d {
				return row, true
			}
		}
		return CorrRow{}, false
	}
	if row, ok := get(netmodel.FiveG, netmodel.Downlink); ok && row.N > 30 {
		if row.Corr > -0.45 {
			t.Fatalf("5G down corr = %.2f, paper reports strong negative", row.Corr)
		}
		if row.MeanMbps < 150 {
			t.Fatalf("5G down mean = %.0f Mbps, want hundreds", row.MeanMbps)
		}
	}
	if row, ok := get(netmodel.Wired, netmodel.Downlink); ok && row.N > 30 {
		if row.Corr > -0.45 {
			t.Fatalf("wired down corr = %.2f, want strong negative", row.Corr)
		}
	}
	for _, a := range []netmodel.Access{netmodel.WiFi, netmodel.LTE} {
		if row, ok := get(a, netmodel.Downlink); ok && row.N > 50 {
			if math.Abs(row.Corr) > 0.4 {
				t.Fatalf("%v down corr = %.2f, paper reports negligible", a, row.Corr)
			}
		}
	}
	if row, ok := get(netmodel.FiveG, netmodel.Uplink); ok && row.N > 30 {
		if row.MeanMbps > 65 {
			t.Fatalf("5G uplink mean = %.0f Mbps, TDD-capped at ~52", row.MeanMbps)
		}
	}
}

func TestRunThroughputSiteSpread(t *testing.T) {
	r := rng.New(9)
	c := NewCampaign(r, scenario.CrowdSpec{ThroughputUsers: 5, ThroughputSites: 10})
	tobs := c.RunThroughput(r.Fork("tp"))
	// 5 users × 10 sites × 2 directions.
	if len(tobs) != 100 {
		t.Fatalf("observations = %d, want 100", len(tobs))
	}
}

func TestTargetKindString(t *testing.T) {
	names := map[TargetKind]string{
		NearestEdge: "nearest-edge", ThirdNearestEdge: "3rd-nearest-edge",
		NearestCloud: "nearest-cloud", CloudMember: "all-clouds",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
	if BothCoLocated.String() == "" || EdgeCoLocated.String() == "" || NoneCoLocated.String() == "" {
		t.Fatal("CoLocClass names empty")
	}
}

// TestCampaignParallelismInvariance pins the determinism contract: the
// campaign fan-out must produce identical observations whether the worker
// pool has one goroutine or many.
func TestCampaignParallelismInvariance(t *testing.T) {
	run := func() (*ObservationStore, []ThroughputObs) {
		r := rng.New(21)
		c := NewCampaign(r, scenario.CrowdSpec{Users: 40, ThroughputUsers: 8, ThroughputSites: 6})
		return NewObservationStore(c, r.Fork("latency")),
			c.RunThroughput(r.Fork("tp"))
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	obs1, tobs1 := run()
	runtime.GOMAXPROCS(8)
	obs8, tobs8 := run()
	if len(tobs1) != len(tobs8) {
		t.Fatal("throughput observation counts differ across GOMAXPROCS")
	}
	if i := sameRows(obs1, obs8); i >= 0 {
		t.Fatalf("latency observation %d differs across GOMAXPROCS", i)
	}
	for i := range tobs1 {
		if tobs1[i] != tobs8[i] {
			t.Fatalf("throughput observation %d differs across GOMAXPROCS", i)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	_, obs1 := testCampaign(t, 11)
	_, obs2 := testCampaign(t, 11)
	if i := sameRows(obs1, obs2); i >= 0 {
		t.Fatalf("observation %d differs across identical seeds", i)
	}
}

// TestRunThroughputDeterminism gives the iperf campaign the same pin the
// latency campaign has always had: identical seeds yield identical slices,
// and the parallel fan-out is invariant to GOMAXPROCS — including with
// non-default spec sizing.
func TestRunThroughputDeterminism(t *testing.T) {
	spec := scenario.CrowdSpec{
		Users: 30, Repeats: 4,
		ThroughputUsers: 12, ThroughputSites: 9,
		WiredShare: 0.5,
	}
	run := func() []ThroughputObs {
		r := rng.New(33)
		return NewCampaign(r.Fork("campaign"), spec).RunThroughput(r.Fork("tp"))
	}

	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths = %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs across identical seeds", i)
		}
	}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	if len(serial) != len(parallel) {
		t.Fatal("observation counts differ across GOMAXPROCS")
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("observation %d differs across GOMAXPROCS", i)
		}
	}
	var wired int
	for _, o := range serial {
		if o.Access == netmodel.Wired {
			wired++
		}
	}
	if wired == 0 {
		t.Fatal("WiredShare 0.5 produced no wired testers")
	}
}
