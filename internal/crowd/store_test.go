package crowd

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/stats"
)

// serialWalk is the reference observation walk: the same pre-forked
// per-user seeds, target order and per-target common-random-number streams
// NewObservationStore uses, measured one user at a time into a plain slice.
func serialWalk(c *Campaign, r *rng.Source) []Observation {
	var out []Observation
	var sc obsScratch
	for _, u := range c.Users {
		seed := r.Fork(fmt.Sprintf("user-%d", u.ID)).Uint64()
		crn := func() *rng.Source { return rng.New(seed) }
		edge := c.NEP.NearestSites(u.Loc)
		cloud := c.Cloud.NearestSites(u.Loc)
		out = append(out,
			c.observe(crn(), u, NearestEdge, c.NEP.Sites[edge[0]], &sc),
			c.observe(crn(), u, ThirdNearestEdge, c.NEP.Sites[edge[2]], &sc),
			c.observe(crn(), u, NearestCloud, c.Cloud.Sites[cloud[0]], &sc))
		for _, ci := range cloud {
			out = append(out, c.observe(crn(), u, CloudMember, c.Cloud.Sites[ci], &sc))
		}
	}
	return out
}

// The slice walkers below are the oracle the store's aggregations are
// checked against: each one re-derives its answer from a plain
// []Observation by filtering and map building, with no group index and no
// reliance on row order.

// refPerUser collapses observations of one (access, target) pair to one
// mean per user, in ascending user ID.
func refPerUser(obs []Observation, a netmodel.Access, k TargetKind, metric func(Observation) float64) []float64 {
	byUser := map[int][]float64{}
	for _, o := range obs {
		if o.Access == a && o.Target == k {
			byUser[o.UserID] = append(byUser[o.UserID], metric(o))
		}
	}
	ids := make([]int, 0, len(byUser))
	for id := range byUser {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		out = append(out, stats.Mean(byUser[id]))
	}
	return out
}

func refMedianRTTAcrossUsers(obs []Observation, a netmodel.Access, k TargetKind) float64 {
	return stats.SummarizeInPlace(refPerUser(obs, a, k, func(o Observation) float64 { return o.MedianRTTMs })).Median()
}

func refMedianCVAcrossUsers(obs []Observation, a netmodel.Access, k TargetKind) float64 {
	return stats.SummarizeInPlace(refPerUser(obs, a, k, func(o Observation) float64 { return o.CV })).Median()
}

func refHopBreakdown(obs []Observation, a netmodel.Access, k TargetKind) HopBreakdownRow {
	row := HopBreakdownRow{Access: a, Target: k}
	var n float64
	for _, o := range obs {
		if o.Access != a || o.Target != k {
			continue
		}
		row.Share1 += o.Share1
		row.Share2 += o.Share2
		row.Share3 += o.Share3
		row.ShareRest += o.ShareRest
		n++
	}
	if n > 0 {
		row.Share1 /= n
		row.Share2 /= n
		row.Share3 /= n
		row.ShareRest /= n
	}
	return row
}

// refCoLocationTable sums the classes over users in ascending ID, the
// order the store accumulates in, so the two agree bit for bit.
func refCoLocationTable(obs []Observation) []Table4Row {
	type userAgg struct {
		rttE, rttC, distE, distC float64
		haveE, haveC             bool
	}
	users := map[int]*userAgg{}
	for _, o := range obs {
		ua := users[o.UserID]
		if ua == nil {
			ua = &userAgg{}
			users[o.UserID] = ua
		}
		switch o.Target {
		case NearestEdge:
			ua.rttE, ua.distE, ua.haveE = o.MedianRTTMs, o.CityDistKm, true
		case NearestCloud:
			ua.rttC, ua.distC, ua.haveC = o.MedianRTTMs, o.CityDistKm, true
		}
	}
	ids := make([]int, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([]Table4Row, 3)
	counts := make([]float64, 3)
	var total float64
	for _, id := range ids {
		ua := users[id]
		if !ua.haveE || !ua.haveC {
			continue
		}
		class := NoneCoLocated
		switch {
		case ua.distE == 0 && ua.distC == 0:
			class = BothCoLocated
		case ua.distE == 0:
			class = EdgeCoLocated
		}
		i := int(class)
		rows[i].RTTEdgeMs += ua.rttE
		rows[i].RTTCloudMs += ua.rttC
		rows[i].DistEdgeKm += ua.distE
		rows[i].DistCloudKm += ua.distC
		counts[i]++
		total++
	}
	for i := range rows {
		rows[i].Class = CoLocClass(i)
		if counts[i] > 0 {
			rows[i].RTTEdgeMs /= counts[i]
			rows[i].RTTCloudMs /= counts[i]
			rows[i].DistEdgeKm /= counts[i]
			rows[i].DistCloudKm /= counts[i]
		}
		if total > 0 {
			rows[i].UserShare = counts[i] / total
		}
	}
	return rows
}

func refHopCounts(obs []Observation, edge bool) []float64 {
	var out []float64
	for _, o := range obs {
		if (edge && o.Target == NearestEdge) || (!edge && (o.Target == NearestCloud || o.Target == CloudMember)) {
			out = append(out, float64(o.HopCount))
		}
	}
	return out
}

// TestObservationStoreMatchesSerialWalk pins the parallel walk against the
// serial reference row for row, at one worker and at several, and with a
// population that does not divide evenly among the workers.
func TestObservationStoreMatchesSerialWalk(t *testing.T) {
	spec := scenario.CrowdSpec{Users: 73, Repeats: 3}
	mk := func() (*Campaign, *rng.Source) {
		r := rng.New(31)
		return NewCampaign(r.Fork("campaign"), spec), r.Fork("latency")
	}
	c, r := mk()
	want := serialWalk(c, r)
	if len(want) != spec.Users*(3+len(c.Cloud.Sites)) {
		t.Fatalf("reference walk has %d rows, want %d per user", len(want), 3+len(c.Cloud.Sites))
	}
	for _, workers := range []int{1, 4} {
		c, r := mk()
		c.Workers = workers
		st := NewObservationStore(c, r)
		if st.Len() != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, st.Len(), len(want))
		}
		for i := range want {
			if got := st.Row(i); got != want[i] {
				t.Fatalf("workers=%d row %d:\n got %+v\nwant %+v", workers, i, got, want[i])
			}
		}
	}
}

// TestObservationStoreMatchesSlice pins the columnar plane against the
// slice oracle: the access×target group indexes partition the rows exactly,
// and every aggregation the latency artifacts consume equals its slice
// walker's answer bit for bit.
func TestObservationStoreMatchesSlice(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r := rng.New(seed)
		c := NewCampaign(r, scenario.CrowdSpec{})
		st := NewObservationStore(c, r.Fork("latency"))
		obs := make([]Observation, st.Len())
		for i := range obs {
			obs[i] = st.Row(i)
		}

		// Group indexes partition the rows: every row appears in exactly the
		// group of its (access, target), in ascending row order.
		seen := 0
		for a := 0; a < numAccessCols; a++ {
			for k := 0; k < numTargetCols; k++ {
				idx := st.groups[a][k]
				for j, ri := range idx {
					o := obs[ri]
					if int(o.Access) != a || int(o.Target) != k {
						t.Fatalf("seed %d: group[%d][%d] row %d has access %v target %v", seed, a, k, ri, o.Access, o.Target)
					}
					if j > 0 && idx[j-1] >= ri {
						t.Fatalf("seed %d: group[%d][%d] not in row order", seed, a, k)
					}
				}
				seen += len(idx)
			}
		}
		if seen != len(obs) {
			t.Fatalf("seed %d: groups cover %d rows, want %d", seed, seen, len(obs))
		}

		accesses := []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG}
		targets := []TargetKind{NearestEdge, ThirdNearestEdge, NearestCloud, CloudMember}
		for _, a := range accesses {
			for _, k := range targets {
				if got, want := st.MedianRTTAcrossUsers(a, k), refMedianRTTAcrossUsers(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: MedianRTTAcrossUsers = %v, oracle %v", seed, a, k, got, want)
				}
				if got, want := st.MedianCVAcrossUsers(a, k), refMedianCVAcrossUsers(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: MedianCVAcrossUsers = %v, oracle %v", seed, a, k, got, want)
				}
				if got, want := st.HopBreakdown(a, k), refHopBreakdown(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: HopBreakdown = %+v, oracle %+v", seed, a, k, got, want)
				}
			}
		}
		for _, edge := range []bool{true, false} {
			if got, want := st.HopCounts(edge), refHopCounts(obs, edge); !slices.Equal(got, want) {
				t.Fatalf("seed %d edge=%v: HopCounts diverge from the oracle (%d vs %d samples)", seed, edge, len(got), len(want))
			}
		}
		gotRows, wantRows := st.CoLocationTable(), refCoLocationTable(obs)
		if len(gotRows) != len(wantRows) {
			t.Fatalf("seed %d: %d co-location rows, want %d", seed, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Fatalf("seed %d row %d: CoLocationTable = %+v, oracle %+v", seed, i, gotRows[i], wantRows[i])
			}
		}

		// AppendMedianRTTs: the telemetry batch column.
		var all []float64
		for _, o := range obs {
			all = append(all, o.MedianRTTMs)
		}
		if got := st.AppendMedianRTTs(nil, 0, true); !slices.Equal(got, all) {
			t.Fatalf("seed %d: all-access column diverges", seed)
		}
		for _, a := range accesses {
			var want []float64
			for _, o := range obs {
				if o.Access == a {
					want = append(want, o.MedianRTTMs)
				}
			}
			if got := st.AppendMedianRTTs(nil, a, false); !slices.Equal(got, want) {
				t.Fatalf("seed %d %v: column diverges (%d vs %d rows)", seed, a, len(got), len(want))
			}
		}
	}
}
