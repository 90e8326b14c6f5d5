package crowd

import (
	"math"
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
)

// TestObservationStoreMatchesSlice pins the columnar plane against the
// []Observation view field for field: every column equals its struct field,
// the access×target group indexes partition the rows exactly, and every
// aggregation the latency artifacts consume agrees with its slice-walking
// predecessor in aggregate.go.
func TestObservationStoreMatchesSlice(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		_, obs := testCampaign(t, seed)
		st := BuildObservationStore(obs)

		if len(st.userID) != len(obs) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(st.userID), len(obs))
		}
		// Columns are the struct fields.
		for i, o := range obs {
			if int(st.userID[i]) != o.UserID || netmodel.Access(st.access[i]) != o.Access ||
				TargetKind(st.target[i]) != o.Target || st.distKm[i] != o.DistanceKm ||
				st.cityKm[i] != o.CityDistKm || st.medianRTT[i] != o.MedianRTTMs ||
				st.cv[i] != o.CV || int(st.hops[i]) != o.HopCount ||
				st.share1[i] != o.Share1 || st.share2[i] != o.Share2 ||
				st.share3[i] != o.Share3 || st.shareRest[i] != o.ShareRest {
				t.Fatalf("seed %d row %d: columns diverge from %+v", seed, i, o)
			}
		}
		// The view is the original slice.
		if v := st.View(); len(v) != len(obs) || (len(v) > 0 && &v[0] != &obs[0]) {
			t.Fatalf("seed %d: View is not the original slice", seed)
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
						t.Fatalf("seed %d: group[%d][%d] not in emission order", seed, a, k)
					}
				}
				seen += len(idx)
			}
		}
		if seen != len(obs) {
			t.Fatalf("seed %d: groups cover %d rows, want %d", seed, seen, len(obs))
		}

		// Aggregations agree with the slice helpers. The per-group functions
		// accumulate in the identical order, so equality is exact.
		accesses := []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG}
		targets := []TargetKind{NearestEdge, ThirdNearestEdge, NearestCloud, CloudMember}
		for _, a := range accesses {
			for _, k := range targets {
				if got, want := st.MedianRTTAcrossUsers(a, k), MedianRTTAcrossUsers(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: MedianRTTAcrossUsers = %v, slice = %v", seed, a, k, got, want)
				}
				if got, want := st.MedianCVAcrossUsers(a, k), MedianCVAcrossUsers(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: MedianCVAcrossUsers = %v, slice = %v", seed, a, k, got, want)
				}
				if got, want := st.HopBreakdown(a, k), HopBreakdown(obs, a, k); got != want {
					t.Fatalf("seed %d %v/%v: HopBreakdown = %+v, slice = %+v", seed, a, k, got, want)
				}
			}
		}
		for _, edge := range []bool{true, false} {
			got, want := st.HopCounts(edge), HopCounts(obs, edge)
			if len(got) != len(want) {
				t.Fatalf("seed %d edge=%v: %d hop counts, want %d", seed, edge, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d edge=%v idx %d: %v, want %v", seed, edge, i, got[i], want[i])
				}
			}
		}
		// CoLocationTable: the slice helper iterates a map, so its class sums
		// accumulate in nondeterministic order — equality holds to float
		// round-off, not bit for bit (the store's ascending-user order is the
		// deterministic one).
		gotRows, wantRows := st.CoLocationTable(), CoLocationTable(obs)
		if len(gotRows) != len(wantRows) {
			t.Fatalf("seed %d: %d co-location rows, want %d", seed, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			g, w := gotRows[i], wantRows[i]
			if g.Class != w.Class {
				t.Fatalf("seed %d row %d: class %v, want %v", seed, i, g.Class, w.Class)
			}
			for _, pair := range [][2]float64{
				{g.UserShare, w.UserShare}, {g.RTTEdgeMs, w.RTTEdgeMs}, {g.RTTCloudMs, w.RTTCloudMs},
				{g.DistEdgeKm, w.DistEdgeKm}, {g.DistCloudKm, w.DistCloudKm},
			} {
				if diff := math.Abs(pair[0] - pair[1]); diff > 1e-9*(1+math.Abs(pair[1])) {
					t.Fatalf("seed %d row %d: co-location field %v, want %v", seed, i, pair[0], pair[1])
				}
			}
		}

		// AppendMedianRTTs: the telemetry batch column.
		all := st.AppendMedianRTTs(nil, 0, true)
		if len(all) != len(obs) {
			t.Fatalf("seed %d: all-access column has %d rows, want %d", seed, len(all), len(obs))
		}
		for _, a := range accesses {
			col := st.AppendMedianRTTs(nil, a, false)
			var want []float64
			for _, o := range obs {
				if o.Access == a {
					want = append(want, o.MedianRTTMs)
				}
			}
			if len(col) != len(want) {
				t.Fatalf("seed %d %v: column has %d rows, want %d", seed, a, len(col), len(want))
			}
			for i := range want {
				if col[i] != want[i] {
					t.Fatalf("seed %d %v idx %d: %v, want %v", seed, a, i, col[i], want[i])
				}
			}
		}
	}
}

// TestNewObservationStoreMatchesRunLatency pins that building the store
// draws exactly what RunLatency draws: same seed, same observations.
func TestNewObservationStoreMatchesRunLatency(t *testing.T) {
	const seed = 11
	r1 := rng.New(seed)
	c1 := NewCampaign(r1, scenario.CrowdSpec{})
	st := NewObservationStore(c1, r1.Fork("latency"))

	r2 := rng.New(seed)
	c2 := NewCampaign(r2, scenario.CrowdSpec{})
	want := c2.RunLatency(r2.Fork("latency"))

	view := st.View()
	if len(view) != len(want) {
		t.Fatalf("store has %d observations, RunLatency %d", len(view), len(want))
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("observation %d: %+v, want %+v", i, view[i], want[i])
		}
	}
}
