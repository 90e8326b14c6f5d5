package crowd

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// ObservationStore is the columnar observation plane of the latency
// campaign: the fields the latency-family artifacts aggregate over
// (median RTT, CV, hop count, shares, distances, access, target, user) laid
// out as struct-of-arrays columns in emission order, plus prebuilt row
// indexes grouped by access×target. It is built once as the latency
// substrate; every builder that used to re-walk and re-bucket the
// array-of-structs []Observation (Figure 2a/2b, Table 3, Table 4, Figure 3,
// the telemetry batch cross-check) instead scans dense columns through a
// precomputed group index. The original []Observation slice is retained as a
// thin view (View) for consumers that need whole records — the streaming
// sink and the telemetry replay — so crowd.Observe stays the one walk.
//
// Aggregations exploit the walk's emission order: observations arrive
// user-major with ascending user IDs, so each user's rows are one
// contiguous run both globally and within any group index, and per-user
// collapses are run detections instead of map building. The aggregation
// methods mirror the []Observation helpers in aggregate.go value for value
// (pinned by TestObservationStoreMatchesSlice).
type ObservationStore struct {
	view []Observation

	userID    []int32
	access    []uint8
	target    []uint8
	distKm    []float64
	cityKm    []float64
	medianRTT []float64
	cv        []float64
	hops      []int32
	share1    []float64
	share2    []float64
	share3    []float64
	shareRest []float64

	// groups[a][k] lists the row indexes with Access a and Target k, in
	// emission order.
	groups [numAccessCols][numTargetCols][]int32
}

const (
	numAccessCols = 4 // WiFi, LTE, 5G, wired
	numTargetCols = 4 // nearest/3rd-nearest edge, nearest cloud, cloud member
)

// NewObservationStore runs the campaign's one observation walk and builds
// the columnar substrate from it. The RNG draws are exactly RunLatency's.
func NewObservationStore(c *Campaign, r *rng.Source) *ObservationStore {
	return BuildObservationStore(c.RunLatency(r))
}

// BuildObservationStore columnarises an already-materialised observation
// slice. The slice is retained as the store's view; it must not be mutated
// afterwards.
func BuildObservationStore(obs []Observation) *ObservationStore {
	n := len(obs)
	st := &ObservationStore{
		view:      obs,
		userID:    make([]int32, n),
		access:    make([]uint8, n),
		target:    make([]uint8, n),
		distKm:    make([]float64, n),
		cityKm:    make([]float64, n),
		medianRTT: make([]float64, n),
		cv:        make([]float64, n),
		hops:      make([]int32, n),
		share1:    make([]float64, n),
		share2:    make([]float64, n),
		share3:    make([]float64, n),
		shareRest: make([]float64, n),
	}
	// Count group sizes first so every index slice is allocated exactly
	// once at its final length.
	var sizes [numAccessCols][numTargetCols]int32
	for i := range obs {
		sizes[int(obs[i].Access)][int(obs[i].Target)]++
	}
	for a := range st.groups {
		for k := range st.groups[a] {
			if sizes[a][k] > 0 {
				st.groups[a][k] = make([]int32, 0, sizes[a][k])
			}
		}
	}
	for i := range obs {
		o := &obs[i]
		st.userID[i] = int32(o.UserID)
		st.access[i] = uint8(o.Access)
		st.target[i] = uint8(o.Target)
		st.distKm[i] = o.DistanceKm
		st.cityKm[i] = o.CityDistKm
		st.medianRTT[i] = o.MedianRTTMs
		st.cv[i] = o.CV
		st.hops[i] = int32(o.HopCount)
		st.share1[i] = o.Share1
		st.share2[i] = o.Share2
		st.share3[i] = o.Share3
		st.shareRest[i] = o.ShareRest
		st.groups[int(o.Access)][int(o.Target)] = append(st.groups[int(o.Access)][int(o.Target)], int32(i))
	}
	return st
}

// View returns the array-of-structs view of the store, in emission order.
// It is the same backing slice the store was built from; treat it as
// read-only.
func (st *ObservationStore) View() []Observation { return st.view }

// perUserMeans collapses one column of an access×target group to one mean
// per user, in ascending user order — the columnar equivalent of perUser in
// aggregate.go (same sums, same division, bit for bit).
func (st *ObservationStore) perUserMeans(a netmodel.Access, k TargetKind, col []float64) []float64 {
	idx := st.groups[int(a)][int(k)]
	if len(idx) == 0 {
		return nil
	}
	out := make([]float64, 0, len(idx))
	for i := 0; i < len(idx); {
		uid := st.userID[idx[i]]
		var sum float64
		n := 0
		for ; i < len(idx) && st.userID[idx[i]] == uid; i++ {
			sum += col[idx[i]]
			n++
		}
		out = append(out, sum/float64(n))
	}
	return out
}

// MedianRTTAcrossUsers returns the median, across users, of each user's
// median RTT to the given target — the bars of Figure 2a.
func (st *ObservationStore) MedianRTTAcrossUsers(a netmodel.Access, k TargetKind) float64 {
	return stats.SummarizeInPlace(st.perUserMeans(a, k, st.medianRTT)).Median()
}

// MedianCVAcrossUsers returns the median, across users, of the per-user RTT
// coefficient of variation — the bars of Figure 2b.
func (st *ObservationStore) MedianCVAcrossUsers(a netmodel.Access, k TargetKind) float64 {
	return stats.SummarizeInPlace(st.perUserMeans(a, k, st.cv)).Median()
}

// HopBreakdown averages the per-hop latency shares across one access×target
// group (Table 3).
func (st *ObservationStore) HopBreakdown(a netmodel.Access, k TargetKind) HopBreakdownRow {
	row := HopBreakdownRow{Access: a, Target: k}
	idx := st.groups[int(a)][int(k)]
	for _, i := range idx {
		row.Share1 += st.share1[i]
		row.Share2 += st.share2[i]
		row.Share3 += st.share3[i]
		row.ShareRest += st.shareRest[i]
	}
	if n := float64(len(idx)); n > 0 {
		row.Share1 /= n
		row.Share2 /= n
		row.Share3 /= n
		row.ShareRest /= n
	}
	return row
}

// CoLocationTable classifies every user and averages RTT and city-level
// distance to the nearest edge/cloud per class (Table 4). Unlike the
// map-based slice helper, users accumulate in ascending-ID order, so the
// class sums are deterministic run to run.
func (st *ObservationStore) CoLocationTable() []Table4Row {
	rows := make([]Table4Row, 3)
	counts := make([]float64, 3)
	var total float64
	n := len(st.view)
	for i := 0; i < n; {
		uid := st.userID[i]
		var rttE, rttC, distE, distC float64
		var haveE, haveC bool
		for ; i < n && st.userID[i] == uid; i++ {
			switch TargetKind(st.target[i]) {
			case NearestEdge:
				rttE, distE, haveE = st.medianRTT[i], st.cityKm[i], true
			case NearestCloud:
				rttC, distC, haveC = st.medianRTT[i], st.cityKm[i], true
			}
		}
		if !haveE || !haveC {
			continue
		}
		var class CoLocClass
		switch {
		case distE == 0 && distC == 0:
			class = BothCoLocated
		case distE == 0:
			class = EdgeCoLocated
		default:
			class = NoneCoLocated
		}
		c := int(class)
		rows[c].RTTEdgeMs += rttE
		rows[c].RTTCloudMs += rttC
		rows[c].DistEdgeKm += distE
		rows[c].DistCloudKm += distC
		counts[c]++
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

// HopCounts returns the hop-count samples for Figure 3 in emission order:
// edge collects nearest-edge observations, cloud collects nearest-cloud and
// cloud-member observations.
func (st *ObservationStore) HopCounts(edge bool) []float64 {
	var out []float64
	for i, t := range st.target {
		k := TargetKind(t)
		if edge {
			if k != NearestEdge {
				continue
			}
		} else if k != NearestCloud && k != CloudMember {
			continue
		}
		out = append(out, float64(st.hops[i]))
	}
	return out
}

// AppendMedianRTTs appends the median-RTT column (every target) to dst in
// emission order: every access network when all is true, otherwise only
// rows of the given access. It is the telemetry batch cross-check's slice
// builder.
func (st *ObservationStore) AppendMedianRTTs(dst []float64, a netmodel.Access, all bool) []float64 {
	if all {
		return append(dst, st.medianRTT...)
	}
	want := uint8(a)
	for i, acc := range st.access {
		if acc == want {
			dst = append(dst, st.medianRTT[i])
		}
	}
	return dst
}
