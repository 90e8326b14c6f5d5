package crowd

import (
	"fmt"
	"strconv"

	"edgescope/internal/netmodel"
	"edgescope/internal/par"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// ObservationStore is the latency campaign's one observation
// representation: every field of every Observation laid out as
// struct-of-arrays columns in walk order, plus prebuilt row indexes grouped
// by access×target. The campaign walk writes straight into the columns, and
// every consumer reads them: the latency-family artifacts (Figure 2a/2b,
// Table 3, Table 4, Figure 3) scan dense columns through the group index,
// and the telemetry replay reassembles whole records with Row.
//
// Rows are user-major with ascending user IDs (each user owns rowsPerUser
// consecutive rows), so each user's rows are one contiguous run both
// globally and within any group index, and per-user collapses are run
// detections instead of map building.
type ObservationStore struct {
	userID    []int32
	access    []uint8
	target    []uint8
	siteMetro []string
	cityKm    []float64
	medianRTT []float64
	cv        []float64
	hops      []int32
	share1    []float64
	share2    []float64
	share3    []float64
	shareRest []float64

	// groups[a][k] lists the row indexes with Access a and Target k, in
	// row order.
	groups [numAccessCols][numTargetCols][]int32
}

const (
	numAccessCols = 4 // WiFi, LTE, 5G, wired
	numTargetCols = 4 // nearest/3rd-nearest edge, nearest cloud, cloud member
)

// NewObservationStore runs THE observation walk of the ping campaign. For
// every user it measures the nearest edge site, the 3rd-nearest edge site,
// the nearest cloud region and every cloud region (for the all-clouds
// average), in that order, so every user contributes exactly
// 3 + len(c.Cloud.Sites) rows.
//
// Users probe in parallel (c.Workers wide), each writing its rows straight
// into the preallocated columns at its own offset. Each user draws from an
// independent sub-stream forked deterministically from r before the
// fan-out, so the store is byte-identical for a given seed regardless of
// worker count or GOMAXPROCS.
//
// Within one user, every target is measured with an *identical* sub-stream
// (common random numbers): the user's access link and local conditions are
// shared across their probes, so coupling the draws both mirrors the
// measurement reality and keeps per-user orderings (nearest edge vs cloud,
// nearest vs 3rd-nearest) stable at small sample counts.
func NewObservationStore(c *Campaign, r *rng.Source) *ObservationStore {
	seeds := make([]uint64, len(c.Users))
	for i, u := range c.Users {
		seeds[i] = r.Fork(fmt.Sprintf("user-%d", u.ID)).Uint64()
	}
	rowsPerUser := 3 + len(c.Cloud.Sites)
	n := len(c.Users) * rowsPerUser
	st := &ObservationStore{
		userID:    make([]int32, n),
		access:    make([]uint8, n),
		target:    make([]uint8, n),
		siteMetro: make([]string, n),
		cityKm:    make([]float64, n),
		medianRTT: make([]float64, n),
		cv:        make([]float64, n),
		hops:      make([]int32, n),
		share1:    make([]float64, n),
		share2:    make([]float64, n),
		share3:    make([]float64, n),
		shareRest: make([]float64, n),
	}

	span := c.Tracer.Begin("observe", 0)
	c.Tracer.Annotate(span, "users", strconv.Itoa(len(c.Users)))
	// Probe scratch is per worker: it warms to the per-target sizes on a
	// worker's first user and allocates nothing afterwards.
	scratch := make([]obsScratch, par.Workers(c.Workers))
	par.ForEachWorker(len(c.Users), c.Workers, func(w, i int) {
		c.observeUser(seeds[i], c.Users[i], st, i*rowsPerUser, &scratch[w])
	})
	c.Tracer.End(span)

	// Count group sizes first so every index slice is allocated exactly
	// once at its final length.
	var sizes [numAccessCols][numTargetCols]int32
	for i := range st.access {
		sizes[st.access[i]][st.target[i]]++
	}
	for a := range st.groups {
		for k := range st.groups[a] {
			if sizes[a][k] > 0 {
				st.groups[a][k] = make([]int32, 0, sizes[a][k])
			}
		}
	}
	for i := range st.access {
		a, k := st.access[i], st.target[i]
		st.groups[a][k] = append(st.groups[a][k], int32(i))
	}
	return st
}

// set writes one observation into row i of every column.
func (st *ObservationStore) set(i int, o Observation) {
	st.userID[i] = int32(o.UserID)
	st.access[i] = uint8(o.Access)
	st.target[i] = uint8(o.Target)
	st.siteMetro[i] = o.SiteMetro
	st.cityKm[i] = o.CityDistKm
	st.medianRTT[i] = o.MedianRTTMs
	st.cv[i] = o.CV
	st.hops[i] = int32(o.HopCount)
	st.share1[i] = o.Share1
	st.share2[i] = o.Share2
	st.share3[i] = o.Share3
	st.shareRest[i] = o.ShareRest
}

// Len returns the number of observations (rows) in the store.
func (st *ObservationStore) Len() int { return len(st.userID) }

// Row reassembles observation i, in walk order, from the columns.
func (st *ObservationStore) Row(i int) Observation {
	return Observation{
		UserID:      int(st.userID[i]),
		Access:      netmodel.Access(st.access[i]),
		Target:      TargetKind(st.target[i]),
		SiteMetro:   st.siteMetro[i],
		CityDistKm:  st.cityKm[i],
		MedianRTTMs: st.medianRTT[i],
		CV:          st.cv[i],
		HopCount:    int(st.hops[i]),
		Share1:      st.share1[i],
		Share2:      st.share2[i],
		Share3:      st.share3[i],
		ShareRest:   st.shareRest[i],
	}
}

// perUserMeans collapses one column of an access×target group to one mean
// per user, in ascending user order. For CloudMember targets a user's rows
// over all cloud regions average to one value (the paper's "all clouds"
// baseline); other targets have one row per user.
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
	var row HopBreakdownRow
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
// distance to the nearest edge/cloud per class (Table 4). Users accumulate
// in ascending-ID order, so the class sums are deterministic run to run.
func (st *ObservationStore) CoLocationTable() []Table4Row {
	rows := make([]Table4Row, 3)
	counts := make([]float64, 3)
	var total float64
	n := st.Len()
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

// HopCounts returns the hop-count samples for Figure 3 in row order: edge
// collects nearest-edge observations, cloud collects nearest-cloud and
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
// row order: every access network when all is true, otherwise only rows of
// the given access. It is the telemetry batch cross-check's slice builder.
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
