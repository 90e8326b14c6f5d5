package crowd

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/stats"
)

// HopBreakdownRow is one cell group of Table 3: the mean share of
// end-to-end latency contributed by the first three hops and the rest.
type HopBreakdownRow struct {
	Access                 netmodel.Access
	Target                 TargetKind
	Share1, Share2, Share3 float64
	ShareRest              float64
}

// CoLocClass partitions users by whether their city hosts edge/cloud sites
// (Table 4).
type CoLocClass int

// Co-location classes in the paper's order.
const (
	BothCoLocated CoLocClass = iota // user city has both edge and cloud sites
	EdgeCoLocated                   // user city has an edge site only
	NoneCoLocated                   // user city has neither
)

// String names the class as in Table 4.
func (c CoLocClass) String() string {
	switch c {
	case BothCoLocated:
		return "U/E & U/C co-located"
	case EdgeCoLocated:
		return "U/E co-located"
	default:
		return "None co-located"
	}
}

// Table4Row aggregates one co-location class.
type Table4Row struct {
	Class       CoLocClass
	UserShare   float64 // fraction of users in the class
	RTTEdgeMs   float64 // average RTT to nearest edge
	RTTCloudMs  float64 // average RTT to nearest cloud
	DistEdgeKm  float64 // average city-level distance to nearest edge
	DistCloudKm float64 // average city-level distance to nearest cloud
}

// CorrRow is one series of Figure 5: the distance↔throughput Pearson
// correlation for an (access, direction) pair.
type CorrRow struct {
	Access   netmodel.Access
	Dir      netmodel.Direction
	Corr     float64
	MeanMbps float64
	N        int
}

// ThroughputCorrelations computes Figure 5's per-series correlation
// coefficients and mean rates.
func ThroughputCorrelations(tobs []ThroughputObs) []CorrRow {
	type key struct {
		a netmodel.Access
		d netmodel.Direction
	}
	groups := map[key][]ThroughputObs{}
	for _, o := range tobs {
		k := key{o.Access, o.Dir}
		groups[k] = append(groups[k], o)
	}
	var rows []CorrRow
	for _, a := range netmodel.AllAccess() {
		for _, d := range []netmodel.Direction{netmodel.Downlink, netmodel.Uplink} {
			g := groups[key{a, d}]
			if len(g) < 3 {
				continue
			}
			var ds, ts []float64
			for _, o := range g {
				ds = append(ds, o.DistanceKm)
				ts = append(ts, o.Mbps)
			}
			rows = append(rows, CorrRow{
				Access:   a,
				Dir:      d,
				Corr:     stats.Pearson(ds, ts),
				MeanMbps: stats.Mean(ts),
				N:        len(g),
			})
		}
	}
	return rows
}
