// Package qoe holds the shared scaffolding of the paper's application-level
// QoE experiments (§3.3): the four backend VMs (one nearest edge, three
// clouds at 670/1300/2000 km) and their access-network RTTs (Table 5). The
// cloud-gaming and live-streaming pipelines live in the gaming and streaming
// subpackages.
package qoe

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// Backend is one of the QoE experiment's server VMs. Each VM has 8 vCPUs,
// 16 GB memory and ample bandwidth (§2.1.1), so only its placement is
// modelled.
type Backend struct {
	Name       string
	Class      netmodel.SiteClass
	DistanceKm float64
}

// Backends returns the experiment's four server VMs: the nearest edge site
// and three cloud regions at increasing distance, as deployed in §2.1.1.
func Backends() []Backend {
	return []Backend{
		{Name: "Edge", Class: netmodel.EdgeSite, DistanceKm: 25},
		{Name: "Cloud-1", Class: netmodel.CloudSite, DistanceKm: 670},
		{Name: "Cloud-2", Class: netmodel.CloudSite, DistanceKm: 1300},
		{Name: "Cloud-3", Class: netmodel.CloudSite, DistanceKm: 2000},
	}
}

// RTTRow is one cell of Table 5: the mean RTT from the experiment location
// to a backend over one access network.
type RTTRow struct {
	Access  netmodel.Access
	Backend string
	MeanMs  float64
}

// RTTTable measures the mean RTT to each backend over each mobile access
// type, averaged over several location setups (the paper repeated each test
// at four locations in the same city) — Table 5.
func RTTTable(r *rng.Source, locations int) []RTTRow {
	if locations <= 0 {
		locations = 4
	}
	const perLocation = 10
	var rows []RTTRow
	for _, a := range []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG} {
		for _, b := range Backends() {
			// Each location's repeats are one pure run of RTT draws on a
			// stable path — the batched kernel's case (draw-for-draw equal
			// to the scalar loop this replaced).
			samples := make([]float64, locations*perLocation)
			for l := 0; l < locations; l++ {
				p := netmodel.BuildPath(r, a, b.Class, b.DistanceKm)
				p.SampleRTTs(r, samples[l*perLocation:(l+1)*perLocation])
			}
			rows = append(rows, RTTRow{Access: a, Backend: b.Name, MeanMs: stats.Mean(samples)})
		}
	}
	return rows
}

// MeanRTT looks the (access, backend) cell up in a Table 5 result; ok is
// false when absent.
func MeanRTT(rows []RTTRow, a netmodel.Access, backend string) (float64, bool) {
	for _, row := range rows {
		if row.Access == a && row.Backend == backend {
			return row.MeanMs, true
		}
	}
	return 0, false
}
