package placement

import (
	"sort"

	"edgescope/internal/stats"
	"edgescope/internal/vm"
)

// Cross-site VM migration is the rebalancing lever §4.2/§4.3 and §5
// repeatedly point to ("we envision that dynamic VM migration can better
// balance the across-server resource usage"). The rebalancer below is
// deliberately simple — greedy hottest-to-coldest moves — because the goal
// is to quantify the opportunity the paper identifies, and its cost (bytes
// moved, estimated migration time), not to propose a novel algorithm.

// RebalanceResult summarises a rebalancing plan.
type RebalanceResult struct {
	// Moves is the number of planned VM migrations.
	Moves int
	// GapBefore/GapAfter are the P95/P5 ratios of per-server load (vCPU ×
	// mean CPU, normalised by cores) before and after applying the plan.
	GapBefore float64
	GapAfter  float64
	// MovedGB is the total memory footprint migrated; EstSeconds estimates
	// total migration time at linkGbps plus a fixed per-move stop-and-copy
	// overhead (live migration takes tens of seconds per the paper's
	// discussion of its QoS impact).
	MovedGB    float64
	EstSeconds float64
}

// serverKey identifies a server within a dataset.
type serverKey struct{ site, server int }

// RebalanceCPU plans up to maxMoves migrations on a dataset's placement,
// moving load from the hottest servers to the coldest feasible ones. The
// dataset itself is not mutated; the result counts what would move.
func RebalanceCPU(d *vm.Dataset, maxMoves int, linkGbps float64) RebalanceResult {
	if linkGbps <= 0 {
		linkGbps = 10
	}
	// Load model: a VM contributes vCPUs × meanCPU% to its server; server
	// load is that sum over physical cores.
	type srvState struct {
		key   serverKey
		cores float64
		load  float64
		vms   []int
	}
	states := map[serverKey]*srvState{}
	for si, s := range d.Sites {
		for ji, srv := range s.Servers {
			k := serverKey{si, ji}
			states[k] = &srvState{key: k, cores: float64(srv.CPUCores)}
		}
	}
	vmLoad := make([]float64, len(d.VMs))
	for i, v := range d.VMs {
		k := serverKey{v.Site, v.Server}
		st := states[k]
		vmLoad[i] = float64(v.VCPUs) * v.MeanCPU() / 100
		st.load += vmLoad[i]
		st.vms = append(st.vms, i)
	}
	ordered := make([]*srvState, 0, len(states))
	for _, st := range states {
		ordered = append(ordered, st)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].key.site != ordered[b].key.site {
			return ordered[a].key.site < ordered[b].key.site
		}
		return ordered[a].key.server < ordered[b].key.server
	})

	util := func(st *srvState) float64 { return st.load / st.cores }
	gap := func() float64 {
		us := make([]float64, len(ordered))
		for i, st := range ordered {
			us[i] = util(st)
		}
		return stats.GapRatio(us, 1e-4)
	}

	res := RebalanceResult{GapBefore: gap()}
	for move := 0; move < maxMoves; move++ {
		// Hottest and coldest servers.
		var hot, cold *srvState
		for _, st := range ordered {
			if hot == nil || util(st) > util(hot) {
				hot = st
			}
			if cold == nil || util(st) < util(cold) {
				cold = st
			}
		}
		if hot == nil || cold == nil || hot == cold {
			break
		}
		if util(hot)-util(cold) < 0.02 {
			break // balanced enough
		}
		// Pick the hot server's VM whose move shrinks the spread most:
		// the largest load that still keeps cold below hot's new level.
		best := -1
		for _, vi := range hot.vms {
			l := vmLoad[vi]
			if util(cold)+l/cold.cores < util(hot)-l/hot.cores+0.02 {
				if best < 0 || l > vmLoad[best] {
					best = vi
				}
			}
		}
		if best < 0 {
			break
		}
		res.Moves++
		res.MovedGB += float64(d.VMs[best].MemGB)
		hot.load -= vmLoad[best]
		cold.load += vmLoad[best]
		for i, vi := range hot.vms {
			if vi == best {
				hot.vms = append(hot.vms[:i], hot.vms[i+1:]...)
				break
			}
		}
		cold.vms = append(cold.vms, best)
	}
	res.GapAfter = gap()
	const perMoveOverheadSec = 20 // stop-and-copy + warm-up, per §5's "tens of seconds"
	res.EstSeconds = res.MovedGB*8/linkGbps + float64(res.Moves)*perMoveOverheadSec
	return res
}
