// Package placement implements the two-stage resource allocation the paper
// describes in §2 ("NEP operation"): customers subscribe VMs at province
// granularity, and the platform picks concrete servers — NEP's production
// strategy favours servers with low sales ratio and low observed CPU usage.
// Alternative strategies (best-fit, random) support the ablations motivated
// by §4.3's load-balance findings, and the request schedulers model the
// customer-side end-user traffic scheduling (nearest site via DNS/HTTP-302
// vs load-aware GSLB).
package placement

import (
	"errors"
	"fmt"

	"edgescope/internal/rng"
	"edgescope/internal/vm"
)

// Request asks for count VMs of a given size in a province ("" = anywhere).
type Request struct {
	VCPUs    int
	MemGB    int
	Province string
	Count    int
}

// Assignment places one VM on a concrete server.
type Assignment struct {
	Site   int
	Server int
}

// ClusterState tracks subscription and usage per server while placing.
type ClusterState struct {
	Sites []*vm.Site
	// SoldCPU / SoldMem are running totals of subscribed resources per
	// (site, server).
	SoldCPU [][]float64
	SoldMem [][]float64
	// UsageEst is the observed mean CPU usage estimate per server (percent)
	// that NEP's strategy consults; starts at zero.
	UsageEst [][]float64
	// provinceSites caches site indices per province.
	provinceSites map[string][]int
}

// NewClusterState initialises bookkeeping for the given physical inventory.
func NewClusterState(sites []*vm.Site) *ClusterState {
	st := &ClusterState{Sites: sites, provinceSites: map[string][]int{}}
	for i, s := range sites {
		n := len(s.Servers)
		st.SoldCPU = append(st.SoldCPU, make([]float64, n))
		st.SoldMem = append(st.SoldMem, make([]float64, n))
		st.UsageEst = append(st.UsageEst, make([]float64, n))
		st.provinceSites[s.Province] = append(st.provinceSites[s.Province], i)
	}
	return st
}

// Fits reports whether a server can still host the requested size. NEP
// oversubscribes CPU mildly (1.25×) but never memory, mirroring common IaaS
// practice.
func (st *ClusterState) Fits(site, server int, req Request) bool {
	srv := st.Sites[site].Servers[server]
	const cpuOversub = 1.25
	if st.SoldCPU[site][server]+float64(req.VCPUs) > float64(srv.CPUCores)*cpuOversub {
		return false
	}
	if st.SoldMem[site][server]+float64(req.MemGB) > float64(srv.MemGB) {
		return false
	}
	return true
}

// Commit records an accepted assignment.
func (st *ClusterState) Commit(a Assignment, req Request) {
	st.SoldCPU[a.Site][a.Server] += float64(req.VCPUs)
	st.SoldMem[a.Site][a.Server] += float64(req.MemGB)
}

// ObserveUsage updates a server's mean-CPU estimate (exponentially
// smoothed), feeding NEP's usage-aware scoring.
func (st *ClusterState) ObserveUsage(site, server int, meanCPUPct float64) {
	const alpha = 0.3
	st.UsageEst[site][server] = (1-alpha)*st.UsageEst[site][server] + alpha*meanCPUPct
}

// salesRatio returns the CPU sales ratio of a server.
func (st *ClusterState) salesRatio(site, server int) float64 {
	srv := st.Sites[site].Servers[server]
	return st.SoldCPU[site][server] / float64(srv.CPUCores)
}

// candidateSites returns the site indices eligible for a request.
func (st *ClusterState) candidateSites(req Request) []int {
	if req.Province == "" {
		out := make([]int, len(st.Sites))
		for i := range out {
			out[i] = i
		}
		return out
	}
	return st.provinceSites[req.Province]
}

// ErrNoCapacity reports that a request cannot be satisfied.
var ErrNoCapacity = errors.New("placement: no server with sufficient capacity")

// Strategy chooses servers for requests.
type Strategy interface {
	// Name identifies the strategy in reports and benches.
	Name() string
	// Place returns one assignment per requested VM, committing each to the
	// state as it goes, or an error when capacity runs out.
	Place(r *rng.Source, st *ClusterState, req Request) ([]Assignment, error)
}

// NEPDefault is the platform's production strategy: among feasible servers
// in the subscribed province, prefer low sales ratio and low observed usage.
type NEPDefault struct{}

// Name implements Strategy.
func (NEPDefault) Name() string { return "nep-default" }

// Place implements Strategy.
func (NEPDefault) Place(r *rng.Source, st *ClusterState, req Request) ([]Assignment, error) {
	return placeN(st, req, func(site, server int) float64 {
		return st.salesRatio(site, server) + st.UsageEst[site][server]/100
	}, false)
}

// BestFit packs VMs onto the fullest feasible server (bin-packing), the
// fragmentation-minimising baseline from the cloud literature.
type BestFit struct{}

// Name implements Strategy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Strategy.
func (BestFit) Place(r *rng.Source, st *ClusterState, req Request) ([]Assignment, error) {
	return placeN(st, req, func(site, server int) float64 {
		return st.salesRatio(site, server)
	}, true)
}

// Random places each VM on a uniformly random feasible server.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Place implements Strategy.
func (Random) Place(r *rng.Source, st *ClusterState, req Request) ([]Assignment, error) {
	var out []Assignment
	one := Request{VCPUs: req.VCPUs, MemGB: req.MemGB, Province: req.Province, Count: 1}
	var cands []Assignment // reused across the request's VMs
	for k := 0; k < req.Count; k++ {
		cands = cands[:0]
		for _, si := range st.candidateSites(one) {
			for sj := range st.Sites[si].Servers {
				if st.Fits(si, sj, one) {
					cands = append(cands, Assignment{si, sj})
				}
			}
		}
		if len(cands) == 0 {
			return out, fmt.Errorf("%w (placed %d of %d)", ErrNoCapacity, k, req.Count)
		}
		a := cands[r.IntN(len(cands))]
		st.Commit(a, one)
		out = append(out, a)
	}
	return out, nil
}

// placeN picks, once per VM, the best feasible server under the strategy's
// score (descending reverses the order) and commits it. The scored-ranking
// strategies only ever consume the top of the ranking, so placeN runs a
// single stable min scan — first candidate wins ties, exactly the element a
// stable sort would have put at index 0 — instead of sorting the whole
// candidate set per VM, and scores each candidate once instead of twice per
// comparison. Candidates are enumerated in (site, server) order, so the
// tie-break matches the former sort-based implementation choice for choice.
func placeN(st *ClusterState, req Request, score func(site, server int) float64, descending bool) ([]Assignment, error) {
	var out []Assignment
	one := Request{VCPUs: req.VCPUs, MemGB: req.MemGB, Province: req.Province, Count: 1}
	for k := 0; k < req.Count; k++ {
		best := Assignment{Site: -1}
		var bestScore float64
		for _, si := range st.candidateSites(one) {
			for sj := range st.Sites[si].Servers {
				if !st.Fits(si, sj, one) {
					continue
				}
				s := score(si, sj)
				if best.Site < 0 || (descending && s > bestScore) || (!descending && s < bestScore) {
					best = Assignment{Site: si, Server: sj}
					bestScore = s
				}
			}
		}
		if best.Site < 0 {
			return out, fmt.Errorf("%w (placed %d of %d)", ErrNoCapacity, k, req.Count)
		}
		st.Commit(best, one)
		out = append(out, best)
	}
	return out, nil
}
