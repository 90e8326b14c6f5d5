package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"edgescope/internal/par"
	"edgescope/internal/report"
)

// Substrate identifiers for the dependency graph. Substrates are the shared
// expensive inputs (the crowd campaign and the two workload traces); every
// artifact declares which ones it reads so the scheduler can build them
// first — concurrently with each other — and only then release the
// artifacts that need them.
const (
	subCampaign   = "substrate/campaign"
	subLatency    = "substrate/latency-obs"
	subThroughput = "substrate/throughput-obs"
	subNEPTrace   = "substrate/nep-trace"
	subCloudTrace = "substrate/cloud-trace"
)

// substrateDeps orders substrate construction: the two observation sets
// need the campaign's topology and user population first.
var substrateDeps = map[string][]string{
	subCampaign:   nil,
	subLatency:    {subCampaign},
	subThroughput: {subCampaign},
	subNEPTrace:   nil,
	subCloudTrace: nil,
}

func (s *Suite) buildSubstrate(id string) {
	switch id {
	case subCampaign:
		s.Campaign()
	case subLatency:
		s.LatencyObs()
	case subThroughput:
		s.ThroughputObs()
	case subNEPTrace:
		s.NEPTrace()
	case subCloudTrace:
		s.CloudTrace()
	default:
		panic("core: unknown substrate " + id)
	}
}

// artifactSpec is one entry of the experiment registry: a paper (or
// extension) artifact, the substrates it reads, and its builder. All(),
// Extensions() and RunAll derive from this single list, so the serial and
// parallel paths can never drift apart.
type artifactSpec struct {
	id    string
	desc  string
	deps  []string
	ext   bool
	build func(*Suite) report.Artifact
}

func specs() []artifactSpec {
	return []artifactSpec{
		{id: "table1", desc: "deployment density", deps: []string{subCampaign},
			build: func(s *Suite) report.Artifact { return s.Table1() }},
		{id: "table2", desc: "workload-trace survey", deps: []string{subNEPTrace},
			build: func(s *Suite) report.Artifact { return s.Table2() }},
		{id: "fig2a", desc: "median RTT by access and target", deps: []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.Figure2a() }},
		{id: "fig2b", desc: "RTT jitter (CV)", deps: []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.Figure2b() }},
		{id: "table3", desc: "hop-level latency breakdown", deps: []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.Table3() }},
		{id: "table4", desc: "co-location RTT/distance", deps: []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.Table4() }},
		{id: "fig3", desc: "hop counts", deps: []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.Figure3() }},
		{id: "fig4", desc: "inter-site RTT", deps: []string{subCampaign},
			build: func(s *Suite) report.Artifact { return s.Figure4() }},
		{id: "fig5", desc: "throughput vs distance", deps: []string{subThroughput},
			build: func(s *Suite) report.Artifact { return s.Figure5() }},
		{id: "table5", desc: "QoE backend RTTs",
			build: func(s *Suite) report.Artifact { return s.Table5() }},
		{id: "fig6", desc: "cloud gaming response delay",
			build: func(s *Suite) report.Artifact { return s.Figure6() }},
		{id: "fig7", desc: "live streaming delay",
			build: func(s *Suite) report.Artifact { return s.Figure7() }},
		{id: "fig8", desc: "VM sizes", deps: []string{subNEPTrace, subCloudTrace},
			build: func(s *Suite) report.Artifact { return s.Figure8() }},
		{id: "fig9", desc: "VMs per app", deps: []string{subNEPTrace, subCloudTrace},
			build: func(s *Suite) report.Artifact { return s.Figure9() }},
		{id: "fig10", desc: "CPU utilisation", deps: []string{subNEPTrace, subCloudTrace},
			build: func(s *Suite) report.Artifact { return s.Figure10() }},
		{id: "fig11", desc: "cross-site/server imbalance", deps: []string{subNEPTrace},
			build: func(s *Suite) report.Artifact { return s.Figure11() }},
		{id: "fig12", desc: "per-app cross-VM gap", deps: []string{subNEPTrace, subCloudTrace},
			build: func(s *Suite) report.Artifact { return s.Figure12() }},
		{id: "fig13", desc: "weekly bandwidth volatility", deps: []string{subNEPTrace},
			build: func(s *Suite) report.Artifact { return s.Figure13() }},
		{id: "fig14", desc: "usage prediction RMSE", deps: []string{subNEPTrace, subCloudTrace},
			build: func(s *Suite) report.Artifact { return s.Figure14() }},
		{id: "table6", desc: "monetary cost ratios", deps: []string{subNEPTrace},
			build: func(s *Suite) report.Artifact { return s.Table6() }},
		{id: "table7", desc: "pricing worked examples",
			build: func(s *Suite) report.Artifact { return s.Table7() }},

		{id: "ext-density", desc: "denser deployment and MEC sinking", ext: true,
			deps:  []string{subCampaign},
			build: func(s *Suite) report.Artifact { return s.ExtDensity() }},
		{id: "ext-migration", desc: "migration-based rebalancing", ext: true,
			deps:  []string{subNEPTrace},
			build: func(s *Suite) report.Artifact { return s.ExtMigration() }},
		{id: "ext-scheduling", desc: "nearest-site vs load-aware GSLB", ext: true,
			build: func(s *Suite) report.Artifact { return s.ExtScheduling() }},
		{id: "ext-elastic", desc: "reserved VMs vs serverless", ext: true,
			build: func(s *Suite) report.Artifact { return s.ExtElastic() }},
		{id: "ext-telemetry", desc: "streaming telemetry vs batch summary", ext: true,
			deps:  []string{subLatency},
			build: func(s *Suite) report.Artifact { return s.ExtTelemetry() }},
	}
}

// ArtifactIDs lists every valid artifact ID in registry (paper) order,
// extension IDs last. Callers use it for -only validation messages and CLI
// help.
func ArtifactIDs() []string {
	var out []string
	for _, sp := range specs() {
		out = append(out, sp.id)
	}
	return out
}

// ArtifactResult is one scheduled unit's outcome: a paper artifact with its
// rendered table/figure, or a substrate build (Artifact == nil) timed on its
// own so callers can see where the wall time went. Worker is the pool slot
// that ran the node — attribution for traces and timing reports, never an
// input to the computation.
type ArtifactResult struct {
	ID       string
	Desc     string
	Artifact report.Artifact // nil for substrate builds
	Elapsed  time.Duration
	Worker   int
}

// RunAll builds every paper artifact over a worker pool of the given
// parallelism (<= 0 means one worker per CPU). Substrates are scheduled
// first — concurrently with each other where their own dependencies allow —
// and each artifact is released as soon as the substrates it declares are
// ready. The same count bounds the fan-out inside a node (per user in the
// crowd campaign, per VM in Figure 14), so parallelism 1 is a serial pass.
// The output is byte-identical for a given (seed, scale) regardless of
// parallelism: artifacts never share random-stream position, only immutable
// substrates.
//
// Results list the substrate builds first (Artifact == nil, timed), then
// every artifact in paper order irrespective of completion order.
func (s *Suite) RunAll(ctx context.Context, parallelism int) ([]ArtifactResult, error) {
	return s.RunArtifacts(ctx, parallelism, nil, false)
}

// RunArtifacts is RunAll restricted to a subset: only lists the artifact
// IDs to build (nil means all), and includeExt adds the extension
// experiments. Unknown IDs are an error. Substrates not needed by the
// selection are neither built nor timed.
func (s *Suite) RunArtifacts(ctx context.Context, parallelism int, only []string, includeExt bool) ([]ArtifactResult, error) {
	s.workers.Store(int32(parallelism))
	all := specs()
	var selected []artifactSpec
	if len(only) > 0 {
		known := map[string]artifactSpec{}
		for _, sp := range all {
			known[sp.id] = sp
		}
		seen := map[string]bool{}
		for _, id := range only {
			sp, ok := known[id]
			if !ok {
				return nil, fmt.Errorf("core: unknown artifact %q (valid: %s)",
					id, strings.Join(ArtifactIDs(), ", "))
			}
			if !seen[id] {
				seen[id] = true
				selected = append(selected, sp)
			}
		}
	} else {
		for _, sp := range all {
			if sp.ext && !includeExt {
				continue
			}
			selected = append(selected, sp)
		}
	}

	// Collect the substrates the selection needs, with transitive deps.
	needed := map[string]bool{}
	var expand func(id string)
	expand = func(id string) {
		if needed[id] {
			return
		}
		needed[id] = true
		for _, d := range substrateDeps[id] {
			expand(d)
		}
	}
	for _, sp := range selected {
		for _, d := range sp.deps {
			expand(d)
		}
	}

	type node struct {
		id   string
		kind string // span annotation: "substrate" or "artifact"
		deps []string
		run  func(worker int)
	}
	var nodes []node
	subOrder := []string{subCampaign, subLatency, subThroughput, subNEPTrace, subCloudTrace}
	subResults := map[string]*ArtifactResult{}
	for _, id := range subOrder {
		if !needed[id] {
			continue
		}
		id := id
		res := &ArtifactResult{ID: id, Desc: "substrate build"}
		subResults[id] = res
		nodes = append(nodes, node{id: id, kind: "substrate", deps: substrateDeps[id], run: func(worker int) {
			start := time.Now()
			s.buildSubstrate(id)
			res.Elapsed = time.Since(start)
			res.Worker = worker
		}})
	}
	artResults := make([]ArtifactResult, len(selected))
	for i, sp := range selected {
		i, sp := i, sp
		nodes = append(nodes, node{id: sp.id, kind: "artifact", deps: sp.deps, run: func(worker int) {
			start := time.Now()
			a := sp.build(s)
			artResults[i] = ArtifactResult{ID: sp.id, Desc: sp.desc, Artifact: a, Elapsed: time.Since(start), Worker: worker}
		}})
	}

	// Schedule the DAG over the worker pool.
	var (
		mu         sync.Mutex
		firstErr   error
		stopped    bool
		remaining  = len(nodes)
		indegree   = map[string]int{}
		dependents = map[string][]int{}
		byID       = map[string]int{}
	)
	ready := make(chan int, len(nodes))
	stop := func(err error) { // call with mu held
		if !stopped {
			stopped = true
			if firstErr == nil {
				firstErr = err
			}
			close(ready)
		}
	}
	for i, n := range nodes {
		byID[n.id] = i
	}
	for i, n := range nodes {
		for _, d := range n.deps {
			if _, ok := byID[d]; !ok {
				return nil, fmt.Errorf("core: artifact %s depends on unscheduled %s", n.id, d)
			}
			indegree[n.id]++
			dependents[d] = append(dependents[d], i)
		}
	}
	for i, n := range nodes {
		if indegree[n.id] == 0 {
			ready <- i
		}
	}

	workers := par.Workers(parallelism)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	// One span per scheduled node under a run root, attributed to the pool
	// slot that ran it — on a nil tracer every call below is a no-op branch.
	s.tracer.Reserve(len(nodes) + 1)
	rootSpan := s.tracer.Begin("runall", 0)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					mu.Lock()
					stop(ctx.Err())
					mu.Unlock()
					return
				case i, ok := <-ready:
					if !ok {
						return
					}
					span := s.tracer.Begin(nodes[i].id, rootSpan)
					s.tracer.SetWorker(span, w)
					s.tracer.Annotate(span, "kind", nodes[i].kind)
					err := runNode(func() { nodes[i].run(w) })
					s.tracer.End(span)
					mu.Lock()
					if err != nil {
						stop(err)
						mu.Unlock()
						return
					}
					remaining--
					for _, di := range dependents[nodes[i].id] {
						indegree[nodes[di].id]--
						if indegree[nodes[di].id] == 0 && !stopped {
							ready <- di
						}
					}
					if remaining == 0 {
						stop(nil)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	s.tracer.End(rootSpan)
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([]ArtifactResult, 0, len(subResults)+len(artResults))
	for _, id := range subOrder {
		if r, ok := subResults[id]; ok {
			out = append(out, *r)
		}
	}
	out = append(out, artResults...)
	return out, nil
}

// runNode executes one node, converting a panic in an experiment builder
// into an error so a failure cancels the run instead of killing the
// process from a worker goroutine.
func runNode(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: experiment panicked: %v", r)
		}
	}()
	fn()
	return nil
}
