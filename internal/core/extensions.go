package core

import (
	"fmt"

	"edgescope/internal/elastic"
	"edgescope/internal/geo"
	"edgescope/internal/netmodel"
	"edgescope/internal/placement"
	"edgescope/internal/report"
	"edgescope/internal/stats"
	"edgescope/internal/topology"
)

// The extension experiments quantify the paper's forward-looking
// implications (§3.1, §4.3, §5): denser deployments and MEC sinking,
// migration-based rebalancing, and load-aware request scheduling. They are
// not paper artifacts; run them with `reproall -ext` or the benches.

// ExtDensity sweeps deployment density — from a sparse edge to the paper's
// NEP to a 4× denser build-out to full MEC sinking — and reports the median
// nearest-edge RTT and hop count a WiFi user population would see.
func (s *Suite) ExtDensity() *report.Table {
	r := s.root().Fork("ext-density")
	t := &report.Table{
		Title:   "Extension: deployment density vs nearest-edge latency (WiFi)",
		Headers: []string{"deployment", "sites", "median-rtt-ms", "median-hops", "median-dist-km"},
	}
	users := s.Campaign().Users

	for _, spec := range []struct {
		name  string
		sites int
	}{
		{"sparse-edge", 130},
		{"NEP-today", 520},
		{"denser-4x", 2080},
	} {
		plat := topology.BuildNEP(r.Fork(spec.name), topology.NEPOptions{TargetSites: spec.sites})
		var rtts, hops, dists []float64
		for _, u := range users {
			rank := plat.NearestSites(u.Loc)
			site := plat.Sites[rank[0]]
			dist := geo.Haversine(u.Loc, site.Loc)
			path := netmodel.BuildPath(r, netmodel.WiFi, netmodel.EdgeSite, dist)
			rtts = append(rtts, path.SampleRTT(r))
			hops = append(hops, float64(path.HopCount()))
			dists = append(dists, dist)
		}
		t.AddRow(spec.name, len(plat.Sites),
			stats.SummarizeInPlace(rtts).Median(),
			stats.SummarizeInPlace(hops).Median(),
			stats.SummarizeInPlace(dists).Median())
	}

	// MEC: compute at the access aggregation point — the 1-2 hop vision.
	var rtts, hops []float64
	for range users {
		path := netmodel.BuildSunkPath(r, netmodel.WiFi)
		rtts = append(rtts, path.SampleRTT(r))
		hops = append(hops, float64(path.HopCount()))
	}
	t.AddRow("MEC-sunk", "-",
		stats.SummarizeInPlace(rtts).Median(), stats.SummarizeInPlace(hops).Median(), 0.0)
	return t
}

// ExtMigration quantifies the §5 "dynamic VM migration" opportunity on the
// generated NEP trace: how much the cross-server load gap shrinks per
// migration budget, and what the moves cost.
func (s *Suite) ExtMigration() *report.Table {
	d := s.NEPTrace()
	t := &report.Table{
		Title:   "Extension: migration-based rebalancing (cross-server load gap, P95/P5)",
		Headers: []string{"max-moves", "moves-made", "gap-before", "gap-after", "moved-gb", "est-seconds"},
	}
	for _, budget := range []int{10, 50, 200} {
		res := placement.RebalanceCPU(d, budget, 10)
		t.AddRow(budget, res.Moves, res.GapBefore, res.GapAfter,
			res.MovedGB, res.EstSeconds)
	}
	return t
}

// ExtScheduling compares the customer-side request schedulers of §4.3: the
// DNS-style nearest-site routing NEP customers use today against load-aware
// GSLB at increasing delay slack.
func (s *Suite) ExtScheduling() *report.Table {
	r := s.root().Fork("ext-sched")
	replicas := []placement.Replica{
		{CapacityRPS: 100, DelayMs: 10},
		{CapacityRPS: 100, DelayMs: 13},
		{CapacityRPS: 100, DelayMs: 14},
		{CapacityRPS: 100, DelayMs: 18},
	}
	t := &report.Table{
		Title:   "Extension: request scheduling (4 replicas, skewed demand)",
		Headers: []string{"scheduler", "max-load", "load-gap", "mean-delay-ms", "time-over-80pct"},
	}
	run := func(name string, sched placement.Scheduler) {
		out := placement.SimulateScheduling(r.Fork(name), sched, replicas, 6000)
		gap := out.LoadGap
		gapStr := report.FormatFloat(gap)
		if gap > 1e6 {
			gapStr = "inf"
		}
		t.AddRow(name, out.MaxLoad, gapStr, out.MeanDelayMs, out.OverThresholdFrac)
	}
	run("nearest-site", placement.NearestSite{})
	for _, slack := range []float64{3, 6, 12} {
		run(fmt.Sprintf("load-aware-slack-%gms", slack), placement.LoadAware{DelaySlackMs: slack})
	}
	return t
}

// ExtElastic compares reserved IaaS VMs against a serverless deployment for
// edge apps at different demand intensities — the §5 "decomposing edge
// services" economics, with the cold-start tail the paper warns about.
func (s *Suite) ExtElastic() *report.Table {
	t := &report.Table{
		Title:   "Extension: reserved VMs vs serverless (monthly cost, latency)",
		Headers: []string{"workload", "plan", "monthly-rmb", "mean-ms", "p99-ms", "overload"},
	}
	sl := elastic.DefaultServerless()
	for _, spec := range []struct {
		name     string
		meanRPS  float64
		replicas int
	}{
		{"near-idle (0.05 rps)", 0.05, 1},
		{"moderate (20 rps)", 20, 1},
		{"sustained (150 rps)", 150, 2},
	} {
		w := elastic.DiurnalWorkload(spec.meanRPS, 4, 21)
		vmPlan := elastic.VMPlan{
			Replicas: spec.replicas, CapacityRPS: 100,
			VCPUs: 8, MemGB: 32, ExecMs: 25,
		}
		vo := vmPlan.Evaluate(w)
		so := sl.Evaluate(w)
		t.AddRow(spec.name, "reserved-vm", vo.MonthlyCost, vo.MeanLatencyMs, vo.P99LatencyMs, vo.OverloadFrac)
		t.AddRow(spec.name, "serverless", so.MonthlyCost, so.MeanLatencyMs, so.P99LatencyMs, so.OverloadFrac)
	}
	return t
}
