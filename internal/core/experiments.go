package core

import (
	"fmt"

	"edgescope/internal/analysis"
	"edgescope/internal/billing"
	"edgescope/internal/crowd"
	"edgescope/internal/netmodel"
	"edgescope/internal/predict"
	"edgescope/internal/qoe"
	"edgescope/internal/qoe/gaming"
	"edgescope/internal/qoe/streaming"
	"edgescope/internal/report"
	"edgescope/internal/stats"
	"edgescope/internal/topology"
	"edgescope/internal/vm"
)

// Table1 reproduces the deployment-density comparison.
func (s *Suite) Table1() *report.Table {
	t := &report.Table{
		Title:   "Table 1: deployment density (regions per 10^6 mi^2)",
		Headers: []string{"platform", "regions", "coverage", "density"},
	}
	for _, d := range topology.Table1Deployments(s.NEP()) {
		t.AddRow(d.Platform, d.Regions, d.Coverage, d.Density())
	}
	return t
}

// Table2 reproduces the survey of publicly available cloud/edge workload
// traces and why each was (not) chosen as the comparison counterpart. The
// rows are bibliographic facts from §2.2; the synthetic NEP row reflects
// this reproduction's generated stand-in.
func (s *Suite) Table2() *report.Table {
	t := &report.Table{
		Title:   "Table 2: cloud/edge workload traces considered for comparison",
		Headers: []string{"dataset", "platform", "duration", "scale", "customers", "verdict"},
	}
	t.AddRow("Azure Dataset", "Azure Cloud", "1 month (2017), 1 month (2019)",
		"2.0M / 2.7M VMs", "public", "compared (2019 version)")
	t.AddRow("AliCloud Dataset", "AliCloud ECS", "12 hours (2017), 8 days (2018)",
		"1.3k / 4.0k servers", "public", "not compared: containers only, too short")
	t.AddRow("Google Dataset", "Google Borg", "1 month (2011), 1 month (2019)",
		"12.6k / 96.4k servers", "Google developers", "not compared: BigQuery-only, not a public platform")
	t.AddRow("GWA-T-12", "Bitbrains", "3 months (2013)",
		"1.75k VMs", "enterprises", "not compared: old, small, not public")
	t.AddRow("NEP (this study)", "NEP", "3 months (2020)",
		fmt.Sprintf("complete set (synthetic stand-in: %d VMs)", len(s.NEPTrace().VMs)),
		"public", "the edge side of every comparison")
	return t
}

var latencyAccess = []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG}

var latencyTargets = []crowd.TargetKind{
	crowd.NearestEdge, crowd.ThirdNearestEdge, crowd.NearestCloud, crowd.CloudMember,
}

// Figure2a reproduces the median-RTT comparison.
func (s *Suite) Figure2a() *report.Table {
	st := s.LatencyStore()
	t := &report.Table{
		Title:   "Figure 2a: median RTT across users (ms)",
		Headers: []string{"access", "nearest-edge", "3rd-nearest-edge", "nearest-cloud", "all-clouds"},
	}
	for _, a := range latencyAccess {
		row := []any{a.String()}
		for _, k := range latencyTargets {
			row = append(row, st.MedianRTTAcrossUsers(a, k))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure2b reproduces the RTT-jitter (CV) comparison.
func (s *Suite) Figure2b() *report.Table {
	st := s.LatencyStore()
	t := &report.Table{
		Title:   "Figure 2b: median RTT coefficient of variation across users",
		Headers: []string{"access", "nearest-edge", "3rd-nearest-edge", "nearest-cloud", "all-clouds"},
	}
	for _, a := range latencyAccess {
		row := []any{a.String()}
		for _, k := range latencyTargets {
			row = append(row, st.MedianCVAcrossUsers(a, k))
		}
		t.AddRow(row...)
	}
	return t
}

// Table3 reproduces the hop-level latency breakdown.
func (s *Suite) Table3() *report.Table {
	st := s.LatencyStore()
	t := &report.Table{
		Title:   "Table 3: hop-level breakdown of network delay (share of RTT)",
		Headers: []string{"access", "target", "hop1", "hop2", "hop3", "rest"},
	}
	for _, a := range latencyAccess {
		for _, k := range []crowd.TargetKind{crowd.NearestEdge, crowd.NearestCloud} {
			row := st.HopBreakdown(a, k)
			t.AddRow(a.String(), k.String(), row.Share1, row.Share2, row.Share3, row.ShareRest)
		}
	}
	return t
}

// Table4 reproduces the co-location RTT/distance table.
func (s *Suite) Table4() *report.Table {
	rows := s.LatencyStore().CoLocationTable()
	t := &report.Table{
		Title: "Table 4: average RTT and city-level distance by co-location",
		Headers: []string{"class", "user-share",
			"rtt-edge-ms", "rtt-cloud-ms", "dist-edge-km", "dist-cloud-km"},
	}
	for _, r := range rows {
		t.AddRow(r.Class.String(), r.UserShare, r.RTTEdgeMs, r.RTTCloudMs, r.DistEdgeKm, r.DistCloudKm)
	}
	return t
}

// Figure3 reproduces the hop-count distributions.
func (s *Suite) Figure3() *report.Figure {
	st := s.LatencyStore()
	f := &report.Figure{
		Title:  "Figure 3: hop count to nearest edge vs clouds",
		XLabel: "hops", YLabel: "CDF",
	}
	f.AddCDF("nearest-edge", st.HopCounts(true))
	f.AddCDF("clouds", st.HopCounts(false))
	return f
}

// Figure4 reproduces inter-site RTT vs distance, plus the nearby-site
// counts quoted in §3.1.
func (s *Suite) Figure4() *report.Figure {
	r := s.root().Fork("fig4")
	pairs := topology.SampleInterSiteRTTs(r, s.NEP(), s.Spec.Sizing.InterSitePairs)
	xs := make([]float64, len(pairs))
	ys := make([]float64, len(pairs))
	for i, p := range pairs {
		xs[i] = p.DistanceKm
		ys[i] = p.RTTMs
	}
	f := &report.Figure{
		Title:  "Figure 4: inter-site RTT vs geographic distance",
		XLabel: "km", YLabel: "RTT ms",
	}
	f.AddSeries("site-pairs", xs, ys)
	counts := topology.NearbySiteCounts(s.NEP(), []float64{5, 10, 20})
	f.AddSeries("nearby-sites-within-5/10/20ms", []float64{5, 10, 20}, counts)
	return f
}

// Figure5 reproduces the throughput-vs-distance study.
func (s *Suite) Figure5() *report.Table {
	rows := crowd.ThroughputCorrelations(s.ThroughputObs())
	t := &report.Table{
		Title:   "Figure 5: TCP throughput vs distance (Pearson correlation)",
		Headers: []string{"access", "direction", "corr", "mean-mbps", "samples"},
	}
	for _, r := range rows {
		t.AddRow(r.Access.String(), r.Dir.String(), r.Corr, r.MeanMbps, r.N)
	}
	return t
}

// Table5 reproduces the QoE backend RTT table.
func (s *Suite) Table5() *report.Table {
	rows := qoe.RTTTable(s.root().Fork("table5"), 4)
	t := &report.Table{
		Title:   "Table 5: RTT to QoE backends (ms)",
		Headers: []string{"access", "Edge", "Cloud-1", "Cloud-2", "Cloud-3"},
	}
	for _, a := range latencyAccess {
		row := []any{a.String()}
		for _, b := range qoe.Backends() {
			v, _ := qoe.MeanRTT(rows, a, b.Name)
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}

// Figure6 reproduces the cloud-gaming response-delay study: backends ×
// access networks, devices, and games.
func (s *Suite) Figure6() *report.Table {
	r := s.root().Fork("fig6")
	t := &report.Table{
		Title:   "Figure 6: cloud gaming response delay (ms)",
		Headers: []string{"variant", "median", "p95", "server-stage", "network-stage"},
	}
	add := func(name string, cfg gaming.Config) {
		sum := gaming.Summarize(gaming.Simulate(r, cfg, s.Spec.Sizing.QoESamples))
		t.AddRow(name, sum.MedianMs, sum.P95Ms, sum.Breakdown.Server,
			sum.Breakdown.Uplink+sum.Breakdown.Downlink)
	}
	// (a) network conditions: backends × WiFi/LTE/5G.
	for _, b := range qoe.Backends() {
		for _, a := range latencyAccess {
			add(fmt.Sprintf("%s/%s", b.Name, a), gaming.Config{Access: a, Backend: b})
		}
	}
	// (b) devices (default game/backend/WiFi).
	for _, d := range gaming.Devices() {
		add("device/"+d.Name, gaming.Config{Access: netmodel.WiFi, Device: d})
	}
	// (c) games.
	for _, g := range gaming.Games() {
		add("game/"+g.Name, gaming.Config{Access: netmodel.WiFi, Game: g})
	}
	// Ablations the paper discusses: GPU rendering and core count.
	add("ablation/gpu-rendering", gaming.Config{Access: netmodel.WiFi, GPURendering: true})
	add("ablation/16-cores", gaming.Config{Access: netmodel.WiFi, ServerCores: 16})
	return t
}

// Figure7 reproduces the live-streaming delay study.
func (s *Suite) Figure7() *report.Table {
	r := s.root().Fork("fig7")
	t := &report.Table{
		Title:   "Figure 7: live streaming delay (ms)",
		Headers: []string{"variant", "median", "p95", "network-stage", "capture+render"},
	}
	add := func(name string, cfg streaming.Config) {
		sum := streaming.Summarize(streaming.Simulate(r, cfg, s.Spec.Sizing.QoESamples))
		t.AddRow(name, sum.MedianMs, sum.P95Ms,
			sum.Breakdown.UplinkNet+sum.Breakdown.DownNet,
			sum.Breakdown.Capture+sum.Breakdown.Render)
	}
	for _, b := range qoe.Backends() {
		for _, a := range latencyAccess {
			add(fmt.Sprintf("%s/%s-1080p", b.Name, a),
				streaming.Config{Access: a, Backend: b, Resolution: streaming.R1080p})
		}
	}
	add("WiFi-720p", streaming.Config{Access: netmodel.WiFi, Resolution: streaming.R720p})
	add("WiFi-trans", streaming.Config{Access: netmodel.WiFi, Resolution: streaming.R1080p, Transcode: true})
	add("WiFi-jitterbuf-2MB", streaming.Config{
		Access: netmodel.WiFi, Resolution: streaming.R1080p, JitterBufferMB: 2})
	ff, _ := streaming.PlayerByName("FFplay")
	add("WiFi-ffplay", streaming.Config{Access: netmodel.WiFi, Resolution: streaming.R1080p, Player: ff})
	return t
}

// Figure8 reproduces the VM-size comparison.
func (s *Suite) Figure8() *report.Table {
	sn := analysis.VMSizes(s.NEPTrace())
	sc := analysis.VMSizes(s.CloudTrace())
	t := &report.Table{
		Title: "Figure 8: VM sizes (small ≤4, medium 5-16, large >16)",
		Headers: []string{"platform", "median-vcpus", "median-mem-gb",
			"cpu-small", "cpu-medium", "cpu-large", "mem-small", "mem-medium", "mem-large"},
	}
	t.AddRow("NEP", sn.MedianVCPUs, sn.MedianMemGB, sn.CPUSmall, sn.CPUMedium, sn.CPULarge,
		sn.MemSmall, sn.MemMedium, sn.MemLarge)
	t.AddRow("Azure-like", sc.MedianVCPUs, sc.MedianMemGB, sc.CPUSmall, sc.CPUMedium, sc.CPULarge,
		sc.MemSmall, sc.MemMedium, sc.MemLarge)
	return t
}

// Figure9 reproduces the per-app VM-count CDF.
func (s *Suite) Figure9() *report.Figure {
	f := &report.Figure{
		Title:  "Figure 9: VMs per app",
		XLabel: "VMs", YLabel: "CDF",
	}
	cn := analysis.AppVMCounts(s.NEPTrace())
	cc := analysis.AppVMCounts(s.CloudTrace())
	f.AddCDF(fmt.Sprintf("NEP (>=50 VMs: %.1f%%)", 100*analysis.ShareAtLeast(cn, 50)), cn)
	f.AddCDF(fmt.Sprintf("Azure-like (>=50 VMs: %.1f%%)", 100*analysis.ShareAtLeast(cc, 50)), cc)
	return f
}

// Figure10 reproduces the CPU-utilisation comparison.
func (s *Suite) Figure10() *report.Figure {
	un := analysis.Utilization(s.NEPTrace())
	uc := analysis.Utilization(s.CloudTrace())
	f := &report.Figure{
		Title:  "Figure 10: per-VM CPU utilisation and its temporal variance",
		XLabel: "CPU % (or CV)", YLabel: "CDF",
	}
	f.AddCDF("NEP mean-cpu", un.MeanCPU)
	f.AddCDF("Azure-like mean-cpu", uc.MeanCPU)
	f.AddCDF("NEP p95max-cpu", un.P95MaxCPU)
	f.AddCDF("Azure-like p95max-cpu", uc.P95MaxCPU)
	f.AddCDF("NEP cpu-cv", un.CPUCVs)
	f.AddCDF("Azure-like cpu-cv", uc.CPUCVs)
	return f
}

// Figure11 reproduces the cross-server/site imbalance study (Guangdong).
func (s *Suite) Figure11() *report.Table {
	rep := analysis.Imbalance(s.NEPTrace(), "Guangdong")
	t := &report.Table{
		Title:   "Figure 11: resource imbalance across Guangdong sites/servers (max/min)",
		Headers: []string{"scope", "metric", "gap", "units"},
	}
	t.AddRow("cross-site", "cpu", rep.SiteCPUGap, len(rep.SiteCPU))
	t.AddRow("cross-site", "net", rep.SiteNETGap, len(rep.SiteNET))
	t.AddRow("cross-server", "cpu", rep.ServerCPUGap, len(rep.ServerCPU))
	t.AddRow("cross-server", "net", rep.ServerNETGap, len(rep.ServerNET))
	return t
}

// Figure12 reproduces the per-app cross-VM imbalance CDF and the 11-VM day
// sample.
func (s *Suite) Figure12() *report.Figure {
	f := &report.Figure{
		Title:  "Figure 12: cross-VM usage gap within one app (P95/P5 of mean CPU)",
		XLabel: "gap (x)", YLabel: "CDF",
	}
	gn := analysis.AppGaps(s.NEPTrace(), 5)
	gc := analysis.AppGaps(s.CloudTrace(), 5)
	f.AddCDF(fmt.Sprintf("NEP (>=50x: %.1f%%)", 100*analysis.ShareAtLeast(gn, 50)), gn)
	f.AddCDF(fmt.Sprintf("Azure-like (>=50x: %.1f%%)", 100*analysis.ShareAtLeast(gc, 50)), gc)
	// 12b: one day of the largest app's VMs.
	for i, day := range analysis.AppDaySample(s.NEPTrace(), 11) {
		x := make([]float64, len(day))
		for j := range x {
			x[j] = float64(j)
		}
		f.AddSeries(fmt.Sprintf("day-sample-vm-%02d", i+1), x, day)
	}
	return f
}

// Figure13 reproduces the weekly bandwidth volatility plot.
func (s *Suite) Figure13() *report.Figure {
	d := s.NEPTrace()
	idx := analysis.MostVolatileBW(d, 4)
	f := &report.Figure{
		Title:  "Figure 13: weekly-averaged bandwidth of 4 volatile VMs",
		XLabel: "week", YLabel: "Mbps",
	}
	for i, row := range analysis.WeeklyBandwidth(d, idx) {
		x := make([]float64, len(row))
		for j := range x {
			x[j] = float64(j + 1)
		}
		f.AddSeries(fmt.Sprintf("VM-%d", i+1), x, row)
	}
	return f
}

// Figure14 reproduces the prediction study: Holt-Winters on both platforms
// (all sampled VMs) and the LSTM on a smaller subset (per-VM training).
func (s *Suite) Figure14() *report.Table {
	t := &report.Table{
		Title:   "Figure 14: CPU usage prediction RMSE (pct points)",
		Headers: []string{"platform", "model", "target", "median-rmse", "p90-rmse", "vms"},
	}
	workers := int(s.workers.Load())
	for _, spec := range []struct {
		name string
		d    *vm.Dataset
	}{
		{"NEP", s.NEPTrace()},
		{"Azure-like", s.CloudTrace()},
	} {
		d := spec.d
		hw, err := predict.Evaluate(d, predict.Options{
			MaxVMs: s.Spec.Sizing.PredictVMs, Models: []string{"holt-winters"}, Workers: workers,
		})
		if err != nil {
			panic("core: " + err.Error())
		}
		lstm, err := predict.Evaluate(d, predict.Options{
			MaxVMs: s.Spec.Sizing.LSTMVMs, Models: []string{"lstm"}, LSTMEpochs: s.Spec.Sizing.LSTMEpochs,
			Workers: workers,
		})
		if err != nil {
			panic("core: " + err.Error())
		}
		for _, target := range []predict.Target{predict.MaxCPU, predict.MeanCPU} {
			hwR := stats.SummarizeInPlace(predict.RMSEs(hw, "holt-winters", target))
			t.AddRow(spec.name, "holt-winters", target.String(),
				hwR.Median(), hwR.Percentile(90), hwR.Len())
			lR := stats.SummarizeInPlace(predict.RMSEs(lstm, "lstm", target))
			if lR.Len() > 0 {
				t.AddRow(spec.name, "lstm", target.String(),
					lR.Median(), lR.Percentile(90), lR.Len())
			}
		}
	}
	return t
}

// Table6 reproduces the monetary-cost comparison.
func (s *Suite) Table6() *report.Table {
	u := billing.NewUsage(s.NEPTrace())
	rows := billing.Table6(u, s.Spec.Sizing.BillingTopN)
	t := &report.Table{
		Title:   "Table 6: cloud cost normalised to NEP (>1 = NEP cheaper)",
		Headers: []string{"cloud", "network-model", "min", "max", "mean", "median", "cheaper-on-cloud", "apps"},
	}
	for _, r := range rows {
		t.AddRow(r.Cloud, r.Model.String(), r.Min, r.Max, r.Mean, r.Median, r.CheaperOnCloud, r.N)
	}
	b := billing.Breakdown(u, s.Spec.Sizing.BillingTopN)
	t.AddRow("breakdown", "mean-network-share", b.MeanNetworkShare, "", "", "", "", "")
	t.AddRow("breakdown", "max-network-share", b.MaxNetworkShare, "", "", "", "", "")
	t.AddRow("breakdown", "hw-ratio-cloud/NEP", b.HardwareRatioCloudOverNEP, "", "", "", "", "")
	t.AddRow("breakdown", "compute-ratio-cloud/NEP", b.ComputeRatioCloudOverNEP, "", "", "", "", "")
	return t
}

// Table7 reproduces the pricing-model worked examples.
func (s *Suite) Table7() *report.Table {
	t := &report.Table{
		Title:   "Table 7: billing model worked examples (RMB/month)",
		Headers: []string{"platform", "item", "example", "cost"},
	}
	v1, v2 := billing.VCloud1Net(), billing.VCloud2Net()
	t.AddRow("vCloud-1", "pre-reserved", "2 Mbps", v1.ReservedMonthly(2))
	t.AddRow("vCloud-1", "pre-reserved", "7 Mbps", v1.ReservedMonthly(7))
	t.AddRow("vCloud-1", "on-demand-bandwidth", "2 Mbps x 720h", v1.OnDemandHourly(2)*720)
	t.AddRow("vCloud-1", "on-demand-bandwidth", "7 Mbps x 720h", v1.OnDemandHourly(7)*720)
	t.AddRow("vCloud-1", "on-demand-quantity", "1 GB", v1.QuantityCost(1))
	t.AddRow("vCloud-2", "pre-reserved", "2 Mbps", v2.ReservedMonthly(2))
	t.AddRow("vCloud-2", "pre-reserved", "7 Mbps", v2.ReservedMonthly(7))
	t.AddRow("vCloud-2", "on-demand-bandwidth", "7 Mbps x 720h", v2.OnDemandHourly(7)*720)
	t.AddRow("NEP", "hardware", "1 vCPU + 1 GB + 1 GB disk", billing.NEPHardware().MonthlyHardware(1, 1, 1))
	t.AddRow("NEP", "network", "guangzhou-telecom 2 Mbps", 2*billing.NEPNetUnitPrice("Guangdong", "telecom"))
	t.AddRow("NEP", "network", "chengdu-telecom 2 Mbps", 2*billing.NEPNetUnitPrice("Sichuan", "telecom"))
	t.AddRow("NEP", "network", "guangzhou-cmcc 2 Mbps", 2*billing.NEPNetUnitPrice("Guangdong", "cmcc"))
	t.AddRow("NEP", "network", "chengdu-cmcc 2 Mbps", 2*billing.NEPNetUnitPrice("Sichuan", "cmcc"))
	return t
}
