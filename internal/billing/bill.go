package billing

import (
	"fmt"
	"sort"
	"time"

	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// NetworkModel selects how a cloud baseline bills network traffic.
type NetworkModel int

// Cloud network billing models (§4.5 / Table 6 columns).
const (
	OnDemandBandwidth NetworkModel = iota
	OnDemandQuantity
	PreReserved
)

// String names the model as in Table 6.
func (m NetworkModel) String() string {
	switch m {
	case OnDemandBandwidth:
		return "on-demand-by-bandwidth"
	case OnDemandQuantity:
		return "on-demand-by-quantity"
	default:
		return "pre-reserved"
	}
}

// AppBill is one app's monthly bill split by component.
type AppBill struct {
	App      int
	Hardware Money
	Network  Money
}

// Total returns hardware plus network.
func (b AppBill) Total() Money { return b.Hardware + b.Network }

// monthScale converts an observed-duration cost to a 30-day month.
func monthScale(d time.Duration) float64 {
	if d <= 0 {
		return 1
	}
	return float64(30*24*time.Hour) / float64(d)
}

// Usage is a dataset's bandwidth reduced to what its bills read, built by
// one replay walk (NewUsage) however many bills are priced from it. Per app,
// in ascending app ID, it keeps the app's VMs, its NEP network bill and its
// bandwidth merged per cloud region.
type Usage struct {
	d    *vm.Dataset
	apps []appUsage
}

type appUsage struct {
	app int
	vms []int // indices into d.VMs, in dataset order
	// nepNetwork is the NEP network bill: per site, the province/operator
	// unit price times the 95th-percentile daily peak of the app's combined
	// traffic there, folded in ascending site order.
	nepNetwork Money
	// regions holds the app's bandwidth merged per cloud region, in
	// ascending region name.
	regions []*timeseries.Series
}

// NewUsage walks d once, app by app in ascending ID, replaying each VM's
// bandwidth into one buffer and folding it, in VM order, into one
// buffer-recycling accumulator per site and one per region. Sites and
// regions then fold in ascending order, so every sum, and therefore every
// bill bit for bit, is the same whatever the map iteration order. Traffic
// of an app's VMs in one site is combined for NEP's per-site billing
// (Appendix A); the virtual clouds cluster it onto their few regions by
// geography (§4.5).
func NewUsage(d *vm.Dataset) *Usage {
	apps := d.AppVMs()
	ids := sortedAppIDs(apps)
	u := &Usage{d: d, apps: make([]appUsage, 0, len(ids))}
	var (
		bw       timeseries.Series
		siteBW   bwAccum[int]
		regionBW bwAccum[string]
	)
	for _, app := range ids {
		a := appUsage{app: app, vms: apps[app]}
		siteBW.Reset()
		regionBW.Reset()
		for _, vi := range a.vms {
			v := d.VMs[vi]
			v.BWSeries(&bw)
			siteBW.Add(v.Site, &bw)
			regionBW.Add(regionForProvince(d.Sites[v.Site].Province), &bw)
		}
		for _, site := range siteBW.Keys() {
			peak := NEP95thDailyPeak(siteBW.Get(site).DailyPeaks())
			unit := NEPNetUnitPrice(d.Sites[site].Province, OperatorForSite(d.Sites[site].Name))
			a.nepNetwork += unit * peak
		}
		for _, region := range regionBW.Keys() {
			a.regions = append(a.regions, regionBW.Get(region).Clone())
		}
		u.apps = append(u.apps, a)
	}
	return u
}

// hardware prices an app's VMs under hw, in VM order.
func (u *Usage) hardware(a *appUsage, hw HardwarePricing) Money {
	var m Money
	for _, vi := range a.vms {
		v := u.d.VMs[vi]
		m += hw.MonthlyHardware(v.VCPUs, v.MemGB, v.DiskGB)
	}
	return m
}

// NEPAppBills prices every app's monthly cost on NEP: per-unit hardware
// rates plus the per-site network bill NewUsage reduced.
func NEPAppBills(u *Usage) []AppBill {
	hw := NEPHardware()
	out := make([]AppBill, 0, len(u.apps))
	for i := range u.apps {
		a := &u.apps[i]
		out = append(out, AppBill{App: a.app, Hardware: u.hardware(a, hw), Network: a.nepNetwork})
	}
	return out
}

// CloudAppBills prices every app's monthly cost if its exact workload were
// moved to a virtual cloud baseline: the VM usage is clustered onto the
// cloud's (few) regions by geography — which for billing purposes merges
// each app's bandwidth into one series per region — and priced under the
// given network model.
func CloudAppBills(u *Usage, hw HardwarePricing, net CloudNetPricing, model NetworkModel) []AppBill {
	scale := monthScale(u.d.Duration)
	out := make([]AppBill, 0, len(u.apps))
	for i := range u.apps {
		a := &u.apps[i]
		bill := AppBill{App: a.app, Hardware: u.hardware(a, hw)}
		for _, bw := range a.regions {
			bill.Network += cloudNetworkCost(bw, net, model, scale)
		}
		out = append(out, bill)
	}
	return out
}

// cloudNetworkCost prices one region-level bandwidth series for a month.
func cloudNetworkCost(bw *timeseries.Series, net CloudNetPricing, model NetworkModel, scale float64) Money {
	switch model {
	case OnDemandBandwidth:
		// The cloud bills fine-grained peak bandwidth (per minute); our
		// series interval is coarser, so each sample is one billing slot.
		hours := bw.Interval.Hours()
		var cost Money
		for _, mbps := range bw.Values {
			cost += net.OnDemandHourly(mbps) * hours
		}
		return cost * scale
	case OnDemandQuantity:
		secs := bw.Interval.Seconds()
		var gb float64
		for _, mbps := range bw.Values {
			gb += mbps * secs / 8 / 1024 // Mbit→GB (1024 Mbit per GB ≈ 10^3 binary)
		}
		return net.QuantityCost(gb) * scale
	case PreReserved:
		// Reserve the observed maximum so the SLA never throttles.
		return net.ReservedMonthly(bw.MaxValue())
	default:
		panic(fmt.Sprintf("billing: unknown network model %d", int(model)))
	}
}

// provinceRegions is regionForProvince's table: built once, read-only.
var provinceRegions = map[string]string{
	"Beijing": "north", "Tianjin": "north", "Hebei": "north",
	"Shandong": "north", "Shanxi": "north", "InnerMongolia": "north",
	"Liaoning": "northeast", "Jilin": "northeast", "Heilongjiang": "northeast",
	"Shanghai": "east", "Jiangsu": "east", "Zhejiang": "east", "Anhui": "east",
	"Fujian": "east", "Jiangxi": "east",
	"Guangdong": "south", "Guangxi": "south", "Hainan": "south",
	"Henan": "central", "Hubei": "central", "Hunan": "central",
	"Chongqing": "southwest", "Sichuan": "southwest", "Guizhou": "southwest",
	"Yunnan": "southwest", "Tibet": "southwest",
	"Shaanxi": "northwest", "Gansu": "northwest", "Qinghai": "northwest",
	"Ningxia": "northwest", "Xinjiang": "northwest",
}

// regionForProvince maps a province to a coarse cloud region (the virtual
// baseline construction of §4.5: cluster NEP usage into the cloud's site
// distribution by geographic distance).
func regionForProvince(province string) string {
	if r, ok := provinceRegions[province]; ok {
		return r
	}
	return "east"
}

func sortedAppIDs(apps map[int][]int) []int {
	ids := make([]int, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Table6Row summarises one (cloud, model) cell of Table 6 over the N
// heaviest apps.
type Table6Row struct {
	Cloud  string
	Model  NetworkModel
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	// CheaperOnCloud counts apps whose ratio is below 1 — the §4.5
	// exceptions (hardware-heavy or high-variance apps).
	CheaperOnCloud int
	N              int
}

// Table6 computes the cost-ratio summary for both virtual clouds and all
// three network models over the topN apps by NEP bill (paper: 50 heaviest).
func Table6(u *Usage, topN int) []Table6Row {
	nep := NEPAppBills(u)
	sort.Slice(nep, func(i, j int) bool { return nep[i].Total() > nep[j].Total() })
	if topN > 0 && topN < len(nep) {
		nep = nep[:topN]
	}
	nepByApp := map[int]AppBill{}
	for _, b := range nep {
		nepByApp[b.App] = b
	}

	type cloudSpec struct {
		hw  HardwarePricing
		net CloudNetPricing
	}
	clouds := []cloudSpec{
		{VCloud1Hardware(), VCloud1Net()},
		{VCloud2Hardware(), VCloud2Net()},
	}
	var rows []Table6Row
	for _, cs := range clouds {
		for _, model := range []NetworkModel{OnDemandBandwidth, OnDemandQuantity, PreReserved} {
			cloudBills := CloudAppBills(u, cs.hw, cs.net, model)
			var ratios []float64
			cheaper := 0
			for _, cb := range cloudBills {
				nb, ok := nepByApp[cb.App]
				if !ok || nb.Total() == 0 {
					continue
				}
				ratio := cb.Total() / nb.Total()
				ratios = append(ratios, ratio)
				if ratio < 1 {
					cheaper++
				}
			}
			sum := stats.SummarizeInPlace(ratios)
			rows = append(rows, Table6Row{
				Cloud:          cs.net.Name,
				Model:          model,
				Min:            sum.Min(),
				Max:            sum.Max(),
				Mean:           sum.Mean(),
				Median:         sum.Median(),
				CheaperOnCloud: cheaper,
				N:              sum.Len(),
			})
		}
	}
	return rows
}

// BreakdownSummary carries the §4.5 breakdown findings.
type BreakdownSummary struct {
	// MeanNetworkShare is the average fraction of an app's NEP bill spent
	// on network (paper: 76% on average, up to 96%).
	MeanNetworkShare float64
	MaxNetworkShare  float64
	// HardwareRatioCloudOverNEP is the mean cloud/NEP hardware-cost ratio
	// including storage. Synthetic disk fleets at the published list prices
	// (NEP 0.35 vs AliCloud 1.0 RMB/GB/month) can push this above 1 for
	// disk-heavy apps, so the paper's "NEP charges 3–20% more" claim is
	// checked against the storage-exclusive ratio below.
	HardwareRatioCloudOverNEP float64
	// ComputeRatioCloudOverNEP is the cloud/NEP ratio over CPU+memory only
	// (paper: NEP charges 3–20% more, so this sits below 1).
	ComputeRatioCloudOverNEP float64
}

// Breakdown computes the bill decomposition against vCloud-1.
func Breakdown(u *Usage, topN int) BreakdownSummary {
	nep := NEPAppBills(u)
	sort.Slice(nep, func(i, j int) bool { return nep[i].Total() > nep[j].Total() })
	if topN > 0 && topN < len(nep) {
		nep = nep[:topN]
	}
	cloud := CloudAppBills(u, VCloud1Hardware(), VCloud1Net(), OnDemandBandwidth)
	cloudByApp := map[int]AppBill{}
	for _, b := range cloud {
		cloudByApp[b.App] = b
	}
	// Per-app CPU+memory-only costs for the compute ratio.
	nepHW, v1HW := NEPHardware(), VCloud1Hardware()
	computeNEP := map[int]Money{}
	computeV1 := map[int]Money{}
	for _, v := range u.d.VMs {
		computeNEP[v.App] += nepHW.MonthlyHardware(v.VCPUs, v.MemGB, 0)
		computeV1[v.App] += v1HW.MonthlyHardware(v.VCPUs, v.MemGB, 0)
	}
	var out BreakdownSummary
	var shares, hwRatios, compRatios []float64
	for _, b := range nep {
		if b.Total() == 0 {
			continue
		}
		share := b.Network / b.Total()
		shares = append(shares, share)
		if cb, ok := cloudByApp[b.App]; ok && b.Hardware > 0 {
			hwRatios = append(hwRatios, cb.Hardware/b.Hardware)
		}
		if nc := computeNEP[b.App]; nc > 0 {
			compRatios = append(compRatios, computeV1[b.App]/nc)
		}
	}
	out.MeanNetworkShare = stats.Mean(shares)
	out.MaxNetworkShare = stats.Max(shares)
	out.HardwareRatioCloudOverNEP = stats.Mean(hwRatios)
	out.ComputeRatioCloudOverNEP = stats.Mean(compRatios)
	return out
}
