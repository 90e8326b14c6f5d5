package billing

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
	"edgescope/internal/workload"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// --- Table 7 worked examples ---

func TestVCloud1ReservedExamples(t *testing.T) {
	c := VCloud1Net()
	cases := map[float64]Money{1: 23, 2: 46, 3: 71, 4: 96, 5: 125, 7: 285}
	for mbps, want := range cases {
		if got := c.ReservedMonthly(mbps); !almost(got, want, 1e-9) {
			t.Fatalf("vCloud-1 reserved %v Mbps = %v, want %v", mbps, got, want)
		}
	}
	if c.ReservedMonthly(0) != 0 {
		t.Fatal("zero bandwidth should be free")
	}
	// Fractional bandwidth rounds up.
	if got := c.ReservedMonthly(1.2); got != 46 {
		t.Fatalf("1.2 Mbps should bill as 2 Mbps, got %v", got)
	}
}

func TestVCloud2ReservedExample(t *testing.T) {
	c := VCloud2Net()
	if got := c.ReservedMonthly(2); !almost(got, 46, 1e-9) {
		t.Fatalf("vCloud-2 reserved 2 Mbps = %v, want 46", got)
	}
	// Table 7: 7 Mbps = 23×5 + 2×80 = 275.
	if got := c.ReservedMonthly(7); !almost(got, 275, 1e-9) {
		t.Fatalf("vCloud-2 reserved 7 Mbps = %v, want 275", got)
	}
}

func TestOnDemandByBandwidthExamples(t *testing.T) {
	// Table 7: 2 Mbps for a month = 720 × 2 × 0.063 = 90.72 (both clouds).
	for _, c := range []CloudNetPricing{VCloud1Net(), VCloud2Net()} {
		if got := c.OnDemandHourly(2) * 720; !almost(got, 90.72, 1e-9) {
			t.Fatalf("%s 2 Mbps month = %v, want 90.72", c.Name, got)
		}
	}
	// Table 7 (vCloud-2): 7 Mbps month = 720 × (5×0.063 + 2×0.25) = 586.8.
	if got := VCloud2Net().OnDemandHourly(7) * 720; !almost(got, 586.8, 1e-9) {
		t.Fatalf("vCloud-2 7 Mbps month = %v, want 586.8", got)
	}
	// vCloud-1 7 Mbps under the tariff as specified: 720 × (5×0.063 +
	// 2×0.248) = 583.92. (The paper's example prints 447.84 via an
	// arithmetic slip; see OnDemandHourly's doc comment.)
	if got := VCloud1Net().OnDemandHourly(7) * 720; !almost(got, 583.92, 1e-6) {
		t.Fatalf("vCloud-1 7 Mbps month = %v, want 583.92", got)
	}
	if VCloud1Net().OnDemandHourly(-1) != 0 {
		t.Fatal("negative bandwidth should be free")
	}
}

func TestQuantityExample(t *testing.T) {
	// Table 7: 1 GB = 0.8.
	if got := VCloud1Net().QuantityCost(1); !almost(got, 0.8, 1e-9) {
		t.Fatalf("1 GB = %v, want 0.8", got)
	}
	if VCloud1Net().QuantityCost(-5) != 0 {
		t.Fatal("negative quantity should be free")
	}
}

func TestNEPUnitPriceExamples(t *testing.T) {
	// Table 7's published city/operator prices.
	if got := NEPNetUnitPrice("Guangdong", "telecom"); got != 50 {
		t.Fatalf("guangzhou-telecom = %v, want 50", got)
	}
	if got := NEPNetUnitPrice("Sichuan", "telecom"); got != 25 {
		t.Fatalf("chengdu-telecom = %v, want 25", got)
	}
	if got := NEPNetUnitPrice("Guangdong", "cmcc"); got != 30 {
		t.Fatalf("guangzhou-cmcc = %v, want 30", got)
	}
	if got := NEPNetUnitPrice("Sichuan", "cmcc"); got != 15 {
		t.Fatalf("chengdu-cmcc = %v, want 15", got)
	}
	// Unlisted combinations stay in the published 15–50 band and are
	// deterministic.
	a := NEPNetUnitPrice("Hubei", "unicom")
	b := NEPNetUnitPrice("Hubei", "unicom")
	if a != b {
		t.Fatal("unit price not deterministic")
	}
	if a < 15 || a > 50 {
		t.Fatalf("unit price %v outside 15-50", a)
	}
	// CMCC runs cheaper (15–30).
	for _, prov := range []string{"Hubei", "Henan", "Jiangsu", "Zhejiang"} {
		if p := NEPNetUnitPrice(prov, "cmcc"); p > 30 {
			t.Fatalf("cmcc price %v in %s above 30", p, prov)
		}
	}
}

func TestNEPHardwareRates(t *testing.T) {
	hw := NEPHardware()
	// Table 7: 65/CPU, 20/GB mem, 0.35/GB disk.
	if got := hw.MonthlyHardware(1, 1, 1); !almost(got, 85.35, 1e-9) {
		t.Fatalf("unit hardware = %v", got)
	}
	if got := hw.MonthlyHardware(8, 32, 100); !almost(got, 65*8+20*32+0.35*100, 1e-9) {
		t.Fatalf("8C32G hardware = %v", got)
	}
}

func TestNEP95thDailyPeak(t *testing.T) {
	peaks := []float64{10, 50, 30, 40, 20, 15, 35}
	// 4th highest of {50,40,35,30,...} = 30.
	if got := NEP95thDailyPeak(peaks); got != 30 {
		t.Fatalf("4th-highest = %v, want 30", got)
	}
	if got := NEP95thDailyPeak([]float64{7, 9}); got != 7 {
		t.Fatalf("short month peak = %v, want 7 (lowest available fallback)", got)
	}
	if NEP95thDailyPeak(nil) != 0 {
		t.Fatal("empty peaks should be 0")
	}
	// Input must not be mutated.
	if peaks[0] != 10 {
		t.Fatal("input mutated")
	}
}

func TestOperatorForSiteStable(t *testing.T) {
	a := OperatorForSite("Guangdong-01")
	if a != OperatorForSite("Guangdong-01") {
		t.Fatal("operator assignment not deterministic")
	}
	valid := map[string]bool{"telecom": true, "unicom": true, "cmcc": true}
	if !valid[a] {
		t.Fatalf("unknown operator %q", a)
	}
}

// --- dataset-level billing ---

var (
	once  sync.Once
	nep   *vm.Dataset
	usage *Usage
)

// trace returns the shared 50-app NEP trace and its billing usage.
func trace(t *testing.T) (*vm.Dataset, *Usage) {
	t.Helper()
	once.Do(func() {
		var err error
		nep, err = workload.GenerateNEP(rng.New(31), workload.Options{Apps: 50, Days: 14})
		if err != nil {
			panic(err)
		}
		usage = NewUsage(nep)
	})
	return nep, usage
}

func TestNEPAppBillsBasics(t *testing.T) {
	_, u := trace(t)
	bills := NEPAppBills(u)
	if len(bills) == 0 {
		t.Fatal("no bills")
	}
	for _, b := range bills {
		if b.Hardware <= 0 {
			t.Fatalf("app %d hardware = %v", b.App, b.Hardware)
		}
		if b.Network < 0 {
			t.Fatalf("app %d network negative", b.App)
		}
		if b.Total() != b.Hardware+b.Network {
			t.Fatal("total mismatch")
		}
	}
}

func TestTable6Shape(t *testing.T) {
	_, u := trace(t)
	rows := Table6(u, 30)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 clouds × 3 models", len(rows))
	}
	get := func(cloud string, m NetworkModel) Table6Row {
		for _, r := range rows {
			if r.Cloud == cloud && r.Model == m {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", cloud, m)
		return Table6Row{}
	}
	for _, cloud := range []string{"vCloud-1", "vCloud-2"} {
		bw := get(cloud, OnDemandBandwidth)
		qty := get(cloud, OnDemandQuantity)
		res := get(cloud, PreReserved)
		// Paper Table 6: clouds cost more on average under every model, and
		// on-demand-by-bandwidth is the cheapest cloud option, pre-reserved
		// the dearest.
		if bw.Mean <= 1 {
			t.Fatalf("%s by-bandwidth mean ratio = %.2f, want >1 (NEP cheaper)", cloud, bw.Mean)
		}
		if !(bw.Median <= qty.Median && qty.Median <= res.Median) {
			t.Fatalf("%s medians not ordered: bw %.2f, qty %.2f, reserved %.2f",
				cloud, bw.Median, qty.Median, res.Median)
		}
		if bw.Mean < 1.2 || bw.Mean > 4.5 {
			t.Fatalf("%s by-bandwidth mean = %.2f, paper reports ~1.8", cloud, bw.Mean)
		}
		if bw.N == 0 || bw.Max <= bw.Min {
			t.Fatalf("%s degenerate ratio spread", cloud)
		}
	}
	// Paper: a few apps are cheaper on the cloud (ratio < 1) — the
	// hardware-heavy or bursty exceptions.
	v1 := get("vCloud-1", OnDemandBandwidth)
	if v1.Min >= 1 && v1.CheaperOnCloud == 0 {
		t.Logf("note: no cloud-cheaper app in this sample (min ratio %.2f)", v1.Min)
	}
}

func TestBreakdownFindings(t *testing.T) {
	_, u := trace(t)
	b := Breakdown(u, 30)
	// Paper: network dominates NEP bills (76% mean, up to 96%).
	if b.MeanNetworkShare < 0.5 || b.MeanNetworkShare > 0.99 {
		t.Fatalf("mean network share = %.2f, want ~0.76", b.MeanNetworkShare)
	}
	if b.MaxNetworkShare < b.MeanNetworkShare {
		t.Fatal("max share below mean")
	}
	// Paper: NEP charges 3–20% more for hardware, so cloud/NEP < 1 on the
	// storage-exclusive (CPU+memory) comparison; with storage at the
	// published list prices (NEP 0.35 vs cloud 1.0 RMB/GB/month) the
	// all-inclusive ratio may land on either side of 1 for disk-heavy apps.
	if b.ComputeRatioCloudOverNEP >= 1 || b.ComputeRatioCloudOverNEP < 0.6 {
		t.Fatalf("compute ratio cloud/NEP = %.2f, want ~0.8-0.97", b.ComputeRatioCloudOverNEP)
	}
	if b.HardwareRatioCloudOverNEP <= 0 {
		t.Fatal("hardware ratio must be positive")
	}
}

func TestBurstyAppCheaperOnCloud(t *testing.T) {
	// Construct the paper's education counter-example directly: an app
	// whose traffic peaks 3 hours per day. NEP bills the daily peak; the
	// cloud's per-minute on-demand billing only pays for the window.
	d, u := trace(t)
	bills := NEPAppBills(u)
	cloud := CloudAppBills(u, VCloud1Hardware(), VCloud1Net(), OnDemandBandwidth)
	cloudBy := map[int]AppBill{}
	for _, b := range cloud {
		cloudBy[b.App] = b
	}
	// Find apps with extreme peak-to-mean traffic (education-like).
	apps := d.AppVMs()
	foundBursty := false
	var bw timeseries.Series
	for app, vms := range apps {
		var peak, mean float64
		for _, vi := range vms {
			peak += d.VMs[vi].BWSeries(&bw).MaxValue()
			mean += d.VMs[vi].MeanBW()
		}
		if mean == 0 || peak/mean < 8 {
			continue
		}
		foundBursty = true
		nb := bills[0]
		for _, b := range bills {
			if b.App == app {
				nb = b
			}
		}
		cb := cloudBy[app]
		// The network component must be relatively cheaper on the cloud
		// than for the average app.
		if nb.Network > 0 && cb.Network/nb.Network > 1.2 {
			t.Fatalf("bursty app %d: cloud network %.0f vs NEP %.0f — peak billing should hurt NEP",
				app, cb.Network, nb.Network)
		}
	}
	if !foundBursty {
		t.Skip("no education-like app in this sample")
	}
}

func TestNetworkModelString(t *testing.T) {
	if OnDemandBandwidth.String() == "" || OnDemandQuantity.String() == "" || PreReserved.String() == "" {
		t.Fatal("model names empty")
	}
}

// --- property tests on pricing invariants ---

func TestReservedMonotoneProperty(t *testing.T) {
	for _, c := range []CloudNetPricing{VCloud1Net(), VCloud2Net()} {
		if err := quick.Check(func(aRaw, bRaw uint16) bool {
			a := float64(aRaw%2000) / 10
			b := float64(bRaw%2000) / 10
			if a > b {
				a, b = b, a
			}
			return c.ReservedMonthly(a) <= c.ReservedMonthly(b)
		}, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestOnDemandMonotoneProperty(t *testing.T) {
	c := VCloud1Net()
	if err := quick.Check(func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%5000) / 10
		b := float64(bRaw%5000) / 10
		if a > b {
			a, b = b, a
		}
		return c.OnDemandHourly(a) <= c.OnDemandHourly(b)+1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNEP95thPeakBoundsProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		var peaks []float64
		for _, v := range raw {
			if v >= 0 && v < 1e9 {
				peaks = append(peaks, v)
			}
		}
		if len(peaks) == 0 {
			return true
		}
		got := NEP95thDailyPeak(peaks)
		mn, mx := peaks[0], peaks[0]
		for _, p := range peaks {
			if p < mn {
				mn = p
			}
			if p > mx {
				mx = p
			}
		}
		return got >= mn && got <= mx
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNEP95thPeakBelowMaxWhenEnoughDays(t *testing.T) {
	// With ≥4 distinct daily peaks the billed statistic must discard the
	// top three (the billing elasticity NEP grants its customers).
	peaks := []float64{100, 90, 80, 70, 60, 50}
	if got := NEP95thDailyPeak(peaks); got != 70 {
		t.Fatalf("4th-highest = %v, want 70", got)
	}
}

func TestCloudBillsScaleWithDuration(t *testing.T) {
	// A 7-day observation scaled to a month must cost the same as the same
	// usage observed for 14 days (both represent the same steady state).
	_, u := trace(t)
	bills := CloudAppBills(u, VCloud1Hardware(), VCloud1Net(), OnDemandQuantity)
	if len(bills) == 0 {
		t.Fatal("no bills")
	}
	for _, b := range bills {
		if b.Network < 0 {
			t.Fatal("negative network bill")
		}
	}
}

// TestRegionForProvinceLookupDoesNotAllocate: the province table is built
// once, not per call — Table 6 looks a region up for every (app, site).
func TestRegionForProvinceLookupDoesNotAllocate(t *testing.T) {
	for province, want := range map[string]string{"Beijing": "north", "Sichuan": "southwest", "Atlantis": "east"} {
		if got := regionForProvince(province); got != want {
			t.Fatalf("regionForProvince(%q) = %q, want %q", province, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		regionForProvince("Guangdong")
		regionForProvince("Atlantis")
	}); allocs != 0 {
		t.Fatalf("lookup allocates %v times", allocs)
	}
}

// fixed is a hand-built VM's Source: it replays the samples it holds.
type fixed struct{ s *timeseries.Series }

func (f fixed) Fill(dst *timeseries.Series) {
	copy(dst.Refill(f.s.Start, f.s.Interval, f.s.Len()), f.s.Values)
}

func (f fixed) Interval() time.Duration { return f.s.Interval }

// withBW builds v with the bandwidth samples bw (Mbps, 12-hourly) and an
// idle CPU series billing never reads.
func withBW(v vm.VM, bw ...float64) *vm.VM {
	cpu := timeseries.New(time.Time{}, 12*time.Hour, make([]float64, len(bw)))
	s := timeseries.New(time.Time{}, 12*time.Hour, bw)
	return vm.New(v, cpu, fixed{cpu}, s, fixed{s})
}

// TestUsageCombinesTrafficPerSiteAndRegion: NEP bills an app's combined
// traffic per site, and the virtual clouds its traffic merged per region.
// Two VMs that take turns at 100 Mbps over five days combine to a flat 100,
// so each group bills one 100 Mbps peak, not two.
func TestUsageCombinesTrafficPerSiteAndRegion(t *testing.T) {
	day, night := []float64{100, 0, 100, 0, 100, 0, 100, 0, 100, 0}, []float64{0, 100, 0, 100, 0, 100, 0, 100, 0, 100}
	small := vm.VM{VCPUs: 1, MemGB: 1, DiskGB: 1}
	at := func(app, site int) vm.VM { v := small; v.App, v.Site = app, site; return v }
	d := &vm.Dataset{
		Duration: 5 * 24 * time.Hour,
		Sites: []*vm.Site{
			{Name: "Guangdong-01", Province: "Guangdong"},
			{Name: "Beijing-01", Province: "Beijing"},
			{Name: "Shandong-01", Province: "Shandong"}, // north, like Beijing
		},
		VMs: []*vm.VM{
			withBW(at(0, 0), day...), withBW(at(1, 1), day...),
			withBW(at(0, 0), night...), withBW(at(1, 2), night...),
		},
	}
	u := NewUsage(d)
	unit := func(site int) Money {
		return NEPNetUnitPrice(d.Sites[site].Province, OperatorForSite(d.Sites[site].Name))
	}
	hw := 2 * NEPHardware().MonthlyHardware(1, 1, 1)
	want := []AppBill{
		{App: 0, Hardware: hw, Network: unit(0) * 100},
		{App: 1, Hardware: hw, Network: unit(1)*100 + unit(2)*100},
	}
	if got := NEPAppBills(u); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("NEP bills = %+v, want %+v", got, want)
	}
	net := VCloud1Net()
	cloud := CloudAppBills(u, VCloud1Hardware(), net, PreReserved)
	if len(cloud) != 2 || cloud[0].Network != net.ReservedMonthly(100) || cloud[1].Network != net.ReservedMonthly(100) {
		t.Fatalf("pre-reserved cloud bills = %+v, want one %v reservation each", cloud, net.ReservedMonthly(100))
	}
}

// --- the one-walk aggregate against the per-bill walks it replaced ---

// refNEPAppBills is the per-bill NEP walk NewUsage replaced, kept as the
// oracle: per app in ascending ID, each VM's hardware in VM order, and its
// bandwidth combined per site by a clone of the first VM's series and
// in-place adds of the rest, sites folded in ascending order.
func refNEPAppBills(d *vm.Dataset) []AppBill {
	hw := NEPHardware()
	apps := d.AppVMs()
	var out []AppBill
	for _, app := range sortedAppIDs(apps) {
		bill := AppBill{App: app}
		sites := map[int]*timeseries.Series{}
		for _, vi := range apps[app] {
			v := d.VMs[vi]
			bill.Hardware += hw.MonthlyHardware(v.VCPUs, v.MemGB, v.DiskGB)
			addTo(sites, v.Site, v)
		}
		for _, site := range slices.Sorted(maps.Keys(sites)) {
			peak := NEP95thDailyPeak(sites[site].DailyPeaks())
			unit := NEPNetUnitPrice(d.Sites[site].Province, OperatorForSite(d.Sites[site].Name))
			bill.Network += unit * peak
		}
		out = append(out, bill)
	}
	return out
}

// refCloudAppBills is refNEPAppBills for a virtual cloud: bandwidth
// combined per region, regions folded in ascending order.
func refCloudAppBills(d *vm.Dataset, hw HardwarePricing, net CloudNetPricing, model NetworkModel) []AppBill {
	apps := d.AppVMs()
	scale := monthScale(d.Duration)
	var out []AppBill
	for _, app := range sortedAppIDs(apps) {
		bill := AppBill{App: app}
		regions := map[string]*timeseries.Series{}
		for _, vi := range apps[app] {
			v := d.VMs[vi]
			bill.Hardware += hw.MonthlyHardware(v.VCPUs, v.MemGB, v.DiskGB)
			addTo(regions, regionForProvince(d.Sites[v.Site].Province), v)
		}
		for _, region := range slices.Sorted(maps.Keys(regions)) {
			bill.Network += cloudNetworkCost(regions[region], net, model, scale)
		}
		out = append(out, bill)
	}
	return out
}

// addTo folds v's bandwidth into m[key]: a fresh replay on first touch, an
// in-place add after.
func addTo[K comparable](m map[K]*timeseries.Series, key K, v *vm.VM) {
	bw := v.BWSeries(new(timeseries.Series))
	if acc, ok := m[key]; ok {
		acc.AddInPlace(bw)
		return
	}
	m[key] = bw
}

// TestUsageBillsMatchPerBillWalks: every bill priced from the one-walk
// Usage equals, field for field with ==, the bill the per-bill walk prices
// straight from the VMs' replayed bandwidth — on NEP and on both virtual
// clouds under all three network models, for the small and flash-crowd
// scenarios' NEP traces.
func TestUsageBillsMatchPerBillWalks(t *testing.T) {
	for _, name := range []string{"small", "flash-crowd"} {
		sp := scenario.MustGet(name)
		d, err := workload.GenerateNEP(rng.New(sp.Seed).Fork("nep-trace"), workload.NEPFromSpec(sp.Workload))
		if err != nil {
			t.Fatal(err)
		}
		u := NewUsage(d)
		same := func(what string, got, want []AppBill) {
			t.Helper()
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s %s: %d bills, reference %d", name, what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: bill %d = %+v, reference %+v", name, what, i, got[i], want[i])
				}
			}
		}
		same("NEP", NEPAppBills(u), refNEPAppBills(d))
		for _, c := range []struct {
			hw  HardwarePricing
			net CloudNetPricing
		}{{VCloud1Hardware(), VCloud1Net()}, {VCloud2Hardware(), VCloud2Net()}} {
			for _, model := range []NetworkModel{OnDemandBandwidth, OnDemandQuantity, PreReserved} {
				same(c.net.Name+"/"+model.String(), CloudAppBills(u, c.hw, c.net, model),
					refCloudAppBills(d, c.hw, c.net, model))
			}
		}
	}
}
