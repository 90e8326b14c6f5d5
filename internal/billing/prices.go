// Package billing implements the monetary-cost study of §4.5 and Appendix A:
// NEP's pricing (per-resource hardware rates and 95th-percentile-of-daily-
// peak network billing at province/operator-specific unit prices) and the
// two virtual cloud baselines (vCloud-1 ≈ AliCloud, vCloud-2 ≈ Huawei Cloud)
// with their three network billing models — pre-reserved fixed bandwidth,
// on-demand by bandwidth, and on-demand by traffic quantity. It reproduces
// Table 6 (cost ratios over the heaviest apps) and Table 7 (worked pricing
// examples).
package billing

import "math"

// Money is an amount in RMB.
type Money = float64

// HardwarePricing is the monthly price per resource unit. Cloud platforms
// sell CPU+memory bundles; the per-unit rates here are least-squares fits of
// the Appendix A bundle tables.
type HardwarePricing struct {
	PerVCPUMonth   Money
	PerMemGBMonth  Money
	PerDiskGBMonth Money
}

// MonthlyHardware prices one VM's hardware subscription for a month.
func (p HardwarePricing) MonthlyHardware(vcpus, memGB, diskGB int) Money {
	return p.PerVCPUMonth*float64(vcpus) +
		p.PerMemGBMonth*float64(memGB) +
		p.PerDiskGBMonth*float64(diskGB)
}

// NEPHardware returns NEP's published per-unit rates (Table 7).
func NEPHardware() HardwarePricing {
	return HardwarePricing{PerVCPUMonth: 65, PerMemGBMonth: 20, PerDiskGBMonth: 0.35}
}

// VCloud1Hardware approximates AliCloud's bundles (2C4G=187, 2C8G=240,
// 2C16G=318; storage 1/GB). NEP ends up charging 3–20% more for hardware,
// as §4.5 reports.
func VCloud1Hardware() HardwarePricing {
	return HardwarePricing{PerVCPUMonth: 70, PerMemGBMonth: 13, PerDiskGBMonth: 1.0}
}

// VCloud2Hardware approximates Huawei Cloud's bundles (1C1G=32.2,
// 2C4G=152.2, 2C8G=251.6; storage 0.7/GB).
func VCloud2Hardware() HardwarePricing {
	return HardwarePricing{PerVCPUMonth: 30, PerMemGBMonth: 25, PerDiskGBMonth: 0.7}
}

// CloudNetPricing parameterises a cloud's three network billing models.
type CloudNetPricing struct {
	Name string
	// On-demand by bandwidth: hourly per-Mbps rates below/above the 5 Mbps
	// tier boundary.
	HourlyLowPerMbps  Money
	HourlyHighPerMbps Money
	// On-demand by quantity.
	PerGB Money
	// Pre-reserved: cumulative monthly price for 1..5 Mbps, then per-Mbps
	// overage above 5.
	ReservedTier    [5]Money
	ReservedOverage Money
}

// VCloud1Net returns AliCloud's network price card (Appendix A).
func VCloud1Net() CloudNetPricing {
	return CloudNetPricing{
		Name:              "vCloud-1",
		HourlyLowPerMbps:  0.063,
		HourlyHighPerMbps: 0.248,
		PerGB:             0.8,
		ReservedTier:      [5]Money{23, 46, 71, 96, 125},
		ReservedOverage:   80,
	}
}

// VCloud2Net returns Huawei Cloud's network price card (Appendix A).
func VCloud2Net() CloudNetPricing {
	return CloudNetPricing{
		Name:              "vCloud-2",
		HourlyLowPerMbps:  0.063,
		HourlyHighPerMbps: 0.25,
		PerGB:             0.8,
		ReservedTier:      [5]Money{23, 46, 69, 92, 115}, // 23/Mbps flat ≤5
		ReservedOverage:   80,
	}
}

// ReservedMonthly prices a month of pre-reserved fixed bandwidth at mbps
// (rounded up to a whole Mbps).
//
// Worked examples (Table 7): vCloud-1 2 Mbps = 46, 7 Mbps = 125+2×80 = 285;
// vCloud-2 7 Mbps = 115+2×80 = 275.
func (c CloudNetPricing) ReservedMonthly(mbps float64) Money {
	if mbps <= 0 {
		return 0
	}
	n := int(math.Ceil(mbps))
	if n <= 5 {
		return c.ReservedTier[n-1]
	}
	return c.ReservedTier[4] + Money(n-5)*c.ReservedOverage
}

// OnDemandHourly prices one hour at the given instantaneous bandwidth:
// the first 5 Mbps at the low rate, the excess at the high rate.
//
// Worked example (Table 7): 2 Mbps × 720 h = 90.72 on vCloud-1; 7 Mbps ×
// 720 h = 586.8 on vCloud-2. (The paper's vCloud-1 7 Mbps example, 447.84,
// contains an arithmetic slip — it multiplies the low tier by 2 instead of
// 5; we implement the tariff as specified.)
func (c CloudNetPricing) OnDemandHourly(mbps float64) Money {
	if mbps <= 0 {
		return 0
	}
	low := math.Min(mbps, 5)
	high := math.Max(mbps-5, 0)
	return low*c.HourlyLowPerMbps + high*c.HourlyHighPerMbps
}

// QuantityCost prices transferred traffic by volume.
func (c CloudNetPricing) QuantityCost(gb float64) Money {
	if gb < 0 {
		return 0
	}
	return gb * c.PerGB
}

// NEPNetUnitPrice returns NEP's monthly per-Mbps price for a province and
// operator. Prices vary 15–50 RMB/Mbps/month by city and carrier (Table 7:
// guangzhou-telecom 50, chengdu-telecom 25, guangzhou-cmcc 30, chengdu-cmcc
// 15); unlisted combinations get a deterministic in-range rate.
func NEPNetUnitPrice(province, operator string) Money {
	known := map[string]Money{
		"Guangdong/telecom": 50,
		"Sichuan/telecom":   25,
		"Guangdong/cmcc":    30,
		"Sichuan/cmcc":      15,
	}
	if p, ok := known[province+"/"+operator]; ok {
		return p
	}
	// FNV-1a hash → [15,50], deterministic per (province, operator).
	var h uint64 = 14695981039346656037
	for _, b := range []byte(province + "/" + operator) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	base := Money(15 + h%36)
	if operator == "cmcc" && base > 30 {
		base -= 15 // CMCC runs 15–30 per Table 7
	}
	return base
}

// OperatorForSite deterministically assigns a carrier to a site, mirroring
// how NEP sites are hosted by one of the three national ISPs.
func OperatorForSite(siteName string) string {
	ops := []string{"telecom", "unicom", "cmcc"}
	var h uint64 = 1469598103934665603
	for _, b := range []byte(siteName) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return ops[h%3]
}

// NEP95thDailyPeak implements NEP's billing statistic: record the peak
// bandwidth of each day, then bill the 4th-highest daily peak of the month
// (the 95th percentile of ~30 daily values). With fewer than four days it
// falls back to the highest available peak.
func NEP95thDailyPeak(dailyPeaks []float64) float64 {
	if len(dailyPeaks) == 0 {
		return 0
	}
	s := append([]float64(nil), dailyPeaks...)
	// Descending selection of the 4th highest.
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] > s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	idx := 3
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
