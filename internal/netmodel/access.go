// Package netmodel models the end-to-end network path between an end user
// and an edge or cloud site: per-hop latency and jitter, hop counts, access
// network profiles (WiFi / LTE / 5G / wired), packet loss, and achievable TCP
// throughput.
//
// The model is calibrated against the measurements the paper itself reports
// (median RTTs in Figure 2, the hop-level breakdown in Table 3, hop counts in
// Figure 3, and the throughput capacities quoted in §3.2), so that the
// crowd-sourced campaign run against this model reproduces the published
// shape: edges win on latency and jitter everywhere, but on throughput only
// where the last-mile capacity exceeds the wired bottleneck (5G downlink and
// wired access).
package netmodel

import (
	"fmt"

	"edgescope/internal/rng"
	"edgescope/internal/scenario"
)

// Access identifies the last-mile access network of an end user.
type Access int

// Access network types used in the paper's crowd campaign.
const (
	WiFi Access = iota
	LTE
	FiveG
	Wired
)

// String returns the conventional name of the access type.
func (a Access) String() string {
	switch a {
	case WiFi:
		return "WiFi"
	case LTE:
		return "LTE"
	case FiveG:
		return "5G"
	case Wired:
		return "wired"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// AllAccess lists the access types in presentation order.
func AllAccess() []Access { return []Access{WiFi, LTE, FiveG, Wired} }

// PickAccess draws a last-mile access network from a scenario's declared
// mix: exactly one weighted draw over the canonical WiFi/LTE/5G weight
// order, so a fixed source yields the same access sequence for the same
// mix regardless of which caller performs the draw. Wired access is never
// drawn here — it is a per-study override (throughput testers), not part
// of the volunteer population mix.
func PickAccess(r *rng.Source, m scenario.AccessMix) Access {
	switch r.Choice(m.Weights()) {
	case 0:
		return WiFi
	case 1:
		return LTE
	default:
		return FiveG
	}
}

// AccessProfile holds the latency, jitter and capacity characteristics of one
// access network type. Latencies are round-trip contributions in
// milliseconds; capacities are in Mbps.
type AccessProfile struct {
	// AccessHopMs is the median RTT contribution of the wireless (or local
	// wired) first hop; sampled log-normally with AccessHopSigma.
	AccessHopMs    float64
	AccessHopSigma float64
	// AccessJitterMs is the standard deviation of per-sample noise added by
	// the first hop.
	AccessJitterMs float64

	// AggHopMs is the median RTT contribution of the second hop. For LTE
	// this is the GTP-U tunnel, which aggregates several physical hops and
	// dominates the end-to-end latency (Table 3); for 5G it is the UPF.
	AggHopMs    float64
	AggHopSigma float64
	AggJitterMs float64

	// DownMbpsMedian / UpMbpsMedian are the median last-mile capacities,
	// sampled log-normally with CapSigma. The 5G uplink is strictly capped
	// by the asymmetric TDD slot ratio (Rel-15 TS 38.306), which UpCapMbps
	// enforces.
	DownMbpsMedian float64
	UpMbpsMedian   float64
	CapSigma       float64
	DownCapMbps    float64
	UpCapMbps      float64

	// ExtraLoss is the additional packet-loss probability contributed by the
	// access network.
	ExtraLoss float64
}

// profiles is calibrated to the paper's reported numbers; see package doc.
var profiles = map[Access]AccessProfile{
	WiFi: {
		AccessHopMs: 4.6, AccessHopSigma: 0.30, AccessJitterMs: 0.07,
		AggHopMs: 1.1, AggHopSigma: 0.25, AggJitterMs: 0.04,
		DownMbpsMedian: 55, UpMbpsMedian: 35, CapSigma: 0.45,
		DownCapMbps: 150, UpCapMbps: 100,
		ExtraLoss: 1.0e-6,
	},
	LTE: {
		AccessHopMs: 3.5, AccessHopSigma: 0.35, AccessJitterMs: 0.45,
		AggHopMs: 24.0, AggHopSigma: 0.30, AggJitterMs: 0.40,
		DownMbpsMedian: 35, UpMbpsMedian: 15, CapSigma: 0.45,
		DownCapMbps: 110, UpCapMbps: 60,
		ExtraLoss: 2.0e-6,
	},
	FiveG: {
		AccessHopMs: 2.5, AccessHopSigma: 0.25, AccessJitterMs: 0.05,
		AggHopMs: 4.2, AggHopSigma: 0.25, AggJitterMs: 0.06,
		DownMbpsMedian: 480, UpMbpsMedian: 50, CapSigma: 0.22,
		DownCapMbps: 900, UpCapMbps: 60, // TDD slot-ratio uplink cap
		ExtraLoss: 0.8e-6,
	},
	Wired: {
		AccessHopMs: 1.0, AccessHopSigma: 0.25, AccessJitterMs: 0.02,
		AggHopMs: 0.8, AggHopSigma: 0.25, AggJitterMs: 0.03,
		DownMbpsMedian: 480, UpMbpsMedian: 400, CapSigma: 0.20,
		DownCapMbps: 1000, UpCapMbps: 1000,
		ExtraLoss: 0.3e-6,
	},
}

// ProfileFor returns the calibrated profile for an access type. It panics on
// an unknown access type.
func ProfileFor(a Access) AccessProfile {
	p, ok := profiles[a]
	if !ok {
		panic(fmt.Sprintf("netmodel: unknown access type %d", int(a)))
	}
	return p
}
