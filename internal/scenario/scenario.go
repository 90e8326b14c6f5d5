// Package scenario is edgescope's declarative experiment-configuration
// layer: a Spec names one complete measurement scenario — who the users are
// and where they live, what last-mile networks they are on, how the probe
// campaign is scheduled, how big the NEP and cloud workload traces are, and
// how the QoE / prediction / billing studies are sized. Every experiment
// substrate (the crowd campaign, the workload traces) and every sized
// artifact derives its parameters from a Spec, so adding a new workload is a
// data change — register a built-in or load a JSON file — rather than a code
// change.
//
// The package is a leaf: it imports nothing from the rest of edgescope, so
// crowd, workload, netmodel and core can all consume Specs without cycles.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"regexp"
)

// Spec is one named, fully declarative experiment scenario. All fields are
// plain scalars, so a Spec round-trips JSON exactly and copies by value.
type Spec struct {
	// Name identifies the scenario (lowercase letters, digits, dashes). It
	// appears in CLI listings, BENCH.json entries and telemetry replays.
	Name string `json:"name"`
	// Notes is free-form documentation shown by listings.
	Notes string `json:"notes,omitempty"`
	// Seed is the root random seed; every substrate forks deterministically
	// from it, so (Spec, Seed) fully determines every artifact byte.
	Seed uint64 `json:"seed"`

	Crowd    CrowdSpec    `json:"crowd"`
	Workload WorkloadSpec `json:"workload"`
	Sizing   SizingSpec   `json:"sizing"`
}

// AccessMix weights the last-mile access networks of the user population.
// Weights must be non-negative and sum to ~1. The paper's measured mix was
// 59% WiFi / 34% LTE / 7% 5G.
type AccessMix struct {
	WiFi  float64 `json:"wifi"`
	LTE   float64 `json:"lte"`
	FiveG float64 `json:"five_g"`
}

// Weights returns the mix in canonical WiFi/LTE/5G draw order. Consumers
// must select with exactly one weighted draw over this slice so that a fixed
// random source yields the same access sequence for the same mix.
func (m AccessMix) Weights() []float64 { return []float64{m.WiFi, m.LTE, m.FiveG} }

// Sum returns the total weight.
func (m AccessMix) Sum() float64 { return m.WiFi + m.LTE + m.FiveG }

// IsZero reports an entirely unset mix (used to apply defaults).
func (m AccessMix) IsZero() bool { return m == AccessMix{} }

// CrowdSpec sizes the crowd-sourced measurement campaign: the user
// population and its geography, the access-network mix, and the probe
// schedule for both the ping (latency) and iperf (throughput) studies.
type CrowdSpec struct {
	// Users is the participant count of the latency campaign (paper: 158).
	Users int `json:"users"`
	// Repeats is the per-target ping count per user (paper: 30).
	Repeats int `json:"repeats"`
	// Mix weights the WiFi/LTE/5G split of the population.
	Mix AccessMix `json:"access_mix"`
	// CountyFraction is the probability that a user lives in a county-level
	// town 60–300 km outside the metro proper, and is therefore not
	// co-located with any site city (paper: 69% not co-located).
	CountyFraction float64 `json:"county_fraction"`

	// ThroughputUsers / ThroughputSites size the iperf campaign: a subset of
	// the volunteers measures down/uplink against one edge site per metro.
	ThroughputUsers int `json:"throughput_users"`
	ThroughputSites int `json:"throughput_sites"`
	// ServerMbps is the per-VM bandwidth allocation of the iperf servers
	// (the paper provisioned 1 Gbps VMs).
	ServerMbps float64 `json:"server_mbps"`
	// WiredShare is the fraction of throughput testers on wired access.
	WiredShare float64 `json:"wired_share"`
}

// WithDefaults fills unset fields with the paper's campaign parameters, the
// same defaults the crowd package has always applied: 158 users, 30 repeats,
// the 59/34/7 access mix, 0.7 county fraction, and the 25-user / 20-site /
// 1 Gbps / 20%-wired throughput study.
//
// Zero is ambiguous for CountyFraction and WiredShare — it is both the Go
// zero value and a legitimate scenario choice (everyone co-located; no
// wired testers) that Validate accepts. The tiebreak is whether the access
// mix is declared: a spec that declares its mix (every validated JSON spec
// and built-in does) is complete, and its zeros run as written; a partial
// convenience spec (mix unset, as tests and quickstarts build) gets the
// paper defaults for both.
func (c CrowdSpec) WithDefaults() CrowdSpec {
	declared := !c.Mix.IsZero()
	if c.Users == 0 {
		c.Users = 158
	}
	if c.Repeats == 0 {
		c.Repeats = 30
	}
	if !declared {
		c.Mix = AccessMix{WiFi: 0.59, LTE: 0.34, FiveG: 0.07}
	}
	if c.CountyFraction == 0 && !declared {
		c.CountyFraction = 0.7
	}
	if c.ThroughputUsers == 0 {
		c.ThroughputUsers = 25
	}
	if c.ThroughputSites == 0 {
		c.ThroughputSites = 20
	}
	if c.ServerMbps == 0 {
		c.ServerMbps = 1000
	}
	if c.WiredShare == 0 && !declared {
		c.WiredShare = 0.2
	}
	return c
}

// WorkloadSpec sizes the synthetic VM workload traces: how many apps
// subscribe to each platform and the trace horizon in days. Sampling
// cadence and the app-category mix stay platform defaults.
type WorkloadSpec struct {
	NEPApps   int `json:"nep_apps"`
	CloudApps int `json:"cloud_apps"`
	// NEPDays / CloudDays are the trace horizons. Use 28+ where the
	// prediction experiments need both daily and weekly cycles.
	NEPDays   int `json:"nep_days"`
	CloudDays int `json:"cloud_days"`
}

// SizingSpec bounds the derived studies that are neither crowd nor trace
// substrates: the inter-site RTT sample, QoE simulation depth, the
// prediction sweep, and the billing comparison.
type SizingSpec struct {
	// InterSitePairs is the Figure 4 inter-site RTT sample size.
	InterSitePairs int `json:"inter_site_pairs"`
	// QoESamples is the per-variant simulation count for Figures 6 and 7.
	QoESamples int `json:"qoe_samples"`
	// PredictVMs bounds the Holt-Winters sweep; LSTMVMs and LSTMEpochs bound
	// the (far dearer) LSTM sweep of Figure 14.
	PredictVMs int `json:"predict_vms"`
	LSTMVMs    int `json:"lstm_vms"`
	LSTMEpochs int `json:"lstm_epochs"`
	// BillingTopN is the number of top apps priced in Table 6.
	BillingTopN int `json:"billing_top_n"`
}

// nameRE pins scenario names to CLI- and filename-safe slugs.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate checks a complete Spec, returning one error that names every
// offending field (joined with errors.Join), so a bad JSON scenario reports
// all of its problems in a single run.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", field, fmt.Sprintf(format, args...)))
	}

	if s.Name == "" {
		bad("name", "must be set")
	} else if !nameRE.MatchString(s.Name) {
		bad("name", "%q must match %s", s.Name, nameRE)
	}

	c := s.Crowd
	if c.Users <= 0 {
		bad("crowd.users", "must be positive (got %d)", c.Users)
	}
	if c.Repeats <= 0 {
		bad("crowd.repeats", "must be positive (got %d)", c.Repeats)
	}
	for _, w := range []struct {
		field string
		v     float64
	}{
		{"crowd.access_mix.wifi", c.Mix.WiFi},
		{"crowd.access_mix.lte", c.Mix.LTE},
		{"crowd.access_mix.five_g", c.Mix.FiveG},
	} {
		if w.v < 0 || w.v > 1 || math.IsNaN(w.v) {
			bad(w.field, "weight %v outside [0,1]", w.v)
		}
	}
	if sum := c.Mix.Sum(); math.Abs(sum-1) > 0.01 {
		bad("crowd.access_mix", "weights sum to %v, want ~1", sum)
	}
	if c.CountyFraction < 0 || c.CountyFraction > 1 {
		bad("crowd.county_fraction", "%v outside [0,1]", c.CountyFraction)
	}
	if c.ThroughputUsers <= 0 {
		bad("crowd.throughput_users", "must be positive (got %d)", c.ThroughputUsers)
	} else if c.Users > 0 && c.ThroughputUsers > c.Users {
		// The iperf testers are a subset of the latency volunteers; a larger
		// count would silently clamp and the study would be smaller than
		// declared.
		bad("crowd.throughput_users", "%d exceeds crowd.users %d (testers reuse latency volunteers)",
			c.ThroughputUsers, c.Users)
	}
	if c.ThroughputSites <= 0 {
		bad("crowd.throughput_sites", "must be positive (got %d)", c.ThroughputSites)
	}
	if c.ServerMbps <= 0 {
		bad("crowd.server_mbps", "must be positive (got %v)", c.ServerMbps)
	}
	if c.WiredShare < 0 || c.WiredShare > 1 {
		bad("crowd.wired_share", "%v outside [0,1]", c.WiredShare)
	}

	w := s.Workload
	if w.NEPApps <= 0 {
		bad("workload.nep_apps", "must be positive (got %d)", w.NEPApps)
	}
	if w.CloudApps <= 0 {
		bad("workload.cloud_apps", "must be positive (got %d)", w.CloudApps)
	}
	if w.NEPDays <= 0 {
		bad("workload.nep_days", "must be positive (got %d)", w.NEPDays)
	}
	if w.CloudDays <= 0 {
		bad("workload.cloud_days", "must be positive (got %d)", w.CloudDays)
	}

	z := s.Sizing
	if z.InterSitePairs <= 0 {
		bad("sizing.inter_site_pairs", "must be positive (got %d)", z.InterSitePairs)
	}
	if z.QoESamples <= 0 {
		bad("sizing.qoe_samples", "must be positive (got %d)", z.QoESamples)
	}
	if z.PredictVMs <= 0 {
		bad("sizing.predict_vms", "must be positive (got %d)", z.PredictVMs)
	}
	if z.LSTMVMs <= 0 {
		bad("sizing.lstm_vms", "must be positive (got %d)", z.LSTMVMs)
	}
	if z.LSTMEpochs <= 0 {
		bad("sizing.lstm_epochs", "must be positive (got %d)", z.LSTMEpochs)
	}
	if z.BillingTopN <= 0 {
		bad("sizing.billing_top_n", "must be positive (got %d)", z.BillingTopN)
	}

	if len(errs) > 0 {
		return fmt.Errorf("scenario %q invalid: %w", s.Name, errors.Join(errs...))
	}
	return nil
}

// Clone returns an independent copy. Specs are all-scalar, so callers may
// mutate the clone (e.g. overriding Seed) without corrupting built-ins.
func (s *Spec) Clone() *Spec {
	cp := *s
	return &cp
}
