package netmodel

import "edgescope/internal/rng"

// BuildSunkPath models the paper's §3.1/§5 recommendation taken to its
// conclusion: edge resources sunk into the ISP's access aggregation point
// (Mobile Edge Computing). The path collapses to the access hop, the
// aggregation hop, and a single in-site hop — no metro core, no backbone.
// Comparing SampleRTT on these paths against regular EdgeSite paths
// quantifies how much of today's NEP latency is recoverable by sinking.
func BuildSunkPath(r *rng.Source, access Access) *Path {
	p := ProfileFor(access)
	hops := []Hop{
		{ // wireless / local first hop
			BaseRTTMs:   r.LogNormalMeanMedian(p.AccessHopMs, p.AccessHopSigma),
			JitterStdMs: p.AccessJitterMs,
		},
		{ // aggregation (GTP-U tunnel for LTE, UPF for 5G)
			BaseRTTMs:   r.LogNormalMeanMedian(p.AggHopMs, p.AggHopSigma),
			JitterStdMs: p.AggJitterMs,
		},
		{ // the one in-site hop
			BaseRTTMs:   r.LogNormalMeanMedian(dcHopMs, 0.3),
			JitterStdMs: dcJitterMs,
		},
	}
	path := &Path{
		Hops:     hops,
		LossRate: lossBase + p.ExtraLoss,
		profile:  p,
	}
	path.extraJitterStd = edgeJitterFactor * path.BaseRTTMs()
	path.finalize()
	return path
}
