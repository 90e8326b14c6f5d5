package netmodel

import "edgescope/internal/rng"

// SiteClass distinguishes the destination datacenter type; it determines the
// provider-internal hop count (cloud DCs have deeper internal fabrics) and
// feeds the hop-count gap of Figure 3.
type SiteClass int

// Destination classes.
const (
	EdgeSite SiteClass = iota
	CloudSite
)

// String returns "edge" or "cloud".
func (c SiteClass) String() string {
	if c == EdgeSite {
		return "edge"
	}
	return "cloud"
}

// Hop is one hop of a path. BaseRTTMs is its round-trip latency
// contribution; JitterStdMs the standard deviation of per-sample noise it
// adds.
type Hop struct {
	BaseRTTMs   float64
	JitterStdMs float64
}

// Path is a modelled route from an end user to a destination site.
type Path struct {
	Hops []Hop
	// LossRate is the end-to-end packet-loss probability.
	LossRate float64
	// extraJitterStd models transit/peering congestion noise that is not
	// attributable to a single hop. It scales with the base RTT and is much
	// larger for cloud paths (which cross congested transit links) than for
	// edge paths terminating in nearby CDN PoPs — the mechanism behind the
	// ~5× jitter gap of Figure 2b.
	extraJitterStd float64
	// profile snapshot used when the path was built.
	profile AccessProfile
	// kern is the flattened sampling kernel; see finalize.
	kern pathKern
}

// pathKern is the struct-of-arrays view of the hop parameters that the
// sampling kernels walk: a path is built once and sampled many times, so the
// per-hop constants are flattened into dense float64 runs (one cache line
// holds eight hops' bases) and the per-sample invariants (base-RTT sum and
// its 80% truncation floor) are computed once instead of per draw.
type pathKern struct {
	base    []float64
	jitter  []float64
	baseSum float64 // cached BaseRTTMs(), summed in hop order
	floor   float64 // 0.8 * baseSum, SampleRTT's truncation floor
}

// finalize flattens the hop parameters into the sampling kernel. Builders
// call it after the hop slice is complete (and after any post-hoc hop
// adjustments); a Path assembled manually without finalize still samples
// correctly through the slow hop-walking paths.
func (p *Path) finalize() {
	n := len(p.Hops)
	flat := make([]float64, 2*n)
	k := pathKern{base: flat[:n:n], jitter: flat[n:]}
	for i, h := range p.Hops {
		k.base[i] = h.BaseRTTMs
		k.jitter[i] = h.JitterStdMs
		k.baseSum += h.BaseRTTMs
	}
	k.floor = 0.8 * k.baseSum
	p.kern = k
}

// Propagation and router constants calibrated to the paper (Fig 4 slope,
// Table 3 "rest" shares). RTT propagation is ~0.02 ms/km: fibre propagation
// with a typical path-inflation factor over great-circle distance.
const (
	rttPerKm         = 0.020 // ms RTT per km of great-circle distance
	metroHopMs       = 0.6
	backboneRouterMs = 0.45
	dcHopMs          = 0.30
	metroJitterMs    = 0.05
	backboneJitterMs = 0.05
	dcJitterMs       = 0.02
	lossPerBackbone  = 8e-7
	lossPerKm        = 1.5e-9
	lossBase         = 3e-7
	// Relative congestion-jitter factors (fraction of base RTT).
	edgeJitterFactor  = 0.008
	cloudJitterFactor = 0.045
)

// BuildPath constructs a path from a user to a site of the given class at
// the given great-circle distance, drawing per-path parameters from r.
// The same Path is then sampled many times (SampleRTT) to model repeated
// pings over a stable route.
func BuildPath(r *rng.Source, access Access, class SiteClass, distKm float64) *Path {
	if distKm < 0 {
		panic("netmodel: negative distance")
	}
	p := ProfileFor(access)
	var hops []Hop

	// The wireless (or local wired) first hop, then aggregation (the GTP-U
	// tunnel for LTE, the UPF for 5G).
	hops = append(hops, Hop{
		BaseRTTMs:   r.LogNormalMeanMedian(p.AccessHopMs, p.AccessHopSigma),
		JitterStdMs: p.AccessJitterMs,
	})
	hops = append(hops, Hop{
		BaseRTTMs:   r.LogNormalMeanMedian(p.AggHopMs, p.AggHopSigma),
		JitterStdMs: p.AggJitterMs,
	})

	// Metro hops: traffic always crosses the ISP's in-city core (the paper
	// notes NEP has "not generally sunk into cellular core networks").
	nMetro := 2 + r.IntN(2)
	for i := 0; i < nMetro; i++ {
		hops = append(hops, Hop{
			BaseRTTMs:   r.LogNormalMeanMedian(metroHopMs, 0.4),
			JitterStdMs: metroJitterMs,
		})
	}

	// Backbone hops: only when leaving the metro area. Hop count grows with
	// distance; propagation delay is spread across the backbone hops.
	nBackbone := 0
	if distKm > 30 {
		nBackbone = 2 + int(distKm/350) + r.IntN(2)
		if nBackbone > 9 {
			nBackbone = 9
		}
	}
	prop := rttPerKm * distKm
	for i := 0; i < nBackbone; i++ {
		base := r.LogNormalMeanMedian(backboneRouterMs, 0.4) + prop/float64(nBackbone)
		hops = append(hops, Hop{
			BaseRTTMs:   base,
			JitterStdMs: backboneJitterMs,
		})
	}
	if nBackbone == 0 && distKm > 0 {
		// Co-located: attribute residual propagation to the last metro hop.
		hops[len(hops)-1].BaseRTTMs += prop
	}

	// Provider-internal hops: clouds have deeper DC fabrics than the micro
	// datacenters of the edge platform.
	nDC := 1
	if class == CloudSite {
		nDC = 3 + r.IntN(2)
	}
	for i := 0; i < nDC; i++ {
		hops = append(hops, Hop{
			BaseRTTMs:   r.LogNormalMeanMedian(dcHopMs, 0.3),
			JitterStdMs: dcJitterMs,
		})
	}

	loss := lossBase + p.ExtraLoss + float64(nBackbone)*lossPerBackbone + distKm*lossPerKm
	path := &Path{
		Hops:     hops,
		LossRate: loss,
		profile:  p,
	}
	factor := edgeJitterFactor
	if class == CloudSite {
		factor = cloudJitterFactor
	}
	path.extraJitterStd = factor * path.BaseRTTMs()
	path.finalize()
	return path
}

// HopCount returns the total number of hops on the path.
func (p *Path) HopCount() int { return len(p.Hops) }

// BaseRTTMs returns the deterministic component of the path RTT.
func (p *Path) BaseRTTMs() float64 {
	if p.kern.base != nil {
		return p.kern.baseSum
	}
	var t float64
	for _, h := range p.Hops {
		t += h.BaseRTTMs
	}
	return t
}

// SampleRTT draws one end-to-end RTT sample in milliseconds: the base RTT
// plus independent per-hop jitter (truncated so the sample never drops below
// 80% of base, as queueing can only add delay beyond serialisation variance).
func (p *Path) SampleRTT(r *rng.Source) float64 {
	if p.kern.base == nil {
		return p.sampleRTTSlow(r)
	}
	rtt := r.Normal(0, p.extraJitterStd)
	base, jitter := p.kern.base, p.kern.jitter
	for i, b := range base {
		rtt += b + r.Normal(0, jitter[i])
	}
	if rtt < p.kern.floor {
		rtt = p.kern.floor
	}
	return rtt
}

// sampleRTTSlow is the hop-walking fallback for paths assembled without
// finalize (e.g. struct literals in tests). Same draws, same arithmetic.
func (p *Path) sampleRTTSlow(r *rng.Source) float64 {
	rtt := r.Normal(0, p.extraJitterStd)
	for _, h := range p.Hops {
		rtt += h.BaseRTTMs + r.Normal(0, h.JitterStdMs)
	}
	if floor := 0.8 * p.BaseRTTMs(); rtt < floor {
		rtt = floor
	}
	return rtt
}

// SampleRTTs fills dst with len(dst) end-to-end RTT samples. It is the
// batched form of SampleRTT: draw-for-draw identical to len(dst) sequential
// SampleRTT calls (probe-major order — all of sample i's per-hop draws
// before any of sample i+1's), with the per-sample overheads (field loads,
// kernel lookups) hoisted out of the loop.
func (p *Path) SampleRTTs(r *rng.Source, dst []float64) {
	if p.kern.base == nil {
		for i := range dst {
			dst[i] = p.sampleRTTSlow(r)
		}
		return
	}
	base, jitter := p.kern.base, p.kern.jitter
	extra, floor := p.extraJitterStd, p.kern.floor
	for i := range dst {
		rtt := r.Normal(0, extra)
		for k, b := range base {
			rtt += b + r.Normal(0, jitter[k])
		}
		if rtt < floor {
			rtt = floor
		}
		dst[i] = rtt
	}
}

// HopShare returns the fraction of the base RTT contributed by the 1st, 2nd,
// 3rd hop and the rest, matching the breakdown of Table 3.
func (p *Path) HopShare() (h1, h2, h3, rest float64) {
	total := p.BaseRTTMs()
	if total == 0 {
		return 0, 0, 0, 0
	}
	for i, h := range p.Hops {
		switch i {
		case 0:
			h1 = h.BaseRTTMs / total
		case 1:
			h2 = h.BaseRTTMs / total
		case 2:
			h3 = h.BaseRTTMs / total
		default:
			rest += h.BaseRTTMs / total
		}
	}
	return h1, h2, h3, rest
}
