package probe

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
)

// VirtualPing samples count RTTs from a modelled path. It returns PingStats
// with loss applied per the path's loss rate.
func VirtualPing(r *rng.Source, path *netmodel.Path, count int) PingStats {
	var out PingStats
	VirtualPingInto(r, path, count, &out)
	return out
}

// VirtualPingInto is VirtualPing writing into a caller-owned PingStats: the
// RTT buffer is reused when its capacity suffices and allocated at exactly
// count capacity otherwise, so a steady-state probe loop allocates nothing.
// Draws are identical to VirtualPing's, probe-major: each probe's loss draw
// precedes its RTT sample draws, probes in sequence.
func VirtualPingInto(r *rng.Source, path *netmodel.Path, count int, out *PingStats) {
	if cap(out.RTTs) < count {
		out.RTTs = make([]float64, 0, count)
	}
	rtts := out.RTTs[:0]
	loss := path.LossRate
	for i := 0; i < count; i++ {
		if r.Bernoulli(loss) {
			continue
		}
		rtts = append(rtts, path.SampleRTT(r))
	}
	out.RTTs = rtts
}
