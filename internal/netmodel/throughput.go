package netmodel

import (
	"math"

	"edgescope/internal/rng"
)

// Direction of a throughput measurement relative to the end user.
type Direction int

// Measurement directions.
const (
	Downlink Direction = iota
	Uplink
)

// String returns "down" or "up".
func (d Direction) String() string {
	if d == Downlink {
		return "down"
	}
	return "up"
}

// Mathis TCP-throughput model constants: throughput <= (MSS/RTT) * C/sqrt(p)
// (Mathis et al., CCR 1997), the same macroscopic model the paper invokes to
// explain why throughput correlates with distance only when the last-mile
// capacity is high.
const (
	mssBits = 1460 * 8
	mathisC = 1.22
	minLoss = 1e-8
)

// MathisThroughputMbps returns the loss-and-RTT-bound TCP throughput in Mbps
// for the given RTT (ms) and loss probability.
func MathisThroughputMbps(rttMs, loss float64) float64 {
	if rttMs <= 0 {
		return math.Inf(1)
	}
	if loss < minLoss {
		loss = minLoss
	}
	bps := float64(mssBits) / (rttMs / 1000) * mathisC / math.Sqrt(loss)
	return bps / 1e6
}

// SampleThroughput models one 15-second bulk TCP transfer over the path with
// a server whose allocated egress is serverMbps (<=0 means unconstrained).
// The achieved rate is the minimum of the last-mile capacity, the
// Mathis-bound WAN throughput, and the server allocation, with multiplicative
// measurement noise.
func (p *Path) SampleThroughput(r *rng.Source, dir Direction, serverMbps float64) float64 {
	prof := p.profile
	var median, cap float64
	if dir == Downlink {
		median, cap = prof.DownMbpsMedian, prof.DownCapMbps
	} else {
		median, cap = prof.UpMbpsMedian, prof.UpCapMbps
	}
	access := r.LogNormalMeanMedian(median, prof.CapSigma)
	if access > cap {
		access = cap
	}

	rtt := p.SampleRTT(r)
	wan := MathisThroughputMbps(rtt, p.LossRate)

	got := min(access, wan)
	if serverMbps > 0 && serverMbps < got {
		got = serverMbps
	}
	// Protocol efficiency and measurement noise: a log-normal around the
	// 0.94 efficiency median via the shared helper (bit-identical to the
	// inline 0.94 * exp(Normal(0, 0.05)) it replaces).
	return got * r.LogNormalMeanMedian(0.94, 0.05)
}
