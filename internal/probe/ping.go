// Package probe implements the measurement tools of the paper's methodology
// as "virtual" probes: a ping and an iperf3-like bulk transfer that sample
// internal/netmodel paths directly. The campaign in internal/crowd uses them
// to generate the >2M ping dataset in milliseconds of CPU time.
package probe

import "edgescope/internal/stats"

// PingStats summarises one ping run against a single destination.
type PingStats struct {
	// RTTs holds one entry per received reply, in milliseconds.
	RTTs []float64
}

// CV returns the RTT coefficient of variation, the paper's jitter metric.
func (p PingStats) CV() float64 { return stats.CV(p.RTTs) }
