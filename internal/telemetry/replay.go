package telemetry

import (
	"time"

	"edgescope/internal/crowd"
	"edgescope/internal/rng"
)

// Replay turns the paper's deterministic batch campaign into the streaming
// pipeline's input: each crowd observation becomes one Envelope with a
// synthetic, deterministic timestamp, and the stream is offered to an
// Ingestor in order from a single producer. With a Block-configured
// ingestor and a fixed shard count the whole pipeline is then deterministic
// end to end: each shard's queue receives its events in producer order, so
// every (window, key) sketch — and every query answer — is identical across
// runs, which is what lets tests pin streaming percentiles against the
// batch stats.Summary.

// Metric and kind names used by the replay emitters.
const (
	MetricRTT  = "rtt_ms"
	MetricHops = "hop_count"
	MetricTput = "tput_mbps"
	KindPing   = "ping"
	KindIperf  = "iperf"
)

// replayBase is the first replayed event's timestamp, 2021-10-01T00:00:00Z
// (the paper's measurement era); any fixed instant keeps replay
// deterministic.
var replayBase = time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)

// replaySpacing is the event-time gap between consecutive observations,
// spreading the campaign over multiple rollup windows.
const replaySpacing = 250 * time.Millisecond

// replayTS is the timestamp of the i-th replayed observation, Unix ms.
func replayTS(i int) int64 {
	return replayBase.Add(time.Duration(i) * replaySpacing).UnixMilli()
}

// latencyEnvelopes converts the i-th latency observation into its ping
// envelopes: the user's median RTT (MetricRTT) and hop count (MetricHops),
// dimensioned by the probed site's metro and the user's access network.
func latencyEnvelopes(o crowd.Observation, i int) [2]Envelope {
	ts := replayTS(i)
	return [2]Envelope{
		{
			V: SchemaVersion, TS: ts, Kind: KindPing, Metric: MetricRTT,
			User: o.UserID, Region: o.SiteMetro, Net: o.Access.String(),
			Target: o.Target.String(), Value: o.MedianRTTMs,
		},
		{
			V: SchemaVersion, TS: ts, Kind: KindPing, Metric: MetricHops,
			User: o.UserID, Region: o.SiteMetro, Net: o.Access.String(),
			Target: o.Target.String(), Value: float64(o.HopCount),
		},
	}
}

// LatencyEvents converts already-materialised latency observations into
// ping envelopes — the batch-side bridge used where the observation set
// already exists as a substrate (the ext-telemetry cross-check artifact).
// For event-at-a-time replay without materialising the campaign, use
// ReplayCampaignLatencyFunc.
func LatencyEvents(obs []crowd.Observation) []Envelope {
	out := make([]Envelope, 0, 2*len(obs))
	for i, o := range obs {
		es := latencyEnvelopes(o, i)
		out = append(out, es[0], es[1])
	}
	return out
}

// ReplayCampaignLatencyFunc drives the campaign's crowd.StreamLatency
// emission hook straight into a send function — an ingestor's Offer, a
// cluster router, an HTTP sender, a fault injector: each observation is
// measured, converted and sent one at a time, so the full campaign is never
// held in memory. The hook's randomness contract makes this produce exactly
// the envelopes LatencyEvents(campaign.RunLatency(r)) would, pinned by test,
// whatever the delivery path, so a clustered replay feeds every node exactly
// the stream a single process would have folded. The caller owns whatever
// flush or drain its transport needs.
func ReplayCampaignLatencyFunc(send func(Envelope) bool, c *crowd.Campaign, r *rng.Source) ReplayStats {
	var st ReplayStats
	i := 0
	c.StreamLatency(r, func(o crowd.Observation) {
		for _, e := range latencyEnvelopes(o, i) {
			st.Events++
			if send(e) {
				st.Accepted++
			} else {
				st.Dropped++
			}
		}
		i++
	})
	return st
}

// ThroughputEvents converts iperf observations into envelopes. Throughput
// observations carry no site metro, so the region dimension is the
// direction label — still a stable, queryable partition.
func ThroughputEvents(obs []crowd.ThroughputObs) []Envelope {
	out := make([]Envelope, 0, len(obs))
	for i, o := range obs {
		out = append(out, Envelope{
			V: SchemaVersion, TS: replayTS(i),
			Kind: KindIperf, Metric: MetricTput,
			User: o.UserID, Region: o.Dir.String(), Net: o.Access.String(),
			Value: o.Mbps,
		})
	}
	return out
}

// ReplayStats reports one replay pass.
type ReplayStats struct {
	Events   int `json:"events"`
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// Replay offers events to the ingestor in order from this goroutine and
// flushes, so rollups are fully settled on return. With a Block ingestor
// nothing is dropped and the resulting rollup state is deterministic for a
// fixed event stream and shard count.
func Replay(ing *Ingestor, events []Envelope) ReplayStats {
	st := ReplayFunc(ing.Offer, events)
	ing.Flush()
	return st
}

// ReplayFunc offers events in order to any send function — the transport-
// agnostic sibling of Replay. The caller owns its transport's flush.
func ReplayFunc(send func(Envelope) bool, events []Envelope) ReplayStats {
	st := ReplayStats{Events: len(events)}
	for _, e := range events {
		if send(e) {
			st.Accepted++
		} else {
			st.Dropped++
		}
	}
	return st
}
