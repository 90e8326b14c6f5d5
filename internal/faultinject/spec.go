package faultinject

// Spec declares a seeded fault plan: per-event probabilities for each fault
// kind, plus the spans that shape the time-extended faults. All rates are
// probabilities in [0,1]; a zero-value spec injects nothing and draws no
// randomness, exactly like a nil one. Chaos is a test input: the telemetry
// and cluster chaos tests build a Spec and drive an injector with it.
type Spec struct {
	// Seed seeds the fault plan's random stream. 0 derives it from the
	// scenario Seed (forked under "faultinject"), which is the common case:
	// one scenario seed pins the fault trace along with everything else.
	Seed uint64
	// Drop is the probability an offered event is silently dropped before
	// delivery (the retrying client's job to survive).
	Drop float64
	// Duplicate is the probability an event is delivered twice (the dedup
	// layer's job to fold once).
	Duplicate float64
	// Reorder is the probability an event is held back and re-delivered
	// after ReorderSpan subsequent events have passed it.
	Reorder float64
	// ReorderSpan is how many later events overtake a held-back one.
	// Default 4 when Reorder > 0.
	ReorderSpan int
	// Delay is like Reorder with its own (typically longer) span — a slow
	// network path rather than local jitter. Default span 16 when > 0.
	Delay float64
	// DelaySpan is the hold-back span for Delay faults.
	DelaySpan int
	// ShardStall is the per-event probability that the event's shard goes
	// unresponsive — every offer to it fails — for StallSpan events.
	ShardStall float64
	// StallSpan is the stall length in offered events. Default 32 when
	// ShardStall > 0.
	StallSpan int

	// Node-level faults (internal/faultinject.NodeInjector) shake a
	// telemetry *cluster* rather than a single pipeline: the target is the
	// node an event routes to, and spans are counted in offered events —
	// same determinism contract as the event-level faults above.

	// NodeCrash is the per-event probability that the event's target node
	// hard-crashes: it loses everything past its last fsync and refuses all
	// traffic for NodeCrashSpan events, then restarts via WAL recovery.
	NodeCrash float64
	// NodeCrashSpan is the outage length in offered events. Default 64
	// when NodeCrash > 0.
	NodeCrashSpan int
	// NodeStall is the per-event probability the target node stops
	// answering for NodeStallSpan events — alive, state intact, just
	// unresponsive (GC pause, overload).
	NodeStall float64
	// NodeStallSpan is the stall length in offered events. Default 32.
	NodeStallSpan int
	// NetPartition is the per-event probability the link between the
	// router and the event's target node is cut for NetPartitionSpan
	// events: sends and probes through the router fail, while the node
	// itself keeps running undamaged.
	NetPartition float64
	// NetPartitionSpan is the partition length in offered events. Default 64.
	NetPartitionSpan int

	// Handoff-phase faults (internal/faultinject.HandoffInjector) shake a
	// cluster *rebalance* rather than steady-state traffic: the target is
	// a partition handoff's source or destination node, probabilities are
	// per coordinator step, and spans are counted in steps — the same
	// determinism contract as above, applied to the migration plane.

	// HandoffKillGaining is the per-step probability (drawn at destination
	// rebuild steps) that the gaining node is hard-killed mid-transfer,
	// staying dead for HandoffSpan steps before WAL recovery.
	HandoffKillGaining float64
	// HandoffPartitionSource is the per-step probability (drawn at source
	// flush/fetch steps) that the coordinator loses the losing owner for
	// HandoffSpan steps — the node keeps running undamaged.
	HandoffPartitionSource float64
	// HandoffCrashRecover is the per-step probability (drawn at
	// destination rebuild steps) that the gaining node crashes and
	// immediately recovers from its WAL — the attempt fails, the retry
	// meets a node holding whatever the crash left durable.
	HandoffCrashRecover float64
	// HandoffSpan is the outage length in coordinator steps. Default 4.
	HandoffSpan int
}
