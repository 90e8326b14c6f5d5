package faultinject

// Node-level fault kinds, as recorded in the trace.
const (
	KindNodeCrash    = "node_crash"
	KindNodeStall    = "node_stall"
	KindNetPartition = "net_partition"
	KindNodeRestart  = "node_restart"
)

// Default outage spans applied when a node-fault rate is set but its span
// is zero.
const (
	defaultNodeCrashSpan    = 64
	defaultNodeStallSpan    = 32
	defaultNetPartitionSpan = 64
)

// NodeStats counts injected node-level faults.
type NodeStats struct {
	Offered    uint64 `json:"offered"`
	Crashes    uint64 `json:"crashes"`
	Restarts   uint64 `json:"restarts"`
	Stalls     uint64 `json:"stalls"`
	Partitions uint64 `json:"partitions"`
	// Refused counts sends rejected because the target node was inside an
	// outage window (crashed, stalled or partitioned) — the failures a
	// retrying router must absorb.
	Refused uint64 `json:"refused"`
}

// NodeHooks connect the injector to the cluster under test. Both hooks run
// synchronously inside Send, on the sender's goroutine.
type NodeHooks struct {
	// Crash hard-kills a node — the SIGKILL double: in-memory state and
	// unsynced WAL bytes are gone; only what the node fsynced survives.
	Crash func(node string)
	// Restart brings a crashed node back (WAL/snapshot recovery). Called
	// once the outage span has elapsed, before the triggering delivery.
	Restart func(node string)
}

// NodeInjector applies a fault plan's node-level faults (crash, stall,
// network partition) to a cluster transport. Where Injector shakes the
// *event stream*, NodeInjector shakes the *membership*: a faulted node
// refuses every send for a span of events, and a crashed one additionally
// loses unsynced state through the Crash hook and comes back through
// Restart — the deterministic, event-counted double of kill -9 plus
// supervised restart.
//
// Send must be called from a single goroutine (the routing client);
// Blocked and the accessors may be called from others (a health prober).
// The same determinism contract as Injector holds: one seed pins the whole
// fault trace, and spans are event counts, so tests replay exactly with no
// clock anywhere. RecoverAll, Blocked and Trace come from the shared plan.
type NodeInjector struct {
	plan
	crash func(node string)
	stats NodeStats // guarded by plan.mu
}

// NewNode builds a node-level injector for a fault plan. scenarioSeed seeds
// the draw stream when the plan does not pin its own Seed; the stream is
// forked under "faultinject-node", independent of the event-level
// injector's fork, so the two planes can shake one run without perturbing
// each other's draws. A plan with no node-level rates injects nothing and
// draws nothing.
func NewNode(spec *Spec, scenarioSeed uint64, hooks NodeHooks) *NodeInjector {
	inj := &NodeInjector{crash: hooks.Crash}
	inj.init(spec, scenarioSeed, nodeActive(spec), "faultinject-node")
	inj.reviveKind, inj.revive = KindNodeCrash, hooks.Restart
	inj.revivedKind, inj.revived = KindNodeRestart, &inj.stats.Restarts
	orDefault(&inj.spec.NodeCrashSpan, defaultNodeCrashSpan)
	orDefault(&inj.spec.NodeStallSpan, defaultNodeStallSpan)
	orDefault(&inj.spec.NetPartitionSpan, defaultNetPartitionSpan)
	return inj
}

// Send passes one delivery to node through the fault plan. deliver performs
// the real send; it runs exactly once unless the node is inside an outage
// window or becomes the trigger of a new one (then it is skipped and Send
// returns false, the router's cue to retry or fail over). A crash trigger
// fires hooks.Crash before refusing; an elapsed crash window fires
// hooks.Restart before the delivery is attempted.
func (inj *NodeInjector) Send(node string, deliver func() bool) bool {
	idx := inj.tick()
	inj.count(&inj.stats.Offered)
	if inj.src == nil {
		return deliver()
	}
	if _, down := inj.outageAt(node, idx); down {
		inj.count(&inj.stats.Refused)
		return false
	}

	// One fixed draw order per send — crash, stall, partition — with
	// zero-rate kinds skipped entirely (plan.draw).
	spec := &inj.spec
	switch {
	case inj.draw(spec.NodeCrash):
		inj.strike(idx, KindNodeCrash, spec.NodeCrashSpan, node, &inj.stats.Crashes)
		if inj.crash != nil {
			inj.crash(node)
		}
	case inj.draw(spec.NodeStall):
		inj.strike(idx, KindNodeStall, spec.NodeStallSpan, node, &inj.stats.Stalls)
	case inj.draw(spec.NetPartition):
		inj.strike(idx, KindNetPartition, spec.NetPartitionSpan, node, &inj.stats.Partitions)
	default:
		return deliver()
	}
	return false
}

// Stats returns a copy of the node-fault counters.
func (inj *NodeInjector) Stats() NodeStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}
