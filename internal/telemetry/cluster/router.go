package cluster

import (
	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
)

// Transport delivers one envelope to one node, returning whether the node
// acknowledged it. Implementations: HTTPNode.Ingest over the wire, a
// direct Ingestor.Offer in tests, or either wrapped in a fault injector.
type Transport func(node string, e telemetry.Envelope) bool

// RouterConfig tunes the routing ingest client.
type RouterConfig struct {
	// Retry is handed to the underlying telemetry.RetryClient — the same
	// bounded-backoff machinery the single-node client uses, now wrapped
	// around partition routing. Its dedup sequence numbers make resends
	// safe: one that lands twice folds once server-side.
	Retry telemetry.RetryConfig
	// Metrics is the registry the routing families (cluster_router_*)
	// register on and, unless Retry.Metrics names another registry, the
	// retry client's (telemetry_client_*). nil gets a private registry
	// nothing scrapes.
	Metrics *obs.Registry
}

// RouterStats counts routing decisions.
type RouterStats struct {
	// Routed counts envelopes delivered to their partition's owner.
	Routed uint64 `json:"routed"`
	// Unroutable counts attempts refused because the partition's owner was
	// marked down. The retry client backs off and retries these, so one
	// envelope can count several times while an outage lasts.
	Unroutable uint64 `json:"unroutable"`
	// Frozen counts attempts refused because the partition was mid-handoff
	// (its exact-cut freeze window); the retry client's backoff absorbs
	// the pause and redelivers after cutover.
	Frozen uint64 `json:"frozen,omitempty"`
	// DualWrites counts deliveries duplicated to the pending epoch's owner
	// during a migration's dual-write phase.
	DualWrites uint64 `json:"dual_writes,omitempty"`
	// Client is the underlying retry client's view (sent/retries/failed).
	Client telemetry.ClientStats `json:"client"`
}

// Router is the ingest front door: it maps each envelope's key to its
// partition and sends to the owning node — refusing outright while the
// health tracker has the owner marked down. Everything rides inside a
// telemetry.RetryClient, so refusals (a transport failure, a handoff
// freeze, the whole of an owner's outage) get bounded exponential backoff
// and per-key sequence numbers that make duplicates from retries fold away
// server-side. A partition's writes only ever land on its owner (and, mid-
// migration, the pending owner), which keeps each (window, key) rollup on
// one node and preserves single-node byte-identity at every epoch.
//
// Send/SendAll must be called from a single goroutine, like the
// RetryClient they wrap.
type Router struct {
	pm        *PartitionMap
	health    *HealthTracker
	transport Transport
	client    *telemetry.RetryClient

	routed     *obs.Counter
	unroutable *obs.Counter
	frozen     *obs.Counter
	dualWrites *obs.Counter
}

// NewRouter wires a routing client over a partition map, a health tracker
// and a node transport. src seeds the retry client's backoff jitter.
func NewRouter(pm *PartitionMap, health *HealthTracker, transport Transport, src *rng.Source, cfg RouterConfig) *Router {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry() // private: nothing scrapes it
	}
	r := &Router{
		pm: pm, health: health, transport: transport,
		routed:     cfg.Metrics.Counter("cluster_router_routed_total", "envelopes delivered to their partition owner"),
		unroutable: cfg.Metrics.Counter("cluster_router_unroutable_total", "send attempts refused because the partition's owner was marked down"),
		frozen:     cfg.Metrics.Counter("cluster_router_frozen_total", "send attempts refused during a partition's handoff freeze"),
		dualWrites: cfg.Metrics.Counter("cluster_router_dual_writes_total", "deliveries duplicated to the pending epoch's owner"),
	}
	if cfg.Retry.Metrics == nil {
		// The retry client under the router reports (telemetry_client_*) to
		// the router's registry unless the caller gave it one of its own.
		cfg.Retry.Metrics = cfg.Metrics
	}
	r.client = telemetry.NewRetryClient(r.route, src, cfg.Retry)
	return r
}

// route is the RetryClient's send function: one delivery attempt. Owner,
// freeze state and dual-write target are snapshotted atomically under one
// lock (PartitionMap.Route) before anything is transported — read
// piecemeal, an epoch activation could clear the dual map between the
// owner read and the dual check, and the envelope would be acked having
// landed only on the losing owner, whose copy the migrator then drops.
func (r *Router) route(e telemetry.Envelope) bool {
	p := r.pm.PartitionOf(e.Key())
	rt := r.pm.Route(p)
	if rt.Frozen {
		// Mid-handoff exact cut: refuse so the retry client backs off and
		// redelivers after cutover. Nothing may land on either side while
		// the pages are being shipped, or the page and the live write could
		// double-count.
		r.frozen.Inc()
		return false
	}
	if r.health.State(rt.Owner) == StateDown {
		// Only the health state machine — evidence over consecutive probes —
		// refuses a partition's traffic; a transport failure against an owner
		// still marked routable is just a false from deliver. Either way the
		// retry client backs off and resends, and nothing lands elsewhere.
		r.unroutable.Inc()
		return false
	}
	return r.deliver(p, rt, e)
}

// deliver transports one envelope to the partition's owner, duplicates it
// to the pending epoch's owner during a migration's dual-write phase, and
// guards the ack against a migration racing the delivery. The attempt only
// succeeds when every required copy acks: a false makes the retry client
// resend, and the per-key sequence numbers fold the duplicate away on
// whichever node already folded it — idempotent convergence instead of
// divergent copies.
func (r *Router) deliver(p int, rt RouteTarget, e telemetry.Envelope) bool {
	if !r.transport(rt.Owner, e) {
		return false
	}
	if rt.HasDual {
		// The snapshot saw the dual-write phase, so both epochs' owners must
		// ack. Once both have, the envelope is safe against any outcome:
		// activation keeps the pending owner's copy, rollback keeps the
		// current owner's.
		if !r.transport(rt.Dual, e) {
			return false
		}
		r.dualWrites.Inc()
		r.routed.Inc()
		return true
	}
	// No dual target when the snapshot was taken, so nothing guaranteed the
	// pending owner a copy. If a cutover or activation landed while the
	// envelope was in flight it may exist only on a node whose copy is
	// about to be dropped — refuse the ack and let the retry client
	// redeliver under the new routing state; sequence dedup folds the
	// duplicate on whichever node already folded it.
	if after := r.pm.Route(p); after.Owner != rt.Owner || after.HasDual {
		return false
	}
	r.routed.Inc()
	return true
}

// Send routes one envelope, retrying with backoff until acknowledged or
// the attempt budget is spent. Reports whether the envelope was acked.
func (r *Router) Send(e telemetry.Envelope) bool { return r.client.Send(e) }

// SendAll routes a batch in order, returning how many were acked.
func (r *Router) SendAll(events []telemetry.Envelope) int { return r.client.SendAll(events) }

// SeqState exposes the retry client's per-key sequence state (checkpoint
// support — see telemetry.RetryClient.SeqState).
func (r *Router) SeqState() []telemetry.SeqRecord { return r.client.SeqState() }

// RestoreSeqState seeds sequence numbering from a checkpoint.
func (r *Router) RestoreSeqState(recs []telemetry.SeqRecord) { r.client.RestoreSeqState(recs) }

// Stats returns a snapshot of routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Routed:     r.routed.Value(),
		Unroutable: r.unroutable.Value(),
		Frozen:     r.frozen.Value(),
		DualWrites: r.dualWrites.Value(),
		Client:     r.client.Stats(),
	}
}
