package cluster

import (
	"context"
	"slices"
	"sync"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
)

// Transport delivers one envelope to one node, returning whether the node
// acknowledged it. Implementations: a direct Ingestor.Offer in tests, or one
// wrapped in a fault injector. A router reads it through its Leg adapter.
type Transport func(node string, e telemetry.Envelope) bool

// Leg delivers a run of envelopes to one node in one request and returns how
// many of them the node acknowledged. A count short of len(events) does not
// say which ones landed: the router resends the whole run, one envelope at a
// time under the sequence numbers its producer gave it, and the node's
// sequence dedup folds once what had landed of a sequenced envelope.
// Implementations: HTTPNode.IngestBatch (one JSONL POST, carrying ctx's
// request id), or a Transport adapted by Transport.Leg. Legs run
// concurrently, to different nodes and, from concurrent requests, to one
// node, so a Leg must be safe for that.
type Leg func(ctx context.Context, node string, events []telemetry.Envelope) int

// Leg adapts a per-envelope transport to a Leg: the run is delivered in
// order, and the first refusal ends it.
func (t Transport) Leg() Leg {
	return func(_ context.Context, node string, events []telemetry.Envelope) int {
		for i, e := range events {
			if !t(node, e) {
				return i
			}
		}
		return len(events)
	}
}

// RouterConfig tunes the routing ingest client.
type RouterConfig struct {
	// Retry is handed to the underlying telemetry.RetryClient — the same
	// bounded-backoff machinery the single-node client uses, now wrapped
	// around partition routing. A producer's sequence numbers make its
	// resends safe: one that lands twice folds once server-side.
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
// health tracker has the owner marked down. A batch (SendAll) is shipped as
// one leg per owner; whatever a leg does not settle, and every envelope of a
// partition that is frozen, in its dual-write phase or owned by a down node,
// takes the per-envelope path. That path rides inside a
// telemetry.RetryClient, so refusals (a transport failure, a handoff
// freeze, the whole of an owner's outage) get bounded exponential backoff.
// The router numbers nothing: every envelope goes out under the Seq its
// producer gave it, so a sequenced producer's resends fold away
// server-side and an unsequenced one is at-least-once across a resend, as
// against a single node. A partition's writes only ever land on its owner
// (and, mid-migration, the pending owner), which keeps each (window, key)
// rollup on one node and preserves single-node byte-identity at every
// epoch.
//
// A Router is safe for concurrent use: concurrent Send and SendAll calls
// plan and run their legs in parallel.
type Router struct {
	pm     *PartitionMap
	health *HealthTracker
	leg    Leg
	client *telemetry.RetryClient

	routed     *obs.Counter
	unroutable *obs.Counter
	frozen     *obs.Counter
	dualWrites *obs.Counter
	legs       *obs.CounterVec
	legSize    *obs.Histogram
}

// legSizeBuckets bound the envelopes-per-leg histogram: 1 (the per-envelope
// path) up to 4096, one request's decode chunk on a node.
var legSizeBuckets = obs.ExpBuckets(1, 2, 13)

// NewRouter wires a routing client over a partition map, a health tracker
// and a per-envelope node transport, which carries the batch legs too
// (Transport.Leg). src seeds the retry client's backoff jitter.
func NewRouter(pm *PartitionMap, health *HealthTracker, transport Transport, src *rng.Source, cfg RouterConfig) *Router {
	return NewLegRouter(pm, health, transport.Leg(), src, cfg)
}

// NewLegRouter is NewRouter over a batch leg: one request per owner per
// SendAll, and a one-envelope run for each per-envelope attempt.
func NewLegRouter(pm *PartitionMap, health *HealthTracker, leg Leg, src *rng.Source, cfg RouterConfig) *Router {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry() // private: nothing scrapes it
	}
	r := &Router{
		pm: pm, health: health, leg: leg,
		routed:     cfg.Metrics.Counter("cluster_router_routed_total", "envelopes delivered to their partition owner"),
		unroutable: cfg.Metrics.Counter("cluster_router_unroutable_total", "send attempts refused because the partition's owner was marked down"),
		frozen:     cfg.Metrics.Counter("cluster_router_frozen_total", "send attempts refused during a partition's handoff freeze"),
		dualWrites: cfg.Metrics.Counter("cluster_router_dual_writes_total", "deliveries duplicated to the pending epoch's owner"),
		legs:       cfg.Metrics.CounterVec("cluster_router_legs_total", "ingest requests sent to a node: one per owner per batch, one per per-envelope attempt", "node"),
		legSize:    cfg.Metrics.Histogram("cluster_router_leg_envelopes", "envelopes carried by one ingest leg", legSizeBuckets),
	}
	if cfg.Retry.Metrics == nil {
		// The retry client under the router reports (telemetry_client_*) to
		// the router's registry unless the caller gave it one of its own.
		cfg.Retry.Metrics = cfg.Metrics
	}
	r.client = telemetry.NewRetryClient(func(e telemetry.Envelope) bool {
		return r.route(context.Background(), e)
	}, src, cfg.Retry)
	return r
}

// send runs one leg and counts it.
func (r *Router) send(ctx context.Context, node string, events []telemetry.Envelope) int {
	r.legs.With(node).Inc()
	r.legSize.Observe(float64(len(events)))
	return r.leg(ctx, node, events)
}

// sendOne runs a one-envelope leg.
func (r *Router) sendOne(ctx context.Context, node string, e telemetry.Envelope) bool {
	return r.send(ctx, node, []telemetry.Envelope{e}) == 1
}

// route is one delivery attempt, the retry client's unit. Owner,
// freeze state and dual-write target are snapshotted atomically under one
// lock (PartitionMap.Route) before anything is transported — read
// piecemeal, an epoch activation could clear the dual map between the
// owner read and the dual check, and the envelope would be acked having
// landed only on the losing owner, whose copy the migrator then drops.
func (r *Router) route(ctx context.Context, e telemetry.Envelope) bool {
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
	return r.deliver(ctx, p, rt, e)
}

// deliver transports one envelope to the partition's owner, duplicates it
// to the pending epoch's owner during a migration's dual-write phase, and
// guards the ack against a migration racing the delivery. The attempt only
// succeeds when every required copy acks: a false makes the retry client
// resend, and a sequenced envelope's number folds the duplicate away on
// whichever node already folded it — idempotent convergence instead of
// divergent copies.
func (r *Router) deliver(ctx context.Context, p int, rt RouteTarget, e telemetry.Envelope) bool {
	if !r.sendOne(ctx, rt.Owner, e) {
		return false
	}
	if rt.HasDual {
		// The snapshot saw the dual-write phase, so both epochs' owners must
		// ack. Once both have, the envelope is safe against any outcome:
		// activation keeps the pending owner's copy, rollback keeps the
		// current owner's.
		if !r.sendOne(ctx, rt.Dual, e) {
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
	// redeliver under the new routing state; sequence dedup folds a
	// sequenced duplicate on whichever node already folded it.
	if after := r.pm.Route(p); after.Owner != rt.Owner || after.HasDual {
		return false
	}
	r.routed.Inc()
	return true
}

// Send routes one envelope, retrying with backoff until acknowledged or
// the attempt budget is spent. Reports whether the envelope was acked.
func (r *Router) Send(e telemetry.Envelope) bool { return r.client.Send(e) }

// SendAll is SendAllContext without a request id.
func (r *Router) SendAll(events []telemetry.Envelope) int {
	return r.SendAllContext(context.Background(), events)
}

// SendAllContext routes a batch and returns how many envelopes were acked;
// every node leg carries ctx (and so its request id, see WithRequestID).
// The batch is grouped by owner, each owner's share keeping its order, from
// one route snapshot per partition (PartitionMap.Route); each share goes
// out as one leg, the legs to different owners concurrently. An envelope
// then takes the per-envelope path when its partition is frozen, in its
// dual-write phase or owned by a node marked down; when its leg failed or
// acked short; or when its partition's route changed while the leg was in
// flight. Those resends go in batch order once every leg is back, so a
// key's envelopes reach its owner in order, and sequence dedup folds once
// whatever a short leg had already landed of a sequenced envelope.
func (r *Router) SendAllContext(ctx context.Context, events []telemetry.Envelope) int {
	b := planPool.Get().(*batchPlan)
	defer planPool.Put(b)
	defer b.reset()
	b.plan(r, events)
	r.client.Handed(len(events))
	if len(b.legs) > 0 {
		var wg sync.WaitGroup
		for _, l := range b.legs[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.acked = r.send(ctx, l.node, l.events)
			}()
		}
		b.legs[0].acked = r.send(ctx, b.legs[0].node, b.legs[0].events)
		wg.Wait()
	}
	acked := 0
	for _, l := range b.legs {
		if l.acked < len(l.events) {
			b.resend = append(b.resend, l.at...)
			continue
		}
		landed := len(l.events)
		for i, p := range l.parts {
			// The same guard deliver applies: no dual target at the
			// snapshot, so a cutover or activation that landed meanwhile
			// may leave the copy only on a node about to drop it.
			if after := r.pm.Route(p); after.Owner != l.node || after.HasDual {
				b.resend = append(b.resend, l.at[i])
				landed--
			}
		}
		r.routed.Add(uint64(landed))
		acked += landed
	}
	slices.Sort(b.resend)
	for _, i := range b.resend {
		e := events[i]
		if r.client.Deliver(func() bool { return r.route(ctx, e) }) {
			acked++
		}
	}
	return acked
}

// planPool recycles SendAll's working memory: one plan per call in flight.
var planPool = sync.Pool{New: func() any {
	return &batchPlan{routes: map[int]string{}, byNode: map[string]*batchLeg{}}
}}

// batchPlan is one SendAll's grouping: the decision taken per partition it
// touches (its owner when the partition takes a batch leg, "" when it takes
// the per-envelope path), the legs of the owners it touches, and the
// envelopes (by batch index) bound for the per-envelope path. byNode keeps
// one leg per node ever routed to, so its buffers are reused across
// batches.
type batchPlan struct {
	routes map[int]string
	legs   []*batchLeg
	byNode map[string]*batchLeg
	resend []int
}

// batchLeg is one owner's share of a batch: its envelopes in batch order,
// each one's partition and batch index, and what the owner acked.
type batchLeg struct {
	node   string
	events []telemetry.Envelope
	parts  []int
	at     []int
	acked  int
}

// plan deals events out: envelopes of a partition that may not take a batch
// leg go to resend, the rest to their owner's leg.
func (b *batchPlan) plan(r *Router, events []telemetry.Envelope) {
	for i, e := range events {
		p := r.pm.PartitionOf(e.Key())
		owner, ok := b.routes[p]
		if !ok {
			if rt := r.pm.Route(p); !rt.Frozen && !rt.HasDual && r.health.State(rt.Owner) != StateDown {
				owner = rt.Owner
			}
			b.routes[p] = owner
		}
		if owner == "" {
			b.resend = append(b.resend, i)
			continue
		}
		l := b.byNode[owner]
		if l == nil {
			l = &batchLeg{node: owner}
			b.byNode[owner] = l
		}
		if len(l.events) == 0 {
			b.legs = append(b.legs, l)
		}
		l.events = append(l.events, e)
		l.parts = append(l.parts, p)
		l.at = append(l.at, i)
	}
}

// reset empties the plan for the next batch, keeping its buffers but no
// envelope: a reused buffer must not pin a finished batch's strings.
func (b *batchPlan) reset() {
	clear(b.routes)
	for _, l := range b.legs {
		clear(l.events)
		l.events, l.parts, l.at, l.acked = l.events[:0], l.parts[:0], l.at[:0], 0
	}
	clear(b.legs)
	b.legs, b.resend = b.legs[:0], b.resend[:0]
}

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
