// Package faultinject is edgescope's deterministic chaos harness for the
// telemetry ingest path. An Injector wraps an offer function with a
// seed-driven fault plan (Spec): events are dropped,
// duplicated, held back and re-delivered out of order, or refused wholesale
// while a shard "stalls". Every fault is decided by a deterministic draw
// sequence over an rng.Source, so one seed pins the complete fault trace —
// the chaos tests assert byte-identical query answers against a clean run
// AND byte-identical traces across reruns.
//
// The injector deliberately lives outside internal/telemetry and speaks a
// type parameter instead of Envelope: the production ingest path never
// imports its own chaos harness, and the same machinery can shake any
// ordered event stream.
//
// Faults are expressed in event counts, not wall time: a "delay" holds an
// event until N later events have passed it, a "stall" refuses offers for N
// events. Tests therefore run at full speed and replays are exact — there
// is no clock anywhere in the plan.
package faultinject

import "fmt"

// Fault kinds as recorded in the trace.
const (
	KindDrop      = "drop"
	KindDuplicate = "duplicate"
	KindReorder   = "reorder"
	KindDelay     = "delay"
	KindStall     = "stall"
)

// Default spans applied when a rate is set but its span is zero.
const (
	defaultReorderSpan = 4
	defaultDelaySpan   = 16
	defaultStallSpan   = 32
)

// TraceEntry records one injected fault. Stall entries mark the trigger
// event; the refusals during the stall window are counted, not traced.
// Node is set by the node-level injector (NodeInjector), Shard by the
// event-level one — the trace schema is shared so a chaos run's full fault
// story lands in one stream.
type TraceEntry struct {
	Event uint64 `json:"event"`          // ordinal of the offered event (0-based)
	Kind  string `json:"kind"`           // one of the Kind constants
	Span  int    `json:"span,omitempty"` // hold-back / stall / outage length in events
	Shard int    `json:"shard,omitempty"`
	Node  string `json:"node,omitempty"`
}

func (t TraceEntry) String() string {
	if t.Node != "" {
		return fmt.Sprintf("#%d %s span=%d node=%s", t.Event, t.Kind, t.Span, t.Node)
	}
	return fmt.Sprintf("#%d %s span=%d shard=%d", t.Event, t.Kind, t.Span, t.Shard)
}

// Stats counts injected faults by kind.
type Stats struct {
	Offered    uint64 `json:"offered"`
	Dropped    uint64 `json:"dropped"`
	Duplicated uint64 `json:"duplicated"`
	Reordered  uint64 `json:"reordered"`
	Delayed    uint64 `json:"delayed"`
	Stalled    uint64 `json:"stalled"` // offers refused inside stall windows
	// HeldLost counts held-back (reorder/delay) events whose redelivery the
	// receiver refused (hard-full queue, shed). Offer already answered true
	// for these, so a nonzero count is real silent loss the hold-back path
	// caused — harnesses should assert it stays zero.
	HeldLost uint64 `json:"held_lost,omitempty"`
}

// held is an event in flight: taken out of order, re-delivered once the
// offered-event counter passes release.
type held[E any] struct {
	e       E
	release uint64
}

// Injector applies one fault plan to an event stream. Offer must be called
// from a single goroutine (the ingest client).
type Injector[E any] struct {
	p     plan // by name, not embedded: an event stream has no nodes to Block or RecoverAll
	held  []held[E]
	stall map[int]uint64 // shard → event index at which it recovers
	stats Stats          // guarded by p.mu
}

// New builds an injector for a fault plan. scenarioSeed seeds the draw
// stream when the plan does not pin its own Seed; the stream is forked
// under "faultinject" so the fault plan never perturbs the scenario's other
// substreams. A nil/zero-rate spec is valid and injects nothing — and draws
// nothing, so wiring an inactive injector through a pipeline leaves every
// byte of its output unchanged.
func New[E any](spec *Spec, scenarioSeed uint64) *Injector[E] {
	inj := &Injector[E]{stall: map[int]uint64{}}
	inj.p.init(spec, scenarioSeed, eventActive(spec), "faultinject")
	orDefault(&inj.p.spec.ReorderSpan, defaultReorderSpan)
	orDefault(&inj.p.spec.DelaySpan, defaultDelaySpan)
	orDefault(&inj.p.spec.StallSpan, defaultStallSpan)
	return inj
}

// Offer passes one event through the fault plan. deliver is the real send
// (e.g. Ingestor.Offer bound to the event); it may be invoked zero times
// (drop, hold-back), once, or twice (duplicate) — and held-back events are
// delivered during later Offer calls, after their span of successors.
//
// The return value is what the *client* observes: false means the send
// visibly failed (dropped, or the event's shard is stalled) and a retrying
// client should resend; true means the send was accepted — even when the
// plan is still holding the event, because a real network loses and delays
// silently, not with an error. shard routes stall faults; pass 0 when
// sharding is not meaningful.
func (inj *Injector[E]) Offer(e E, shard int, deliver func(E) bool) bool {
	p, spec := &inj.p, &inj.p.spec
	idx := p.tick()
	inj.flushHeld(idx+1, deliver)
	p.count(&inj.stats.Offered)
	if p.src == nil {
		return deliver(e)
	}
	if until, ok := inj.stall[shard]; ok {
		if idx < until {
			p.count(&inj.stats.Stalled)
			return false
		}
		delete(inj.stall, shard)
	}

	// One fixed draw order per event — drop, duplicate, reorder, delay,
	// stall — with zero-rate kinds skipped entirely (plan.draw).
	switch {
	case p.draw(spec.Drop):
		p.record(TraceEntry{Event: idx, Kind: KindDrop, Shard: shard}, &inj.stats.Dropped)
		return false
	case p.draw(spec.Duplicate):
		p.record(TraceEntry{Event: idx, Kind: KindDuplicate, Shard: shard}, &inj.stats.Duplicated)
		deliver(e) // the second delivery is the common return below
	case p.draw(spec.Reorder):
		p.record(TraceEntry{Event: idx, Kind: KindReorder, Span: spec.ReorderSpan, Shard: shard}, &inj.stats.Reordered)
		inj.held = append(inj.held, held[E]{e: e, release: idx + uint64(spec.ReorderSpan)})
		return true
	case p.draw(spec.Delay):
		p.record(TraceEntry{Event: idx, Kind: KindDelay, Span: spec.DelaySpan, Shard: shard}, &inj.stats.Delayed)
		inj.held = append(inj.held, held[E]{e: e, release: idx + uint64(spec.DelaySpan)})
		return true
	case p.draw(spec.ShardStall):
		p.record(TraceEntry{Event: idx, Kind: KindStall, Span: spec.StallSpan, Shard: shard}, &inj.stats.Stalled)
		inj.stall[shard] = idx + uint64(spec.StallSpan)
		// The trigger event itself is the stall's first casualty.
		return false
	}
	return deliver(e)
}

// flushHeld re-delivers held-back events whose span has elapsed by clock
// reading now. The original Offer already answered true for these, so a
// refused redelivery is silent loss — counted in Stats.HeldLost, never
// ignored.
func (inj *Injector[E]) flushHeld(now uint64, deliver func(E) bool) {
	if len(inj.held) == 0 {
		return
	}
	kept := inj.held[:0]
	for _, h := range inj.held {
		if h.release <= now {
			inj.redeliver(h.e, deliver)
		} else {
			kept = append(kept, h)
		}
	}
	inj.held = kept
}

// redeliver hands a held event back to the receiver, counting a refusal.
func (inj *Injector[E]) redeliver(e E, deliver func(E) bool) {
	if !deliver(e) {
		inj.p.count(&inj.stats.HeldLost)
	}
}

// Drain delivers every still-held event, in hold order. Call after the last
// Offer so no event is lost to an expiring test: hold-back faults delay,
// they never drop — but the receiver can still refuse a redelivery, and
// those refusals surface in Stats.HeldLost rather than vanishing.
func (inj *Injector[E]) Drain(deliver func(E) bool) {
	for _, h := range inj.held {
		inj.redeliver(h.e, deliver)
	}
	inj.held = inj.held[:0]
}

// Trace returns a copy of the fault trace so far, in injection order.
func (inj *Injector[E]) Trace() []TraceEntry { return inj.p.Trace() }

// Stats returns a copy of the fault counters.
func (inj *Injector[E]) Stats() Stats {
	inj.p.mu.Lock()
	defer inj.p.mu.Unlock()
	return inj.stats
}
