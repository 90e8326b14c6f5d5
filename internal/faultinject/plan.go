package faultinject

import (
	"sort"
	"sync"

	"edgescope/internal/rng"
)

// outage is one node's current fault window.
type outage struct {
	kind  string
	until uint64 // first event index at which the node is back
}

// plan is the core under all three injectors: the resolved seed and its
// forked draw stream, the event-counted clock, the per-node outage table
// and the trace. The fronts (Injector, NodeInjector, HandoffInjector) keep
// only what differs between planes — which kinds they draw in which order,
// their hooks and their counters — so the determinism contract (one seed
// pins the whole trace; spans are event counts, no clock anywhere) is
// implemented once.
//
// The front's driving method (Offer, Send, Step) must be called from a
// single goroutine; everything behind mu may be read from others.
type plan struct {
	spec Spec
	seed uint64
	src  *rng.Source // nil when the plane has no rate set: nothing is drawn

	// The one outage kind whose expiry brings the node back through a hook:
	// a reviveKind window that elapses calls revive, then traces
	// revivedKind (counted in *revived when non-nil).
	reviveKind, revivedKind string
	revive                  func(node string)
	revived                 *uint64

	mu      sync.Mutex // guards everything below and the front's counters
	idx     uint64     // events offered so far
	outages map[string]outage
	trace   []TraceEntry
}

// init resolves the plan's seed — the spec's own Seed, else scenarioSeed —
// and, when the plane is active, forks its draw stream under fork, so no
// plane perturbs another's draws or the scenario's other substreams. An
// inactive plane gets no stream at all: it injects nothing and draws
// nothing, so wiring it through a pipeline leaves every byte unchanged.
func (p *plan) init(spec *Spec, scenarioSeed uint64, active bool, fork string) {
	if spec != nil {
		p.spec = *spec
	}
	p.seed = p.spec.Seed
	if p.seed == 0 {
		p.seed = scenarioSeed
	}
	if active {
		p.src = rng.New(p.seed).Fork(fork)
	}
	p.outages = map[string]outage{}
}

// eventActive reports whether the plan can inject anything at all on the
// event plane; nodeActive and handoffActive whether it carries any
// node-level or handoff-phase fault. Inactive plans (nil or all-zero rates)
// draw no randomness.
func eventActive(f *Spec) bool {
	return f != nil && (f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 ||
		f.Delay > 0 || f.ShardStall > 0 || nodeActive(f))
}

func nodeActive(f *Spec) bool {
	return f != nil && (f.NodeCrash > 0 || f.NodeStall > 0 || f.NetPartition > 0)
}

func handoffActive(f *Spec) bool {
	return f != nil && (f.HandoffKillGaining > 0 || f.HandoffPartitionSource > 0 || f.HandoffCrashRecover > 0)
}

// orDefault applies def to a span left zero.
func orDefault(span *int, def int) {
	if *span == 0 {
		*span = def
	}
}

// tick advances the clock and returns the ordinal of the event being
// decided, after closing every outage that ended before it.
func (p *plan) tick() uint64 {
	p.mu.Lock()
	idx := p.idx
	p.idx++
	p.mu.Unlock()
	p.recoverElapsed(idx)
	return idx
}

// draw is one Bernoulli draw for a fault kind. A zero rate is skipped
// entirely, so a plan's draw sequence (and therefore its whole trace)
// depends only on the rates it actually sets.
func (p *plan) draw(rate float64) bool {
	return rate > 0 && p.src.Bernoulli(rate)
}

// count bumps one of the front's counters.
func (p *plan) count(n *uint64) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
}

// record appends a trace entry and bumps its counter (nil skips counting).
func (p *plan) record(t TraceEntry, n *uint64) {
	p.mu.Lock()
	p.trace = append(p.trace, t)
	if n != nil {
		*n++
	}
	p.mu.Unlock()
}

// strike opens an outage on node at event idx: the trigger is traced and
// counted, and every send to node is refused until span events have passed.
func (p *plan) strike(idx uint64, kind string, span int, node string, n *uint64) {
	p.mu.Lock()
	p.trace = append(p.trace, TraceEntry{Event: idx, Kind: kind, Span: span, Node: node})
	*n++
	p.outages[node] = outage{kind: kind, until: idx + uint64(span)}
	p.mu.Unlock()
}

// outageAt returns the outage a send to node at event idx runs into.
func (p *plan) outageAt(node string, idx uint64) (outage, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, down := p.outages[node]
	return o, down && idx < o.until
}

// recoverElapsed closes every outage whose span has passed, reviving the
// nodes whose outage kind calls for it. Nodes are visited in sorted order
// so the revive sequence (hooks and trace) is deterministic even when
// several windows expire on the same event. Hooks run outside the lock.
func (p *plan) recoverElapsed(idx uint64) {
	p.mu.Lock()
	var expired []string
	for node, o := range p.outages {
		if o.until <= idx {
			expired = append(expired, node)
		}
	}
	sort.Strings(expired)
	p.mu.Unlock()
	for _, node := range expired {
		p.mu.Lock()
		o := p.outages[node]
		delete(p.outages, node)
		p.mu.Unlock()
		if o.kind == p.reviveKind {
			if p.revive != nil {
				p.revive(node)
			}
			p.record(TraceEntry{Event: idx, Kind: p.revivedKind, Node: node}, p.revived)
		}
	}
}

// RecoverAll force-expires every outstanding outage, reviving crashed or
// killed nodes — the harness's settling step, so a stream that ends (or a
// migration that rolled back) mid-outage still converges to a
// fully-recovered cluster.
func (p *plan) RecoverAll() {
	p.recoverElapsed(^uint64(0))
}

// Blocked reports whether a send or step touching node would currently be
// refused — the seam for wiring a health prober through the same partition
// the router experiences. It consults outage state without advancing the
// clock, so probing never perturbs the fault plan.
func (p *plan) Blocked(node string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, down := p.outages[node]
	return down && p.idx < o.until
}

// Trace returns a copy of the fault trace so far, in injection order.
func (p *plan) Trace() []TraceEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TraceEntry, len(p.trace))
	copy(out, p.trace)
	return out
}
