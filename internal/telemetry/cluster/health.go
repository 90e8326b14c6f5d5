package cluster

import (
	"sort"
	"sync"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
)

// NodeState is a member's routability as seen by the health tracker.
type NodeState int32

const (
	// StateUp: probes answer and the node reports healthy.
	StateUp NodeState = iota
	// StateDegraded: the node answers but reports degraded (WAL trouble,
	// saturated queues), or has missed fewer probes than the down
	// threshold. Degraded nodes are still routed to — they hold their
	// partitions' data and accept writes.
	StateDegraded
	// StateDown: downAfter consecutive probes failed. The router refuses the
	// node's partitions (producers back off and resend) and the front-end
	// reports them as missing until it is back.
	StateDown
)

func (s NodeState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// ProbeResult is one health probe's outcome.
type ProbeResult struct {
	// Reachable: the probe got an answer at all.
	Reachable bool
	// Degraded: the node answered and self-reported degraded (the
	// /healthz "status" field). Meaningless when unreachable.
	Degraded bool
}

// Prober checks one node now. Implementations: HTTPNode.Probe (GET
// /healthz) looked up per node id, or any test double — the chaos harness probes through the same fault
// injector the router sends through, so a partitioned node looks down from
// the router's vantage even though it is alive.
type Prober func(node string) ProbeResult

// HealthConfig tunes the membership state machine. The zero value gets the
// documented defaults.
type HealthConfig struct {
	// Interval is Start's probe period. Default 1s. Tests that need
	// deterministic schedules skip Start and call ProbeOnce directly.
	Interval time.Duration
	// Jitter spreads Start's probe schedule: each wait is drawn uniformly
	// from [0.9, 1.1) × Interval, so N trackers booted together (every node
	// probing every other) drift apart instead of probing in synchronized
	// bursts — the thundering-herd fix. The seeded source makes the
	// schedule deterministic under test. nil gets a fixed-seed source.
	Jitter *rng.Source
	// Metrics is the registry the membership families (cluster_node_*)
	// register on. nil gets a private registry nothing scrapes.
	Metrics *obs.Registry
}

func (c *HealthConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Jitter == nil {
		c.Jitter = rng.New(1).Fork("health-jitter")
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

const (
	// downAfter is the consecutive unreachable probes that mark a node
	// down: one lost probe degrades, a run of them downs.
	downAfter = 3
	// upAfter is the consecutive successful probes a down node needs
	// before it is routable again: a flapping node must hold still briefly
	// before traffic returns.
	upAfter = 2
)

// nodeHealth is one member's state-machine cell.
type nodeHealth struct {
	state       NodeState
	fails       int // consecutive unreachable probes
	oks         int // consecutive reachable probes
	transitions uint64

	stateG   *obs.Gauge   // 0 up / 1 degraded / 2 down
	failures *obs.Counter // unreachable probes
	transC   *obs.Counter // state transitions
}

// NodeHealth is one member's reported state.
type NodeHealth struct {
	Node                string `json:"node"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Transitions         uint64 `json:"transitions,omitempty"`
}

// HealthTracker drives the up/degraded/down state machine over periodic
// probes. Every node starts Up — a cluster boots optimistic and marks down
// from evidence, so a cold start routes immediately. Membership is
// elastic: Add and Remove adjust the probed set live (join/leave).
type HealthTracker struct {
	probe Prober
	cfg   HealthConfig

	mu    sync.Mutex
	nodes []string
	st    map[string]*nodeHealth

	// Vector families for Add to bind late-joining nodes' cells to.
	stateG *obs.GaugeVec
	failC  *obs.CounterVec
	transC *obs.CounterVec

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHealthTracker builds a tracker over the given members.
func NewHealthTracker(nodes []string, probe Prober, cfg HealthConfig) *HealthTracker {
	cfg.fill()
	h := &HealthTracker{
		nodes:  append([]string(nil), nodes...),
		probe:  probe,
		cfg:    cfg,
		st:     make(map[string]*nodeHealth, len(nodes)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		stateG: cfg.Metrics.GaugeVec("cluster_node_state", "membership state: 0 up, 1 degraded, 2 down", "node"),
		failC:  cfg.Metrics.CounterVec("cluster_probe_failures_total", "health probes that got no answer", "node"),
		transC: cfg.Metrics.CounterVec("cluster_node_transitions_total", "membership state transitions", "node"),
	}
	for _, n := range h.nodes {
		h.st[n] = h.newCell(n)
	}
	return h
}

// newCell builds one member's state cell, bound to the registered vector
// families.
func (h *HealthTracker) newCell(n string) *nodeHealth {
	return &nodeHealth{stateG: h.stateG.With(n), failures: h.failC.With(n), transC: h.transC.With(n)}
}

// Add starts tracking a joining member (idempotent). The node starts Up,
// like every boot member — it joined by answering the admin plane, which
// is evidence enough until probes say otherwise.
func (h *HealthTracker) Add(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.st[node]; ok {
		return
	}
	h.nodes = append(h.nodes, node)
	h.st[node] = h.newCell(node)
}

// Remove stops tracking a departed member. Its state is forgotten: a
// removed node reads as Down (unknown), which is what the router must see.
func (h *HealthTracker) Remove(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.st, node)
	for i, n := range h.nodes {
		if n == node {
			h.nodes = append(h.nodes[:i], h.nodes[i+1:]...)
			break
		}
	}
}

// ProbeOnce probes every member once, in canonical node order, and advances
// the state machine — the deterministic unit Start loops on. The member
// list is snapshotted first, so Add/Remove during a pass are safe.
func (h *HealthTracker) ProbeOnce() {
	h.mu.Lock()
	nodes := append([]string(nil), h.nodes...)
	h.mu.Unlock()
	for _, n := range nodes {
		res := h.probe(n)
		h.observe(n, res)
	}
}

// observe folds one probe result into a node's cell.
func (h *HealthTracker) observe(node string, res ProbeResult) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.st[node]
	if c == nil {
		return
	}
	var next NodeState
	switch {
	case !res.Reachable:
		c.fails++
		c.oks = 0
		c.failures.Inc()
		if c.fails >= downAfter || c.state == StateDown {
			next = StateDown
		} else {
			next = StateDegraded
		}
	default:
		c.fails = 0
		c.oks++
		switch {
		case c.state == StateDown && c.oks < upAfter:
			next = StateDown // hold a flapping node out until it proves stable
		case res.Degraded:
			next = StateDegraded
		default:
			next = StateUp
		}
	}
	if next != c.state {
		c.state = next
		c.transitions++
		c.transC.Inc()
	}
	c.stateG.Set(float64(c.state))
}

// Start launches the periodic probe loop. Stop ends it; both are
// idempotent. Deterministic tests skip Start and drive ProbeOnce. Each wait
// is a fresh draw from [0.9, 1.1) × Interval (HealthConfig.Jitter), so
// co-booted trackers desynchronize.
func (h *HealthTracker) Start() {
	h.startOnce.Do(func() {
		go func() {
			defer close(h.done)
			t := time.NewTimer(h.nextWait())
			defer t.Stop()
			for {
				select {
				case <-h.stop:
					return
				case <-t.C:
					h.ProbeOnce()
					t.Reset(h.nextWait())
				}
			}
		}()
	})
}

// nextWait draws one jittered probe interval: Interval × [0.9, 1.1).
func (h *HealthTracker) nextWait() time.Duration {
	f := 0.9 + 0.2*h.cfg.Jitter.Float64()
	return time.Duration(float64(h.cfg.Interval) * f)
}

// Stop ends the probe loop started by Start and waits for it to exit.
func (h *HealthTracker) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: done must still close
	<-h.done
}

// State returns a member's current state. Unknown nodes are Down: the
// router must never send to an address the map does not know.
func (h *HealthTracker) State(node string) NodeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.st[node]
	if c == nil {
		return StateDown
	}
	return c.state
}

// Snapshot reports every member, sorted by node id as strings (so "n10"
// comes before "n2").
func (h *HealthTracker) Snapshot() []NodeHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]NodeHealth, 0, len(h.nodes))
	for _, n := range h.nodes {
		c := h.st[n]
		out = append(out, NodeHealth{
			Node:                n,
			State:               c.state.String(),
			ConsecutiveFailures: c.fails,
			Transitions:         c.transitions,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
