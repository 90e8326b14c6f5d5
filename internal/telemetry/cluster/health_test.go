package cluster

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
)

// scriptedProber answers probes from a per-node state the test flips.
type scriptedProber struct {
	res map[string]ProbeResult
}

func (p *scriptedProber) probe(node string) ProbeResult { return p.res[node] }

func newHealthHarness(cfg HealthConfig, nodes ...string) (*HealthTracker, *scriptedProber) {
	p := &scriptedProber{res: map[string]ProbeResult{}}
	for _, n := range nodes {
		p.res[n] = ProbeResult{Reachable: true}
	}
	return NewHealthTracker(nodes, p.probe, cfg), p
}

func TestHealthStartsUpAndHoldsUp(t *testing.T) {
	h, _ := newHealthHarness(HealthConfig{}, "a", "b")
	if h.State("a") != StateUp || h.State("b") != StateUp {
		t.Fatal("cold tracker not optimistic")
	}
	for i := 0; i < 5; i++ {
		h.ProbeOnce()
	}
	if h.State("a") != StateUp {
		t.Fatal("healthy node left Up")
	}
	if h.State("unknown") != StateDown {
		t.Fatal("unknown node not Down")
	}
}

// TestHealthMarkdownAfterConsecutiveFailures: one missed probe degrades,
// downAfter (3) misses down — and recovery needs upAfter (2) consecutive
// successes.
func TestHealthMarkdownAfterConsecutiveFailures(t *testing.T) {
	h, p := newHealthHarness(HealthConfig{}, "a")
	p.res["a"] = ProbeResult{}

	h.ProbeOnce()
	if got := h.State("a"); got != StateDegraded {
		t.Fatalf("after 1 miss: %v", got)
	}
	h.ProbeOnce()
	if got := h.State("a"); got != StateDegraded {
		t.Fatalf("after 2 misses: %v", got)
	}
	h.ProbeOnce()
	if got := h.State("a"); got != StateDown {
		t.Fatalf("after 3 misses: %v", got)
	}

	// One good probe is not enough to requalify...
	p.res["a"] = ProbeResult{Reachable: true}
	h.ProbeOnce()
	if got := h.State("a"); got != StateDown {
		t.Fatalf("down node routable after 1 success: %v", got)
	}
	// ...the second is.
	h.ProbeOnce()
	if got := h.State("a"); got != StateUp {
		t.Fatalf("after upAfter successes: %v", got)
	}
}

// TestHealthFlappingHeldDown: a node alternating answer/miss while down
// never accumulates upAfter consecutive successes, so it stays down.
func TestHealthFlappingHeldDown(t *testing.T) {
	h, p := newHealthHarness(HealthConfig{}, "a")
	p.res["a"] = ProbeResult{}
	for range downAfter {
		h.ProbeOnce()
	}
	if h.State("a") != StateDown {
		t.Fatal("setup: node not down")
	}
	for i := 0; i < 4; i++ {
		p.res["a"] = ProbeResult{Reachable: true}
		h.ProbeOnce()
		p.res["a"] = ProbeResult{}
		h.ProbeOnce()
		if got := h.State("a"); got != StateDown {
			t.Fatalf("flap cycle %d: %v", i, got)
		}
	}
}

// TestHealthSelfReportedDegraded: a node answering "degraded" is Degraded
// (still routable) without any markdown counting.
func TestHealthSelfReportedDegraded(t *testing.T) {
	h, p := newHealthHarness(HealthConfig{}, "a")
	p.res["a"] = ProbeResult{Reachable: true, Degraded: true}
	for i := 0; i < 5; i++ {
		h.ProbeOnce()
		if got := h.State("a"); got != StateDegraded {
			t.Fatalf("probe %d: %v", i, got)
		}
	}
	p.res["a"] = ProbeResult{Reachable: true}
	h.ProbeOnce()
	if got := h.State("a"); got != StateUp {
		t.Fatalf("recovered self-report: %v", got)
	}
}

func TestHealthSnapshotAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := &scriptedProber{res: map[string]ProbeResult{
		"a": {Reachable: true},
		"b": {},
	}}
	h := NewHealthTracker([]string{"b", "a"}, p.probe, HealthConfig{Metrics: reg})
	h.ProbeOnce()
	h.ProbeOnce()
	h.ProbeOnce()

	snap := h.Snapshot()
	if len(snap) != 2 || snap[0].Node != "a" || snap[1].Node != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].State != "up" || snap[1].State != "down" {
		t.Fatalf("states = %s/%s", snap[0].State, snap[1].State)
	}
	if snap[1].ConsecutiveFailures != 3 {
		t.Fatalf("b failures = %d", snap[1].ConsecutiveFailures)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`cluster_node_state{node="b"} 2`,
		`cluster_probe_failures_total{node="b"} 3`,
		`cluster_node_transitions_total{node="b"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHealthStartStop(t *testing.T) {
	h, _ := newHealthHarness(HealthConfig{Interval: time.Millisecond}, "a")
	h.Start()
	h.Stop()
	// Stop without Start must not hang either.
	h2, _ := newHealthHarness(HealthConfig{}, "a")
	h2.Stop()
}

// TestHealthJitterDeterministicAndBounded: with an injected rng the
// jittered probe schedule is a pure function of the seed, and every wait
// stays inside [0.9, 1.1) × Interval — the thundering-herd spread.
func TestHealthJitterDeterministicAndBounded(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		h := NewHealthTracker([]string{"a"}, func(string) ProbeResult { return ProbeResult{Reachable: true} },
			HealthConfig{Interval: time.Second, Jitter: rng.New(seed).Fork("probe")})
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = h.nextWait()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different schedules")
	}
	c := draw(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical schedules")
	}
	for _, w := range a {
		if w < 900*time.Millisecond || w >= 1100*time.Millisecond {
			t.Fatalf("wait %v outside ±10%% of 1s", w)
		}
	}
}

// TestHealthJitteredLoopProbes: Start drives probes through the jittered
// timer loop.
func TestHealthJitteredLoopProbes(t *testing.T) {
	var n atomic.Int64
	h := NewHealthTracker([]string{"a"}, func(string) ProbeResult {
		n.Add(1)
		return ProbeResult{Reachable: true}
	}, HealthConfig{Interval: time.Millisecond, Jitter: rng.New(1).Fork("probe")})
	h.Start()
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	if n.Load() < 3 {
		t.Fatalf("jittered loop probed %d times", n.Load())
	}
}

// TestHealthAddRemoveElastic: membership is elastic — an added node is
// probed and starts Up, a removed one is forgotten and reads Down.
func TestHealthAddRemoveElastic(t *testing.T) {
	probed := map[string]int{}
	h := NewHealthTracker([]string{"a"}, func(n string) ProbeResult {
		probed[n]++
		return ProbeResult{Reachable: true}
	}, HealthConfig{})
	h.Add("b")
	h.Add("b") // idempotent
	if got := h.State("b"); got != StateUp {
		t.Fatalf("joined node state = %v", got)
	}
	h.ProbeOnce()
	if probed["b"] != 1 {
		t.Fatalf("joined node probed %d times", probed["b"])
	}
	if got := len(h.Snapshot()); got != 2 {
		t.Fatalf("snapshot has %d members", got)
	}
	h.Remove("b")
	h.ProbeOnce()
	if probed["b"] != 1 {
		t.Fatal("removed node still probed")
	}
	if got := h.State("b"); got != StateDown {
		t.Fatalf("removed node state = %v, want down", got)
	}
}
