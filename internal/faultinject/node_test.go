package faultinject

import (
	"reflect"
	"testing"
)

// nodeHarness drives a NodeInjector over a synthetic cluster of delivery
// counters, recording crash/restart hook calls.
type nodeHarness struct {
	delivered map[string]int
	crashes   []string
	restarts  []string
	up        map[string]bool
}

func newNodeHarness(nodes ...string) *nodeHarness {
	h := &nodeHarness{delivered: map[string]int{}, up: map[string]bool{}}
	for _, n := range nodes {
		h.up[n] = true
	}
	return h
}

func (h *nodeHarness) hooks() NodeHooks {
	return NodeHooks{
		Crash:   func(n string) { h.crashes = append(h.crashes, n); h.up[n] = false },
		Restart: func(n string) { h.restarts = append(h.restarts, n); h.up[n] = true },
	}
}

func (h *nodeHarness) run(inj *NodeInjector, sends int) {
	nodes := []string{"n0", "n1", "n2"}
	for i := 0; i < sends; i++ {
		node := nodes[i%len(nodes)]
		inj.Send(node, func() bool {
			if !h.up[node] {
				// A crashed node must never see a delivery: the injector
				// refuses before deliver runs.
				panic("delivered to crashed node " + node)
			}
			h.delivered[node]++
			return true
		})
	}
}

func TestNodeInjectorInactiveDeliversEverything(t *testing.T) {
	h := newNodeHarness("n0", "n1", "n2")
	inj := NewNode(&Spec{}, 7, h.hooks())
	h.run(inj, 300)
	st := inj.Stats()
	if st.Offered != 300 || st.Refused != 0 || st.Crashes != 0 {
		t.Fatalf("inactive plan interfered: %+v", st)
	}
	if total := h.delivered["n0"] + h.delivered["n1"] + h.delivered["n2"]; total != 300 {
		t.Fatalf("delivered %d of 300", total)
	}
	if len(inj.Trace()) != 0 {
		t.Fatal("inactive plan produced a trace")
	}
}

func TestNodeInjectorCrashRefusesThenRestarts(t *testing.T) {
	h := newNodeHarness("n0", "n1", "n2")
	spec := &Spec{NodeCrash: 0.01, NodeCrashSpan: 30}
	inj := NewNode(spec, 42, h.hooks())
	h.run(inj, 2000)
	inj.RecoverAll()
	st := inj.Stats()
	if st.Crashes == 0 {
		t.Fatalf("no crashes injected: %+v", st)
	}
	if st.Refused == 0 {
		t.Fatalf("crashes refused no sends: %+v", st)
	}
	if st.Restarts != st.Crashes {
		t.Fatalf("crashes %d != restarts %d after RecoverAll", st.Crashes, st.Restarts)
	}
	if len(h.crashes) != int(st.Crashes) || len(h.restarts) != int(st.Restarts) {
		t.Fatalf("hooks fired %d/%d times, stats say %d/%d",
			len(h.crashes), len(h.restarts), st.Crashes, st.Restarts)
	}
	for n, up := range h.up {
		if !up {
			t.Fatalf("node %s still down after RecoverAll", n)
		}
	}
}

func TestNodeInjectorDeterministicTrace(t *testing.T) {
	spec := &Spec{NodeCrash: 0.005, NodeStall: 0.01, NetPartition: 0.01}
	var traces [2][]TraceEntry
	var stats [2]NodeStats
	for i := range traces {
		h := newNodeHarness("n0", "n1", "n2")
		inj := NewNode(spec, 99, h.hooks())
		h.run(inj, 3000)
		inj.RecoverAll()
		traces[i] = inj.Trace()
		stats[i] = inj.Stats()
	}
	if len(traces[0]) == 0 {
		t.Fatal("plan injected nothing")
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Fatalf("same seed produced different traces: %d vs %d entries", len(traces[0]), len(traces[1]))
	}
	if stats[0] != stats[1] {
		t.Fatalf("same seed produced different stats: %+v vs %+v", stats[0], stats[1])
	}
	if stats[0].Stalls == 0 || stats[0].Partitions == 0 || stats[0].Crashes == 0 {
		t.Fatalf("not every fault kind fired: %+v", stats[0])
	}
}

func TestNodeInjectorBlockedTracksOutage(t *testing.T) {
	h := newNodeHarness("n0")
	// Rate 1: the very first send crashes its target.
	inj := NewNode(&Spec{NodeCrash: 1, NodeCrashSpan: 5}, 1, h.hooks())
	if inj.Send("n0", func() bool { t.Fatal("delivered through a crash"); return true }) {
		t.Fatal("crash trigger reported success")
	}
	if !inj.Blocked("n0") {
		t.Fatal("crashed node not Blocked")
	}
	if inj.Blocked("n-other") {
		t.Fatal("healthy node Blocked")
	}
	// NodeCrash=1 would immediately re-crash a recovered node on the next
	// draw; the refusal path must not draw at all while the outage holds.
	for i := 0; i < 3; i++ {
		if inj.Send("n0", func() bool { return true }) {
			t.Fatal("send succeeded inside outage window")
		}
	}
	if got := inj.Stats().Crashes; got != 1 {
		t.Fatalf("outage window drew again: %d crashes", got)
	}
}
