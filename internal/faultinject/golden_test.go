package faultinject

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites testdata/*.golden.json from the current implementation.
// The committed files were captured before the three injectors were folded
// onto one plan core; they pin each seed's draw order, which the
// rerun-determinism tests (a run compared to itself) cannot see.
var update = flag.Bool("update", false, "rewrite the golden fault traces")

// golden is one injector's complete observable story for a fixed plan.
type golden struct {
	Stats    any          `json:"stats"`
	Outcomes string       `json:"outcomes"` // one byte per event/step: f/t = refused/accepted, upper case = Blocked after it
	Hooks    []string     `json:"hooks"`    // hook calls, in order
	Trace    []TraceEntry `json:"trace"`
}

func checkGolden(t *testing.T, name string, g golden) {
	t.Helper()
	got, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: fault story differs from the golden capture (%d vs %d bytes); the draw order or trace changed", name, len(got), len(want))
	}
}

func kinds(trace []TraceEntry) map[string]int {
	n := map[string]int{}
	for _, e := range trace {
		n[e.Kind]++
	}
	return n
}

func TestGoldenEventTrace(t *testing.T) {
	spec := &Spec{
		Drop: 0.03, Duplicate: 0.03, Reorder: 0.03, Delay: 0.02,
		ShardStall: 0.004, StallSpan: 24,
	}
	inj := New[int](spec, 20211102)
	var outcomes []byte
	var delivered []int
	deliver := func(v int) bool { delivered = append(delivered, v); return true }
	for i := 0; i < 2400; i++ {
		shard := i % 4
		ok := inj.Offer(i, shard, deliver)
		outcomes = append(outcomes, "ft"[b2i(ok)])
	}
	inj.Drain(deliver)
	k := kinds(inj.Trace())
	for _, kind := range []string{KindDrop, KindDuplicate, KindReorder, KindDelay, KindStall} {
		if k[kind] == 0 {
			t.Fatalf("plan never injected %s: %v", kind, k)
		}
	}
	checkGolden(t, "event", golden{
		Stats:    inj.Stats(),
		Outcomes: string(outcomes),
		Hooks:    []string{fmt.Sprint("delivered ", delivered)},
		Trace:    inj.Trace(),
	})
}

func TestGoldenNodeTrace(t *testing.T) {
	spec := &Spec{
		NodeCrash: 0.004, NodeCrashSpan: 40, NodeStall: 0.006, NetPartition: 0.005, NetPartitionSpan: 48,
	}
	var hooks []string
	inj := NewNode(spec, 20211102, NodeHooks{
		Crash:   func(n string) { hooks = append(hooks, "crash "+n) },
		Restart: func(n string) { hooks = append(hooks, "restart "+n) },
	})
	nodes := []string{"n0", "n1", "n2", "n3"}
	var outcomes []byte
	for i := 0; i < 2400; i++ {
		node := nodes[(i*7+i/5)%len(nodes)]
		ok := inj.Send(node, func() bool { return true })
		outcomes = append(outcomes, "ftFT"[b2i(ok)+2*b2i(inj.Blocked(node))])
	}
	inj.RecoverAll()
	k := kinds(inj.Trace())
	for _, kind := range []string{KindNodeCrash, KindNodeRestart, KindNodeStall, KindNetPartition} {
		if k[kind] == 0 {
			t.Fatalf("plan never injected %s: %v", kind, k)
		}
	}
	checkGolden(t, "node", golden{Stats: inj.Stats(), Outcomes: string(outcomes), Hooks: hooks, Trace: inj.Trace()})
}

func TestGoldenHandoffTrace(t *testing.T) {
	spec := &Spec{
		HandoffKillGaining: 0.08, HandoffPartitionSource: 0.06, HandoffCrashRecover: 0.08, HandoffSpan: 5,
	}
	var hooks []string
	inj := NewHandoff(spec, 20211102, HandoffHooks{
		Kill:         func(n string) { hooks = append(hooks, "kill "+n) },
		Recover:      func(n string) { hooks = append(hooks, "recover "+n) },
		CrashRecover: func(n string) { hooks = append(hooks, "crash_recover "+n) },
	})
	phases := []string{"freeze", "flush", "fetch", "rebuild", "cutover"}
	nodes := []string{"n0", "n1", "n2", "n3"}
	var outcomes []byte
	var errs []string
	for i := 0; i < 400; i++ {
		p := i / len(phases)
		src, dst := nodes[p%len(nodes)], nodes[(p+1+p/4)%len(nodes)]
		err := inj.Step(phases[i%len(phases)], p%16, src, dst)
		if err != nil {
			errs = append(errs, err.Error())
		}
		outcomes = append(outcomes, "ftFT"[b2i(err == nil)+2*b2i(inj.Blocked(dst))])
	}
	inj.RecoverAll()
	k := kinds(inj.Trace())
	for _, kind := range []string{KindHandoffKill, KindHandoffRecover, KindHandoffPartition, KindHandoffCrashRecover} {
		if k[kind] == 0 {
			t.Fatalf("plan never injected %s: %v", kind, k)
		}
	}
	checkGolden(t, "handoff", golden{Stats: inj.Stats(), Outcomes: string(outcomes), Hooks: append(hooks, errs...), Trace: inj.Trace()})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
