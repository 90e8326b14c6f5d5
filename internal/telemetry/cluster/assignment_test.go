package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"edgescope/internal/rng"
)

func mustRebalance(t *testing.T, cur Assignment, nodes []string) Assignment {
	t.Helper()
	next, err := Rebalance(cur, nodes)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	return next
}

// TestInitialAssignmentMatchesArithmetic pins epoch 1 to the static
// cluster's arithmetic placement: a cluster that never rebalances routes
// exactly as PR 9's p%N layout did.
func TestInitialAssignmentMatchesArithmetic(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	a := InitialAssignment(MapConfig{Partitions: 16, Nodes: nodes})
	if a.Epoch != 1 {
		t.Fatalf("epoch = %d", a.Epoch)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for p := 0; p < 16; p++ {
		if a.Owners[p] != nodes[p%3] {
			t.Fatalf("owner[%d] = %s, want %s", p, a.Owners[p], nodes[p%3])
		}
	}
}

// TestRebalanceMinimalMovement: a join moves only partitions TO the new
// node (exactly its quota), a leave moves only partitions FROM the
// departed one, and a no-op member list moves nothing at all.
func TestRebalanceMinimalMovement(t *testing.T) {
	cur := InitialAssignment(MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})

	join := mustRebalance(t, cur, []string{"n0", "n1", "n2", "n3"})
	if join.Epoch != cur.Epoch+1 {
		t.Fatalf("join epoch = %d", join.Epoch)
	}
	moves := Moves(cur, join)
	if len(moves) != 4 { // 16/4 = 4: exactly the newcomer's quota
		t.Fatalf("join moved %d partitions (%v), want 4", len(moves), moves)
	}
	for _, mv := range moves {
		if mv.To != "n3" {
			t.Fatalf("join moved %v — only the newcomer may gain", mv)
		}
	}

	same := mustRebalance(t, join, join.Nodes)
	if got := Moves(join, same); len(got) != 0 {
		t.Fatalf("identity rebalance moved %v", got)
	}

	leave := mustRebalance(t, join, []string{"n0", "n1", "n3"})
	for _, mv := range Moves(join, leave) {
		if mv.From != "n2" {
			t.Fatalf("leave moved %v — only the departing node may lose", mv)
		}
	}
	for p, o := range leave.Owners {
		if o == "n2" {
			t.Fatalf("partition %d still owned by departed n2", p)
		}
	}
}

// TestRebalanceLevels: after any membership change, per-node ownership
// counts differ by at most one.
func TestRebalanceLevels(t *testing.T) {
	cur := InitialAssignment(MapConfig{Partitions: 16, Nodes: []string{"a", "b", "c", "d", "e"}})
	for _, nodes := range [][]string{
		{"a", "b", "c", "d", "e", "f"},
		{"a", "c", "e"},
		{"a", "b", "c", "d", "e", "f", "g", "h"},
	} {
		next := mustRebalance(t, cur, nodes)
		counts := map[string]int{}
		for _, o := range next.Owners {
			counts[o]++
		}
		min, max := next.Partitions, 0
		for _, n := range nodes {
			c := counts[n]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("nodes %v: ownership skew %v", nodes, counts)
		}
		cur = next
	}
}

// TestRebalanceDrain: the drained node stays a member but owns nothing,
// and a subsequent leave moves zero partitions.
func TestRebalanceDrain(t *testing.T) {
	cur := InitialAssignment(MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	drained, err := RebalanceDrain(cur, "n1")
	if err != nil {
		t.Fatalf("RebalanceDrain: %v", err)
	}
	if !drained.Member("n1") {
		t.Fatal("drained node dropped from membership")
	}
	for p := range drained.Owners {
		if drained.Owners[p] == "n1" {
			t.Fatalf("partition %d still placed on drained n1", p)
		}
	}
	leave := mustRebalance(t, drained, []string{"n0", "n2"})
	if got := Moves(drained, leave); len(got) != 0 {
		t.Fatalf("leave after drain moved %v, want nothing", got)
	}
	if _, err := RebalanceDrain(cur, "ghost"); err == nil {
		t.Fatal("draining a non-member must error")
	}
}

// TestRebalanceDeterministic: same inputs, same table — byte for byte.
func TestRebalanceDeterministic(t *testing.T) {
	cur := InitialAssignment(MapConfig{Partitions: 32, Nodes: []string{"n0", "n1", "n2"}})
	a := mustRebalance(t, cur, []string{"n0", "n1", "n2", "n3", "n4"})
	b := mustRebalance(t, cur, []string{"n0", "n1", "n2", "n3", "n4"})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rebalance is not deterministic")
	}
}

// TestAssignmentJSONRoundTrip: the table survives the wire intact — what
// lets the frontend persist it and push it to nodes.
func TestAssignmentJSONRoundTrip(t *testing.T) {
	cur := InitialAssignment(MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	next := mustRebalance(t, cur, []string{"n0", "n1", "n2", "n3"})
	raw, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	var back Assignment
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, back) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", next, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped table invalid: %v", err)
	}
}

// TestAssignmentValidateRejects pins the malformed-table guards.
func TestAssignmentValidateRejects(t *testing.T) {
	good := InitialAssignment(MapConfig{Partitions: 4, Nodes: []string{"a", "b"}})
	for name, mutate := range map[string]func(*Assignment){
		"zero epoch":     func(a *Assignment) { a.Epoch = 0 },
		"no partitions":  func(a *Assignment) { a.Partitions = 0 },
		"rf 2":           func(a *Assignment) { a.ReplicationFactor = 2 },
		"rf missing":     func(a *Assignment) { a.ReplicationFactor = 0 },
		"empty node":     func(a *Assignment) { a.Nodes[1] = "" },
		"duplicate node": func(a *Assignment) { a.Nodes[1] = "a" },
		"unknown owner":  func(a *Assignment) { a.Owners[0] = "ghost" },
		"short owners":   func(a *Assignment) { a.Owners = a.Owners[:2] },
	} {
		a := good.clone()
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", name, a)
		}
	}
}

// TestAssignmentNodeInfo: the pushed identity matches the table.
func TestAssignmentNodeInfo(t *testing.T) {
	a := InitialAssignment(MapConfig{Partitions: 6, Nodes: []string{"a", "b", "c"}})
	info := a.NodeInfo("b")
	if info.ID != "b" || info.Role != "node" {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Partitions, []int{1, 4}) {
		t.Fatalf("Partitions = %v", info.Partitions)
	}
}

// TestMovesHaveOneSourceAndAnUnassignedDestination pins the invariant the
// handoff rests on, over seeded random join/leave/drain sequences: every
// move's single source is the partition's current owner, and its
// destination is a node the current epoch does not assign the partition to
// — so the rebuild's destructive drop can never touch a partition's truth.
func TestMovesHaveOneSourceAndAnUnassignedDestination(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		cur := InitialAssignment(MapConfig{Partitions: 1 + r.IntN(40), Nodes: []string{"n0", "n1", "n2"}})
		joined := 3
		for step := 0; step < 60; step++ {
			var next Assignment
			var err error
			switch victim := cur.Nodes[r.IntN(len(cur.Nodes))]; r.IntN(3) {
			case 0:
				next, err = Rebalance(cur, append(append([]string(nil), cur.Nodes...), fmt.Sprintf("n%d", joined)))
				joined++
			case 1:
				var rest []string
				for _, n := range cur.Nodes {
					if n != victim {
						rest = append(rest, n)
					}
				}
				next, err = Rebalance(cur, rest)
			default:
				next, err = RebalanceDrain(cur, victim)
			}
			if err != nil {
				continue // leaving or draining the last quota-bearing node
			}
			seen := map[int]bool{}
			for _, mv := range Moves(cur, next) {
				if seen[mv.Partition] {
					t.Fatalf("seed %d step %d: partition %d moves twice", seed, step, mv.Partition)
				}
				seen[mv.Partition] = true
				if mv.From != cur.Owners[mv.Partition] || mv.To != next.Owners[mv.Partition] {
					t.Fatalf("seed %d step %d: move %+v is not owner %s → owner %s",
						seed, step, mv, cur.Owners[mv.Partition], next.Owners[mv.Partition])
				}
				if mv.To == cur.Owners[mv.Partition] {
					t.Fatalf("seed %d step %d: move %+v lands on the partition's current owner", seed, step, mv)
				}
			}
			for p := range cur.Owners {
				if !seen[p] && cur.Owners[p] != next.Owners[p] {
					t.Fatalf("seed %d step %d: partition %d changes owner without a move", seed, step, p)
				}
			}
			cur = next
		}
	}
}
