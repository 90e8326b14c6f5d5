package cluster

import (
	"fmt"
	"sort"

	"edgescope/internal/telemetry"
)

// Epoch-versioned partition assignments. An Assignment is the full
// partition → owner table at one point in the cluster's
// membership history, stamped with a monotonically increasing epoch. It is
// a value — JSON-serializable, comparable field by field — so the frontend
// can persist it, push it to nodes, and every component can agree on "the
// current epoch" without a coordination service: there is exactly one
// writer of new epochs (the frontend's migrator) and activation is atomic.
//
// Epoch 1 is always InitialAssignment, which reproduces the arithmetic
// round-robin placement the static cluster used (owner = nodes[p%N]), so a
// cluster that never rebalances routes exactly as it always did. Later
// epochs come from Rebalance, which moves the minimum number of partitions
// needed to re-level the cluster.

// Assignment is one epoch's placement table.
type Assignment struct {
	// Epoch versions the table; strictly increasing, starting at 1.
	Epoch uint64 `json:"epoch"`
	// Partitions is the keyspace partition count — immutable across epochs
	// (the key hash depends on it; changing it would remap every key).
	Partitions int `json:"partitions"`
	// ReplicationFactor is always 1: every partition has exactly one
	// assigned member. The field stays in the wire form as the upgrade gate
	// — Validate refuses a table written under the removed factor-2 mode
	// instead of misreading it as factor 1 and hiding its failover slices.
	ReplicationFactor int `json:"replication_factor"`
	// Nodes is the member list in canonical order. Placement ties break by
	// this order, so every component must hold the same list — the
	// assignment itself ships it.
	Nodes []string `json:"nodes"`
	// Owners[p] names the node owning partition p.
	Owners []string `json:"owners"`
}

// InitialAssignment is epoch 1 for a validated layout: the arithmetic
// round-robin placement (owner = nodes[p%N]).
func InitialAssignment(cfg MapConfig) Assignment {
	if cfg.Partitions <= 0 {
		cfg.Partitions = DefaultPartitions
	}
	n := len(cfg.Nodes)
	a := Assignment{
		Epoch:             1,
		Partitions:        cfg.Partitions,
		ReplicationFactor: 1,
		Nodes:             append([]string(nil), cfg.Nodes...),
		Owners:            make([]string, cfg.Partitions),
	}
	for p := 0; p < cfg.Partitions; p++ {
		a.Owners[p] = cfg.Nodes[p%n]
	}
	return a
}

// Validate checks an assignment's internal consistency — the gate a node
// runs before accepting a pushed table.
func (a Assignment) Validate() error {
	if a.Epoch == 0 {
		return fmt.Errorf("cluster: assignment epoch 0")
	}
	if a.Partitions <= 0 {
		return fmt.Errorf("cluster: assignment with %d partitions", a.Partitions)
	}
	if a.ReplicationFactor != 1 {
		return fmt.Errorf("cluster: assignment replication factor %d: only 1 is supported — replication was removed, and a table written under factor 2 cannot be opened by this build", a.ReplicationFactor)
	}
	if len(a.Nodes) == 0 {
		return fmt.Errorf("cluster: assignment with no nodes")
	}
	members := make(map[string]bool, len(a.Nodes))
	for i, n := range a.Nodes {
		if n == "" {
			return fmt.Errorf("cluster: empty node id at position %d", i)
		}
		if members[n] {
			return fmt.Errorf("cluster: duplicate node id %q", n)
		}
		members[n] = true
	}
	if len(a.Owners) != a.Partitions {
		return fmt.Errorf("cluster: %d owners for %d partitions", len(a.Owners), a.Partitions)
	}
	for p, o := range a.Owners {
		if !members[o] {
			return fmt.Errorf("cluster: partition %d owned by unknown node %q", p, o)
		}
	}
	return nil
}

// clone deep-copies the assignment (the slices are shared nowhere).
func (a Assignment) clone() Assignment {
	a.Nodes = append([]string(nil), a.Nodes...)
	a.Owners = append([]string(nil), a.Owners...)
	return a
}

// Move is one partition changing owners between two epochs.
type Move struct {
	Partition int    `json:"partition"`
	From      string `json:"from"`
	To        string `json:"to"`
}

// Member reports whether a node is in the assignment's member list.
func (a Assignment) Member(node string) bool {
	for _, n := range a.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// NodeInfo builds the self-describing identity a node surfaces through
// telemetry.Config.Node under this assignment — what PushAssignment
// installs on every member at activation.
func (a Assignment) NodeInfo(node string) *telemetry.NodeInfo {
	info := &telemetry.NodeInfo{Role: "node", ID: node}
	for p, o := range a.Owners {
		if o == node {
			info.Partitions = append(info.Partitions, p)
		}
	}
	return info
}

// Moves lists the owner changes from one assignment to its successor,
// ascending by partition — the handoff work list a migration executes.
func Moves(from, to Assignment) []Move {
	var out []Move
	for p := 0; p < to.Partitions && p < from.Partitions; p++ {
		if from.Owners[p] != to.Owners[p] {
			out = append(out, Move{Partition: p, From: from.Owners[p], To: to.Owners[p]})
		}
	}
	return out
}

// Rebalance computes the next epoch for a new member list, moving as few
// partitions as possible: every partition whose owner survives stays put
// unless its owner is over quota, over-quota owners shed their
// highest-numbered partitions, and the freed pool fills under-quota nodes
// in canonical order. Quotas are ⌊P/N⌋ with the remainder going to the
// first P%N nodes in canonical order — the same totals round-robin
// produces, so a from-scratch Rebalance and InitialAssignment level the
// cluster identically.
func Rebalance(cur Assignment, nodes []string) (Assignment, error) {
	next, err := rebalance(cur, nodes, "")
	if err != nil {
		return Assignment{}, err
	}
	return next, nil
}

// RebalanceDrain computes the next epoch with one member's quota forced to
// zero — the node stays a member (it can still serve reads while its data
// migrates away) but owns nothing, so a subsequent Rebalance without it
// moves nothing at all.
func RebalanceDrain(cur Assignment, drain string) (Assignment, error) {
	found := false
	for _, n := range cur.Nodes {
		if n == drain {
			found = true
			break
		}
	}
	if !found {
		return Assignment{}, fmt.Errorf("cluster: drain of non-member %q", drain)
	}
	return rebalance(cur, cur.Nodes, drain)
}

// rebalance is the shared minimal-movement engine. drain, when non-empty,
// names a member whose quota is zero.
func rebalance(cur Assignment, nodes []string, drain string) (Assignment, error) {
	next := Assignment{
		Epoch:             cur.Epoch + 1,
		Partitions:        cur.Partitions,
		ReplicationFactor: cur.ReplicationFactor,
		Nodes:             append([]string(nil), nodes...),
		Owners:            make([]string, cur.Partitions),
	}
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		if n == "" {
			return Assignment{}, fmt.Errorf("cluster: empty node id at position %d", i)
		}
		if _, dup := index[n]; dup {
			return Assignment{}, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		index[n] = i
	}
	if len(nodes) == 0 {
		return Assignment{}, fmt.Errorf("cluster: rebalance to an empty cluster")
	}
	// Quota-bearing nodes: everyone but the drained member.
	bearing := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != drain {
			bearing = append(bearing, n)
		}
	}
	if len(bearing) == 0 {
		return Assignment{}, fmt.Errorf("cluster: drain of the only node %q", drain)
	}
	// Quotas: ⌊P/N⌋ each, remainder to the first P%N bearing nodes.
	quota := make(map[string]int, len(bearing))
	base, extra := cur.Partitions/len(bearing), cur.Partitions%len(bearing)
	for i, n := range bearing {
		quota[n] = base
		if i < extra {
			quota[n]++
		}
	}
	// Keep surviving owners' partitions where they are, up to quota; owners
	// shed their highest-numbered partitions first (ascending keeps are the
	// deterministic choice).
	owned := make(map[string][]int, len(bearing))
	var pool []int
	for p := 0; p < cur.Partitions; p++ {
		o := cur.Owners[p]
		if _, member := index[o]; member && o != drain {
			owned[o] = append(owned[o], p)
		} else {
			pool = append(pool, p)
		}
	}
	for _, n := range bearing {
		if len(owned[n]) > quota[n] {
			pool = append(pool, owned[n][quota[n]:]...)
			owned[n] = owned[n][:quota[n]]
		}
	}
	sort.Ints(pool)
	// Fill under-quota nodes in canonical order, pool ascending.
	for _, n := range bearing {
		for len(owned[n]) < quota[n] {
			owned[n] = append(owned[n], pool[0])
			pool = pool[1:]
		}
	}
	if len(pool) != 0 {
		return Assignment{}, fmt.Errorf("cluster: rebalance left %d partitions unplaced", len(pool))
	}
	for n, ps := range owned {
		for _, p := range ps {
			next.Owners[p] = n
		}
	}
	if err := next.Validate(); err != nil {
		return Assignment{}, err
	}
	return next, nil
}
