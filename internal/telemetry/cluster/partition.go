// Package cluster turns the single-process telemetry pipeline into a
// partitioned, fault-tolerant serving tier: epoch-versioned partition
// assignments over the (metric, region, network) keyspace, health-checked
// membership, a routing ingest client with dual-epoch migration writes, and
// a scatter-gather query front-end with explicit partial-result semantics.
//
// The layering mirrors the Periscope analytics pipeline: stateless routers
// fan ingest out to partitioned stateful nodes (each an ordinary
// telemetry.Ingestor with its own WAL — PR 6's durability is the per-node
// substrate), and the query tier merges window sketches across nodes.
// Because every (window, key) rollup lives on exactly one assigned node and
// the front-end merges sketches on the same sorted path the single-node
// query uses (telemetry.MergeSketchPages), a clean clustered run answers
// every query byte-identically to one process that ingested the whole
// stream — the property the chaos tests pin, including across join/leave
// rebalances (migrate.go).
package cluster

import (
	"fmt"
	"sync"

	"edgescope/internal/telemetry"
)

// DefaultPartitions is the partition count when a MapConfig names none.
// Partitions are the unit of placement, of handoff and of partial-result
// reporting; more partitions than nodes keeps rebalancing granular.
const DefaultPartitions = 16

// MapConfig declares a cluster's boot layout — the input to epoch 1.
type MapConfig struct {
	// Partitions is the keyspace partition count. Default DefaultPartitions.
	Partitions int `json:"partitions"`
	// Nodes lists the node ids in canonical order. Epoch-1 placement
	// depends on this order, so every router and front-end must boot with
	// the same list; later epochs ship the member list inside the
	// Assignment itself.
	Nodes []string `json:"nodes"`
	// ReplicationFactor must be 0 or 1: every partition has exactly one
	// assigned member. The field survives only because bench/e2e sets it to
	// 1 (ROADMAP item 1(e) removes it); NewMap rejects any other value.
	ReplicationFactor int `json:"replication_factor,omitempty"`
}

// PartitionMap holds the cluster's live placement: the current epoch's
// Assignment, plus the transient migration state (pending epoch, frozen
// partitions, dual-write targets) a rebalance moves through. The
// key→partition hash is the pipeline's stable FNV-1a
// (telemetry.Key.ShardOf), so a key's partition depends only on the key
// and the partition count — replays, routers and recovered nodes always
// agree, with no coordination service anywhere.
//
// All methods are safe for concurrent use; readers (the router's hot path,
// the front-end's filters) take a read lock only.
type PartitionMap struct {
	mu    sync.RWMutex
	cur   Assignment
	index map[string]int // node id → position in cur.Nodes

	// pending is the proposed next epoch while a migration runs, nil
	// otherwise. frozen partitions refuse ingest (the handoff's exact-cut
	// window); dual maps a cut-over partition to the pending owner that
	// must also ack every write until activation.
	pending *Assignment
	frozen  map[int]bool
	dual    map[int]string
}

// NewMap validates a boot layout and resolves it to epoch 1.
func NewMap(cfg MapConfig) (*PartitionMap, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = DefaultPartitions
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: map needs at least one node")
	}
	if cfg.ReplicationFactor != 0 && cfg.ReplicationFactor != 1 {
		return nil, fmt.Errorf("cluster: replication factor %d: replication was removed, every partition has exactly one copy", cfg.ReplicationFactor)
	}
	index := make(map[string]int, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id at position %d", i)
		}
		if _, dup := index[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		index[n] = i
	}
	m := &PartitionMap{index: index}
	m.resetLocked(InitialAssignment(cfg))
	return m, nil
}

// NewMapFromAssignment resumes a map at a persisted assignment — how a
// restarted frontend rejoins at the epoch it last activated instead of
// regressing to epoch 1.
func NewMapFromAssignment(a Assignment) (*PartitionMap, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	m := &PartitionMap{}
	m.resetLocked(a.clone())
	return m, nil
}

// resetLocked installs an assignment as current and clears migration state.
// Callers hold m.mu (or own m exclusively during construction).
func (m *PartitionMap) resetLocked(a Assignment) {
	m.cur = a
	m.index = make(map[string]int, len(a.Nodes))
	for i, n := range a.Nodes {
		m.index[n] = i
	}
	m.pending = nil
	m.frozen = map[int]bool{}
	m.dual = map[int]string{}
}

// Current returns the current epoch's assignment (a deep copy).
func (m *PartitionMap) Current() Assignment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur.clone()
}

// Epoch returns the current epoch number.
func (m *PartitionMap) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur.Epoch
}

// Partitions returns the partition count.
func (m *PartitionMap) Partitions() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur.Partitions
}

// Nodes returns the current member ids in canonical order.
func (m *PartitionMap) Nodes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.cur.Nodes...)
}

// PartitionOf maps a key to its partition: the same FNV-1a hash the
// in-process shard router uses, taken modulo the partition count.
func (m *PartitionMap) PartitionOf(k telemetry.Key) int {
	m.mu.RLock()
	p := m.cur.Partitions
	m.mu.RUnlock()
	return k.ShardOf(p)
}

// Owner returns the node owning a partition in the current epoch.
func (m *PartitionMap) Owner(p int) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur.Owners[p]
}

// OwnedBy returns the partitions a node owns, ascending. Unknown nodes own
// nothing.
func (m *PartitionMap) OwnedBy(node string) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for p, o := range m.cur.Owners {
		if o == node {
			out = append(out, p)
		}
	}
	return out
}

// NodeInfo builds the self-describing health identity a cluster node
// surfaces through telemetry.Config.Node.
func (m *PartitionMap) NodeInfo(node string) *telemetry.NodeInfo {
	return &telemetry.NodeInfo{
		Role:       "node",
		ID:         node,
		Partitions: m.OwnedBy(node),
	}
}

// --- Migration state machine (driven by Migrator, migrate.go) ---

// BeginMigration stages the next epoch. It refuses a table that is not the
// direct successor of the current epoch or that changes the immutable
// partition count, and refuses to stack migrations.
func (m *PartitionMap) BeginMigration(next Assignment) error {
	if err := next.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending != nil {
		return fmt.Errorf("cluster: migration to epoch %d already in flight", m.pending.Epoch)
	}
	if next.Epoch != m.cur.Epoch+1 {
		return fmt.Errorf("cluster: epoch %d does not succeed %d", next.Epoch, m.cur.Epoch)
	}
	if next.Partitions != m.cur.Partitions {
		return fmt.Errorf("cluster: epoch %d changes the partition count (%d → %d)",
			next.Epoch, m.cur.Partitions, next.Partitions)
	}
	staged := next.clone()
	m.pending = &staged
	return nil
}

// Freeze marks a partition's ingest frozen: the router refuses it (retry
// backoff absorbs the pause) while the handoff cuts and ships its pages.
func (m *PartitionMap) Freeze(p int) {
	m.mu.Lock()
	m.frozen[p] = true
	m.mu.Unlock()
}

// Cutover ends a partition's freeze and starts dual-epoch writes: from now
// until activation, every write to the partition must be acked by both the
// current owner and the pending owner.
func (m *PartitionMap) Cutover(p int) {
	m.mu.Lock()
	delete(m.frozen, p)
	if m.pending != nil && m.pending.Owners[p] != m.cur.Owners[p] {
		m.dual[p] = m.pending.Owners[p]
	}
	m.mu.Unlock()
}

// Unfreeze lifts a freeze without starting dual writes — the rollback path.
func (m *PartitionMap) Unfreeze(p int) {
	m.mu.Lock()
	delete(m.frozen, p)
	m.mu.Unlock()
}

// RouteTarget is one partition's routing state, snapshotted atomically:
// the owner to deliver to, the dual-write target that must also ack while
// a migration is in flight, and whether ingest is frozen mid-handoff. The router must read all of these under one lock —
// read piecemeal, an Activate could land between the owner read and the
// dual-target read, clearing the dual map so an envelope is acked having
// reached only the losing owner, whose copy the migrator then drops.
type RouteTarget struct {
	Owner   string
	Dual    string
	HasDual bool
	Frozen  bool
}

// Route snapshots partition p's routing state under a single read lock.
func (m *PartitionMap) Route(p int) RouteTarget {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rt := RouteTarget{Owner: m.cur.Owners[p], Frozen: m.frozen[p]}
	rt.Dual, rt.HasDual = m.dual[p]
	return rt
}

// Activate atomically installs the pending epoch as current, ending the
// migration: routing flips to the new owners, freezes and dual writes
// clear.
func (m *PartitionMap) Activate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending == nil {
		return fmt.Errorf("cluster: no migration in flight")
	}
	m.resetLocked(*m.pending)
	return nil
}

// Abort discards the pending epoch and clears all migration state — the
// rollback path; the cluster keeps routing on the current epoch exactly as
// before BeginMigration.
func (m *PartitionMap) Abort() {
	m.mu.Lock()
	m.pending = nil
	m.frozen = map[int]bool{}
	m.dual = map[int]string{}
	m.mu.Unlock()
}

// Migrating lists the partitions whose answers may lag right now: every
// owner-changing partition while a migration is in flight. Ascending, nil
// when none is.
func (m *PartitionMap) Migrating() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.movedSinceLocked(m.cur)
}

// MovedSince lists the partitions an answer gathered on placement a may
// have wrong now: every partition whose owner changed between a and the
// current epoch (an activation landed since a was read), plus every
// owner-changing partition of a migration in flight. Ascending, nil when
// none. MovedSince(Current()) is Migrating().
func (m *PartitionMap) MovedSince(a Assignment) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.movedSinceLocked(a)
}

func (m *PartitionMap) movedSinceLocked(a Assignment) []int {
	var out []int
	for p, owner := range m.cur.Owners {
		if owner != a.Owners[p] || (m.pending != nil && m.pending.Owners[p] != owner) {
			out = append(out, p)
		}
	}
	return out
}
