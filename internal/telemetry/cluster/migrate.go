package cluster

import (
	"context"
	"fmt"
	"sync"

	"edgescope/internal/telemetry"
)

// The rebalance coordinator. A Migrator turns a membership change
// (join/leave/drain) into an epoch transition executed against live nodes:
//
//	propose   next = Rebalance(cur, members±node); pm.BeginMigration(next)
//	per part  freeze → flush sources → fetch pages → drop dest →
//	          absorb → cutover (dual-epoch writes on)
//	activate  pm.Activate() — routing flips atomically to the new owners
//	cleanup   drop the stale pre-migration copies on losing nodes
//
// Data moves as sketch pages — the same binary wire format /sketches
// serves — cut under a two-level freeze (router-side refusal plus the
// source ingestor's own partition freeze) so the page cut is exact: every
// acked envelope is either inside the shipped pages or redelivered into
// the dual-write phase, never lost between them. The destination is
// rebuilt drop-then-absorb from coordinator-held pages on every attempt,
// which is what makes a retry after a mid-transfer crash idempotent
// instead of double-counting. The rebuild is destructive, but only ever at
// a node the current epoch does not assign the partition to (a move's
// destination is next.Owners[p] ≠ cur.Owners[p], and a partition has
// exactly one assigned member): whatever it destroys there is a staged or
// stale copy no query reads and no write routes to, never the partition's
// truth, which stays on the source until activation. If a partition's
// handoff cannot complete within the attempt budget the whole migration
// rolls back: the pending epoch is discarded, freezes lift, the staged
// copies are dropped best-effort, and the cluster keeps routing on the old
// epoch exactly as before.

// NodeAdmin is the rebalance control plane's transport to one node:
// HTTPNode, over the /admin/* legs a node serves (internal/telemetry/serve),
// optionally wrapped in a fault injector.
type NodeAdmin interface {
	// Flush settles every accepted envelope into queryable rollups (and
	// the WAL), so a page cut taken after it is complete.
	Flush(ctx context.Context) error
	// FreezePartition makes the node refuse ingest for one partition — the
	// source side of the exact cut (telemetry.Ingestor.FreezePartition).
	FreezePartition(ctx context.Context, p, of int) error
	// UnfreezePartition lifts a partition freeze (idempotent).
	UnfreezePartition(ctx context.Context, p, of int) error
	// PartitionPages returns the node's durable state for one partition in
	// sketch-page wire form.
	PartitionPages(ctx context.Context, p, of int) ([]telemetry.SketchPage, error)
	// AbsorbPages folds pages into the node's rollups, durably (WAL
	// control records). The ack reports what was applied.
	AbsorbPages(ctx context.Context, pages []telemetry.SketchPage) (telemetry.AbsorbAck, error)
	// DropPartition removes the node's copy of one partition, durably.
	DropPartition(ctx context.Context, p, of int) (int, error)
	// PushAssignment installs an activated epoch's table on the node, so
	// its /healthz self-description tracks the placement it serves.
	PushAssignment(ctx context.Context, a Assignment) error
}

// HandoffStep names one point in a partition's handoff, for fault
// injection and tracing. Phases, in order: "freeze", "flush", "fetch",
// "rebuild" (drop+absorb at the destination), "cutover"; then per
// migration "activate" and per stale copy "drop_stale".
type HandoffStep struct {
	Phase     string
	Partition int
	Source    string
	Dest      string
}

// StepHook intercepts handoff steps. Returning an error fails that step
// exactly as a transport failure would — the attempt retries or the
// migration rolls back. The chaos harness injects handoff-phase faults
// through this seam.
type StepHook func(HandoffStep) error

// MigratorConfig tunes the rebalance coordinator.
type MigratorConfig struct {
	// Health, when set, gains/loses probed members as the migrator
	// admits/removes them — a joining node must be probed (and start Up)
	// before dual writes can target it.
	Health *HealthTracker
	// Hook, when set, intercepts every handoff step (fault injection).
	Hook StepHook
	// OnActivate, when set, observes each activated epoch — the frontend
	// persists its cluster state here.
	OnActivate func(Assignment)
}

// rebuildAttempts bounds per-partition rebuild tries (each a full
// drop-then-absorb at the destination).
const rebuildAttempts = 3

// Migrator executes epoch transitions. One migration runs at a time
// (Join/Leave/Drain serialize on an internal mutex); ingest and
// queries keep flowing throughout, per-partition freezes excepted.
type Migrator struct {
	pm  *PartitionMap
	cfg MigratorConfig

	mu sync.Mutex // serializes migrations

	adminMu sync.RWMutex
	admins  map[string]NodeAdmin
}

// NewMigrator builds a coordinator over a partition map and one admin
// transport per current member.
func NewMigrator(pm *PartitionMap, admins map[string]NodeAdmin, cfg MigratorConfig) *Migrator {
	m := &Migrator{pm: pm, cfg: cfg, admins: make(map[string]NodeAdmin, len(admins))}
	for n, a := range admins {
		m.admins[n] = a
	}
	return m
}

// AddAdmin wires (or replaces) a node's admin transport.
func (m *Migrator) AddAdmin(node string, a NodeAdmin) {
	m.adminMu.Lock()
	m.admins[node] = a
	m.adminMu.Unlock()
}

// RemoveAdmin unwires a departed node's admin transport.
func (m *Migrator) RemoveAdmin(node string) {
	m.adminMu.Lock()
	delete(m.admins, node)
	m.adminMu.Unlock()
}

// Admin returns the admin transport wired for a node, if any.
func (m *Migrator) Admin(node string) (NodeAdmin, bool) {
	m.adminMu.RLock()
	defer m.adminMu.RUnlock()
	a, ok := m.admins[node]
	return a, ok
}

// Migrating reports whether a migration is in flight right now.
func (m *Migrator) Migrating() bool {
	if !m.mu.TryLock() {
		return true
	}
	m.mu.Unlock()
	return false
}

// Join admits a new member: wires its admin, computes the minimal-movement
// next epoch, migrates, activates. On failure everything rolls back —
// admin unwired, health untracked, old epoch routing untouched. The
// caller wires the node's query client (Frontend.AddClient) before Join
// so the member is queryable the moment its epoch activates.
func (m *Migrator) Join(ctx context.Context, node string, admin NodeAdmin) (Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.pm.Current()
	if cur.Member(node) {
		return Assignment{}, fmt.Errorf("cluster: %q is already a member", node)
	}
	if admin != nil {
		m.AddAdmin(node, admin)
	}
	if _, ok := m.Admin(node); !ok {
		return Assignment{}, fmt.Errorf("cluster: no admin transport for joining node %q", node)
	}
	next, err := Rebalance(cur, append(append([]string(nil), cur.Nodes...), node))
	if err != nil {
		return Assignment{}, err
	}
	if m.cfg.Health != nil {
		m.cfg.Health.Add(node) // must be probed (and Up) before dual writes target it
	}
	if err := m.migrate(ctx, cur, next); err != nil {
		if m.cfg.Health != nil {
			m.cfg.Health.Remove(node)
		}
		m.RemoveAdmin(node)
		return Assignment{}, err
	}
	return next, nil
}

// Leave removes a member: its partitions hand off to the survivors, the
// epoch activates, and only then is the node unwired. The node's daemon
// can shut down once Leave returns — nothing routes to it anymore.
func (m *Migrator) Leave(ctx context.Context, node string) (Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.pm.Current()
	if !cur.Member(node) {
		return Assignment{}, fmt.Errorf("cluster: %q is not a member", node)
	}
	survivors := make([]string, 0, len(cur.Nodes)-1)
	for _, n := range cur.Nodes {
		if n != node {
			survivors = append(survivors, n)
		}
	}
	next, err := Rebalance(cur, survivors)
	if err != nil {
		return Assignment{}, err
	}
	if err := m.migrate(ctx, cur, next); err != nil {
		return Assignment{}, err
	}
	if m.cfg.Health != nil {
		m.cfg.Health.Remove(node)
	}
	m.RemoveAdmin(node)
	return next, nil
}

// Drain empties a member without removing it: its quota drops to zero and
// every partition it held hands off, but it stays probed and wired — the
// prelude to a clean Leave, which then moves nothing.
func (m *Migrator) Drain(ctx context.Context, node string) (Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.pm.Current()
	next, err := RebalanceDrain(cur, node)
	if err != nil {
		return Assignment{}, err
	}
	return next, m.migrate(ctx, cur, next)
}

// step runs the fault-injection hook, if any.
func (m *Migrator) step(phase string, p int, src, dst string) error {
	if m.cfg.Hook == nil {
		return nil
	}
	return m.cfg.Hook(HandoffStep{Phase: phase, Partition: p, Source: src, Dest: dst})
}

// migrate drives one epoch transition end to end: one handoff per owner
// change (Moves — a move's source is the partition's one assigned member,
// its destination a node the current epoch does not assign it to). On
// error the pending epoch is aborted, every completed handoff's staged copy
// is dropped, and the cluster keeps serving the current epoch.
func (m *Migrator) migrate(ctx context.Context, cur, next Assignment) error {
	if err := m.pm.BeginMigration(next); err != nil {
		return err
	}
	work := Moves(cur, next)
	for i, mv := range work {
		if err := m.handoff(ctx, mv); err != nil {
			m.rollback(work[:i])
			return fmt.Errorf("cluster: handoff of partition %d (%s → %s) failed, rolled back to epoch %d: %w",
				mv.Partition, mv.From, mv.To, cur.Epoch, err)
		}
	}
	if err := m.step("activate", -1, "", ""); err != nil {
		m.rollback(work)
		return fmt.Errorf("cluster: activation of epoch %d failed, rolled back: %w", next.Epoch, err)
	}
	if err := m.pm.Activate(); err != nil {
		m.rollback(work)
		return err
	}
	// The epoch is live: routing, ownership filtering and partiality all
	// flip atomically, and the staged copies are the partitions' truth.
	// What remains is cleanup that can no longer fail the migration — push
	// the table to members, then drop the stale pre-migration copies on
	// losing nodes.
	for _, n := range next.Nodes {
		if a, ok := m.Admin(n); ok {
			_ = a.PushAssignment(ctx, next) // best-effort: /healthz self-description only
		}
	}
	if m.cfg.OnActivate != nil {
		m.cfg.OnActivate(next)
	}
	for _, mv := range work {
		if m.step("drop_stale", mv.Partition, mv.From, mv.To) == nil {
			m.dropCopy(ctx, mv.From, mv.Partition)
		}
	}
	return nil
}

// dropCopy removes a copy of partition p from a node the current epoch
// does not assign it to — a losing owner's stale copy after activation, a
// destination's staged copy after a failed handoff or a rollback — best
// effort. Whether or not the drop lands the copy is invisible: queries
// filter every page by ownership (Frontend.filterPage) and nothing routes
// to an unassigned node. An undropped copy costs disk until the partition
// next moves onto that node, when the rebuild's drop-first clears it.
func (m *Migrator) dropCopy(ctx context.Context, node string, p int) {
	if a, ok := m.Admin(node); ok {
		_, _ = a.DropPartition(ctx, p, m.pm.Partitions())
	}
}

// handoff rebuilds one partition at its destination. The freeze and the
// page fetch happen once; the destination rebuild (drop, then absorb the
// held pages) retries up to the attempt budget — drop-then-rebuild from
// an immutable cut is what makes a retry after a destination crash
// idempotent. Any failure drops what the rebuild staged, unfreezes and
// reports; the caller rolls the migration back.
func (m *Migrator) handoff(ctx context.Context, mv Move) (err error) {
	p, parts := mv.Partition, m.pm.Partitions()
	dst, ok := m.Admin(mv.To)
	if !ok {
		return fmt.Errorf("no admin transport for destination %q", mv.To)
	}

	// Freeze: router-side first (new sends refuse and back off), then the
	// source node-side (the exact cut — an envelope accepted before the
	// node freeze is flushed into the pages; one accepted after cutover is
	// dual-written; the freeze window admits nothing).
	if err := m.step("freeze", p, mv.From, mv.To); err != nil {
		return err
	}
	m.pm.Freeze(p)
	var frozen NodeAdmin // the source, once frozen node-side
	staged := false      // a drop was issued at the destination
	defer func() {
		if err != nil {
			if staged {
				m.dropCopy(ctx, mv.To, p)
			}
			m.pm.Unfreeze(p)
			if frozen != nil {
				_ = frozen.UnfreezePartition(ctx, p, parts) // best-effort; a crash clears it anyway
			}
		}
	}()
	src, ok := m.Admin(mv.From)
	if !ok {
		return fmt.Errorf("no admin transport for source %q", mv.From)
	}
	if err := src.FreezePartition(ctx, p, parts); err != nil {
		return fmt.Errorf("freeze %q: %w", mv.From, err)
	}
	frozen = src

	// Flush + fetch: settle every accepted envelope into rollups, then cut
	// the pages. The cut is immutable for the rest of the handoff — the
	// freeze guarantees nothing lands behind it.
	if err := m.step("flush", p, mv.From, mv.To); err != nil {
		return err
	}
	if err := src.Flush(ctx); err != nil {
		return fmt.Errorf("flush %q: %w", mv.From, err)
	}
	if err := m.step("fetch", p, mv.From, mv.To); err != nil {
		return err
	}
	pages, err := src.PartitionPages(ctx, p, parts)
	if err != nil {
		return fmt.Errorf("fetch %q: %w", mv.From, err)
	}

	// Rebuild: drop whatever the destination holds (a partial earlier
	// attempt, a recovered crash's remnant, an undropped stale copy from an
	// epoch that once placed the partition here) and absorb the held cut.
	// Every attempt starts from empty, so retries converge instead of
	// double-counting.
	rebuilt := false
	for attempt := 0; attempt < rebuildAttempts; attempt++ {
		if err := m.step("rebuild", p, mv.From, mv.To); err != nil {
			continue
		}
		staged = true
		if _, err := dst.DropPartition(ctx, p, parts); err != nil {
			continue
		}
		if _, err := dst.AbsorbPages(ctx, pages); err != nil {
			continue
		}
		rebuilt = true
		break
	}
	if !rebuilt {
		return fmt.Errorf("destination %q rebuild did not complete in %d attempts", mv.To, rebuildAttempts)
	}

	// Cutover: lift the router-side freeze and start dual-epoch writes
	// (both owners must ack every envelope for this partition until
	// activation), then unfreeze the source so held-back traffic drains.
	if err := m.step("cutover", p, mv.From, mv.To); err != nil {
		return err
	}
	m.pm.Cutover(p)
	_ = src.UnfreezePartition(ctx, p, parts)
	return nil
}

// rollback discards a failed migration: the pending epoch aborts (routing
// never left the current one, and with the dual-write map cleared nothing
// routes to a destination any more), then every completed handoff's staged
// copy is dropped.
func (m *Migrator) rollback(done []Move) {
	m.pm.Abort()
	for _, mv := range done {
		m.dropCopy(context.Background(), mv.To, mv.Partition)
	}
}
