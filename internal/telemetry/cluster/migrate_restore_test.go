package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// Undropped copies. Every drop the migrator issues outside a rebuild is
// best-effort — the stale copy on a losing owner after activation, the
// staged copy on a destination after a rollback — because the node it
// lands on is never assigned the partition: the ownership filter hides the
// copy whether or not the drop succeeds, and the rebuild's drop-first
// clears it if the partition ever moves there. These tests fail those
// drops on purpose.

// holds reports whether a member has any durable state for partition p.
func holds(t *testing.T, c *testCluster, node string, p int) bool {
	t.Helper()
	pages, err := c.get(node).PartitionPages(p, c.pm.Partitions())
	if err != nil {
		t.Fatal(err)
	}
	return len(pages) > 0
}

// TestFailedStaleDropsStayInvisibleAndClearOnReturn: every drop_stale of a
// join fails, so each losing owner keeps its pre-migration copy. The epoch
// still activates and answers stay complete and byte-identical to a single
// node while more traffic lands on the new owners (the kept copies go
// truly stale). Then the newcomer leaves and partitions move back onto
// members still holding those stale copies: the rebuild's drop-first must
// clear them, or the absorb would double-count.
func TestFailedStaleDropsStayInvisibleAndClearOnReturn(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	ctx := context.Background()

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, "")
	tracker := alwaysUpTracker(pm.Nodes())
	router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})
	f := NewFrontend(pm, c.clients(), FrontendConfig{})
	mig := newTestMigrator(c, pm, tracker, func(s HandoffStep) error {
		if s.Phase == "drop_stale" {
			return errors.New("injected drop failure")
		}
		return nil
	})

	cut := len(events) * 2 / 3
	if sent := router.SendAll(events[:cut]); sent != cut {
		t.Fatalf("pre-join replay delivered %d of %d", sent, cut)
	}
	before := pm.Current()
	c.add("n3")
	f.AddClient("n3", liveNode{c: c, node: "n3"})
	joined, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"})
	if err != nil {
		t.Fatalf("Join with every stale drop failing: %v", err)
	}
	if pm.Epoch() != 2 || pm.Migrating() != nil {
		t.Fatalf("post-join epoch=%d migrating=%v", pm.Epoch(), pm.Migrating())
	}
	for _, mv := range Moves(before, joined) {
		if !holds(t, c, mv.From, mv.Partition) {
			t.Fatalf("drop_stale failed, yet %s no longer holds partition %d", mv.From, mv.Partition)
		}
	}
	if sent := router.SendAll(events[cut:]); sent != len(events)-cut {
		t.Fatalf("post-join replay delivered %d of %d", sent, len(events)-cut)
	}
	c.flushAll()
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("undropped stale copies leaked into the answers")
	}

	left, err := mig.Leave(ctx, "n3")
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	returned := 0
	for _, mv := range Moves(joined, left) {
		if before.Owners[mv.Partition] == mv.To {
			returned++ // back onto the member whose stale copy was never dropped
		}
	}
	if returned == 0 {
		t.Fatal("no partition moved back onto a stale copy; the test no longer exercises drop-first")
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("a partition returning onto its undropped stale copy double-counted or lost data")
	}
}

// stuckAdmin is a testAdmin whose DropPartition fails while *stuck.
type stuckAdmin struct {
	testAdmin
	stuck *bool
}

func (a stuckAdmin) DropPartition(ctx context.Context, p, of int) (int, error) {
	if *a.stuck {
		return 0, errors.New("injected drop failure")
	}
	return a.testAdmin.DropPartition(ctx, p, of)
}

// TestRollbackWithFailedStagedDropsKeepsOldEpochAndRetryConverges: the
// activation step fails after every handoff completed, and every drop of
// the rollback fails too, so the destinations keep their staged copies —
// on a joiner that never becomes a member, and (drain) on members every
// query gathers from. The old epoch must answer unchanged, and the retried
// change must converge: its rebuilds drop the leftovers first.
func TestRollbackWithFailedStagedDropsKeepsOldEpochAndRetryConverges(t *testing.T) {
	for name, change := range map[string]func(context.Context, *Migrator, *testCluster, *bool) (Assignment, error){
		"join": func(ctx context.Context, mig *Migrator, c *testCluster, stuck *bool) (Assignment, error) {
			return mig.Join(ctx, "n3", stuckAdmin{testAdmin{c: c, node: "n3"}, stuck})
		},
		"drain": func(ctx context.Context, mig *Migrator, _ *testCluster, _ *bool) (Assignment, error) {
			return mig.Drain(ctx, "n2")
		},
	} {
		t.Run(name, func(t *testing.T) {
			sp := scenario.MustGet("small")
			events := scenarioEvents(t, sp)
			ctx := context.Background()

			single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
			defer single.Close()
			telemetry.Replay(single, events)
			want := singleFingerprint(t, single)

			pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
			c := newTestCluster(t, pm, "")
			tracker := alwaysUpTracker(pm.Nodes())
			router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
				Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
			})
			f := NewFrontend(pm, c.clients(), FrontendConfig{})
			c.add("n3")
			f.AddClient("n3", liveNode{c: c, node: "n3"})

			failing, stuck := true, false // first attempt: activation fails, then every drop
			admins := map[string]NodeAdmin{}
			for _, n := range pm.Nodes() {
				admins[n] = stuckAdmin{testAdmin{c: c, node: n}, &stuck}
			}
			var staged []HandoffStep
			mig := NewMigrator(pm, admins, MigratorConfig{Health: tracker, Hook: func(s HandoffStep) error {
				switch {
				case failing && s.Phase == "cutover":
					staged = append(staged, s)
				case failing && s.Phase == "activate":
					stuck = true // the rollback's drops will not land
					return errors.New("injected activation failure")
				}
				return nil
			}})

			if sent := router.SendAll(events); sent != len(events) {
				t.Fatalf("replay delivered %d of %d", sent, len(events))
			}
			c.flushAll()

			if _, err := change(ctx, mig, c, &stuck); err == nil {
				t.Fatal("the change must fail at activation")
			}
			if pm.Epoch() != 1 || pm.pending != nil || pm.Migrating() != nil {
				t.Fatalf("rollback left epoch=%d pending=%v migrating=%v", pm.Epoch(), pm.pending, pm.Migrating())
			}
			if len(staged) == 0 {
				t.Fatal("no handoff completed before the activation failure")
			}
			for _, s := range staged {
				if !holds(t, c, s.Dest, s.Partition) {
					t.Fatalf("rollback drop failed, yet %s no longer holds staged partition %d", s.Dest, s.Partition)
				}
			}
			if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
				t.Fatal("undropped staged copies leaked into the old epoch's answers")
			}

			failing, stuck = false, false
			if _, err := change(ctx, mig, c, &stuck); err != nil {
				t.Fatalf("retried change: %v", err)
			}
			if pm.Epoch() != 2 {
				t.Fatalf("retried change left epoch %d", pm.Epoch())
			}
			if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
				t.Fatal("retry over undropped staged copies double-counted or lost data")
			}
		})
	}
}

// TestRouterActivationRaceNeverAcksOldOwnerOnly pins the routing snapshot
// against an epoch activation racing a delivery: whichever side of the
// cutover the snapshot lands on, an acked envelope must exist on the new
// epoch's owner — never only on the old owner, whose copy the migrator
// drops right after activation.
func TestRouterActivationRaceNeverAcksOldOwnerOnly(t *testing.T) {
	e := telemetry.Envelope{V: 1, TS: 60_000, Kind: "ping", Metric: telemetry.MetricRTT, User: 7, Region: "metro-a", Net: "fiber", Value: 12.5}

	build := func(t *testing.T) (*PartitionMap, int, Assignment) {
		pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"a", "b"}})
		p := pm.PartitionOf(e.Key())
		cur := pm.Current()
		next := cur.clone()
		next.Epoch++
		// Move the envelope's partition a→b (wherever it currently lives).
		if cur.Owners[p] == "a" {
			next.Owners[p] = "b"
		} else {
			next.Owners[p] = "a"
		}
		if err := pm.BeginMigration(next); err != nil {
			t.Fatal(err)
		}
		return pm, p, next
	}

	t.Run("activation between delivery and dual check", func(t *testing.T) {
		// The dual-write phase is on; the old owner's ack triggers the
		// activation before the router looks at the dual target again. The
		// snapshot taken before the transport must already have committed
		// the router to delivering both copies.
		pm, p, next := build(t)
		pm.Cutover(p)
		oldOwner, newOwner := pm.Owner(p), next.Owners[p]
		delivered := map[string]int{}
		transport := func(node string, ev telemetry.Envelope) bool {
			delivered[node]++
			if node == oldOwner && pm.pending != nil {
				if err := pm.Activate(); err != nil {
					t.Fatal(err)
				}
			}
			return true
		}
		r := NewRouter(pm, alwaysUpTracker(pm.Nodes()), transport, rng.New(1), RouterConfig{
			Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
		})
		if !r.Send(e) {
			t.Fatal("send not acked")
		}
		if delivered[newOwner] == 0 {
			t.Fatalf("acked envelope never reached the new owner %q: %v", newOwner, delivered)
		}
	})

	t.Run("cutover and activation during delivery", func(t *testing.T) {
		// The snapshot predates the dual-write phase entirely; cutover AND
		// activation land while the envelope is in flight to the old owner.
		// The router must refuse that ack and redeliver to the new owner.
		pm, p, next := build(t)
		oldOwner, newOwner := pm.Owner(p), next.Owners[p]
		delivered := map[string]int{}
		transport := func(node string, ev telemetry.Envelope) bool {
			delivered[node]++
			if node == oldOwner && pm.pending != nil {
				pm.Cutover(p)
				if err := pm.Activate(); err != nil {
					t.Fatal(err)
				}
			}
			return true
		}
		r := NewRouter(pm, alwaysUpTracker(pm.Nodes()), transport, rng.New(1), RouterConfig{
			Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
		})
		if !r.Send(e) {
			t.Fatal("send not acked after retry")
		}
		if delivered[newOwner] == 0 {
			t.Fatalf("acked envelope never reached the new owner %q: %v", newOwner, delivered)
		}
	})
}
