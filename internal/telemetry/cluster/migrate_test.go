package cluster

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"edgescope/internal/faultinject"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// add stands up an ingestor for a joining member — the harness half of an
// elastic join (the daemon boot; Migrator.Join is the cluster half).
func (c *testCluster) add(node string) {
	cfg := telemetry.Config{Shards: 2, QueueLen: 1024, Block: true, Node: &telemetry.NodeInfo{Role: "node", ID: node}}
	if c.walDir != "" {
		cfg.WAL = telemetry.WALConfig{Dir: filepath.Join(c.walDir, node), SyncEvery: 1}
	}
	c.mu.Lock()
	c.cfgs[node] = cfg
	c.ings[node] = telemetry.NewIngestor(cfg)
	c.mu.Unlock()
}

// testAdmin adapts a harness member to NodeAdmin, resolving the live
// ingestor per call (so crashes and recoveries are observed) and erroring
// while the member is down.
type testAdmin struct {
	c    *testCluster
	node string
}

func (a testAdmin) ing() (*telemetry.Ingestor, error) {
	ing := a.c.get(a.node)
	if ing == nil {
		return nil, fmt.Errorf("node %s down", a.node)
	}
	return ing, nil
}

func (a testAdmin) Flush(context.Context) error {
	ing, err := a.ing()
	if err != nil {
		return err
	}
	ing.Flush()
	return nil
}

func (a testAdmin) FreezePartition(_ context.Context, p, of int) error {
	ing, err := a.ing()
	if err != nil {
		return err
	}
	return ing.FreezePartition(p, of)
}

func (a testAdmin) UnfreezePartition(_ context.Context, p, of int) error {
	ing, err := a.ing()
	if err != nil {
		return err
	}
	ing.UnfreezePartition(p, of)
	return nil
}

func (a testAdmin) PartitionPages(_ context.Context, p, of int) ([]telemetry.SketchPage, error) {
	ing, err := a.ing()
	if err != nil {
		return nil, err
	}
	return ing.PartitionPages(p, of)
}

func (a testAdmin) AbsorbPages(_ context.Context, pages []telemetry.SketchPage) (telemetry.AbsorbAck, error) {
	ing, err := a.ing()
	if err != nil {
		return telemetry.AbsorbAck{}, err
	}
	return ing.AbsorbPages(pages)
}

func (a testAdmin) DropPartition(_ context.Context, p, of int) (int, error) {
	ing, err := a.ing()
	if err != nil {
		return 0, err
	}
	return ing.DropPartition(p, of)
}

func (a testAdmin) PushAssignment(_ context.Context, as Assignment) error {
	ing, err := a.ing()
	if err != nil {
		return err
	}
	ing.SetNodeInfo(as.NodeInfo(a.node))
	return nil
}

// newTestMigrator wires a Migrator over every current harness member.
func newTestMigrator(c *testCluster, pm *PartitionMap, h *HealthTracker, hook StepHook) *Migrator {
	admins := map[string]NodeAdmin{}
	for _, n := range pm.Nodes() {
		admins[n] = testAdmin{c: c, node: n}
	}
	return NewMigrator(pm, admins, MigratorConfig{Health: h, Hook: hook})
}

// TestJoinDrainLeaveByteIdenticalAcrossScenarios is the elastic-membership
// acceptance pin: for every built-in scenario, a 3-node cluster ingests
// two thirds of the stream, a 4th node joins (live handoff), the rest of
// the stream routes on the new epoch, then a member drains and leaves —
// and after every membership change the full query surface stays
// byte-identical to a single-node replay of the whole stream.
func TestJoinDrainLeaveByteIdenticalAcrossScenarios(t *testing.T) {
	for _, name := range builtinScenarios {
		t.Run(name, func(t *testing.T) {
			sp := scenario.MustGet(name)
			events := scenarioEvents(t, sp)
			ctx := context.Background()

			single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
			defer single.Close()
			if st := telemetry.Replay(single, events); st.Dropped != 0 {
				t.Fatalf("single-node replay dropped %d", st.Dropped)
			}
			want := singleFingerprint(t, single)

			pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
			c := newTestCluster(t, pm, "")
			tracker := alwaysUpTracker(pm.Nodes())
			router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
				Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
			})
			f := NewFrontend(pm, c.clients(), FrontendConfig{})
			mig := newTestMigrator(c, pm, tracker, nil)

			cut := len(events) * 2 / 3
			if sent := router.SendAll(events[:cut]); sent != cut {
				t.Fatalf("pre-join replay delivered %d of %d", sent, cut)
			}

			// Live join: boot the member, wire its query client, migrate.
			c.add("n3")
			f.AddClient("n3", liveNode{c: c, node: "n3"})
			next, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"})
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if next.Epoch != 2 || pm.Epoch() != 2 {
				t.Fatalf("post-join epoch = %d/%d", next.Epoch, pm.Epoch())
			}
			if owned := pm.OwnedBy("n3"); len(owned) != 4 {
				t.Fatalf("n3 owns %v, want its quota of 4", owned)
			}
			if mig := pm.Migrating(); mig != nil {
				t.Fatalf("join left migration residue: %v", mig)
			}

			if sent := router.SendAll(events[cut:]); sent != len(events)-cut {
				t.Fatalf("post-join replay delivered %d of %d", sent, len(events)-cut)
			}
			c.flushAll()
			if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
				t.Fatal("post-join answers diverged from single-node replay")
			}

			// Drain then leave: the drained member's partitions hand off,
			// the subsequent leave moves nothing.
			if _, err := mig.Drain(ctx, "n2"); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if owned := pm.OwnedBy("n2"); len(owned) != 0 {
				t.Fatalf("drained n2 still owns %v", owned)
			}
			if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
				t.Fatal("post-drain answers diverged from single-node replay")
			}
			left, err := mig.Leave(ctx, "n2")
			if err != nil {
				t.Fatalf("Leave: %v", err)
			}
			if left.Member("n2") || pm.Epoch() != 4 {
				t.Fatalf("post-leave state: member=%v epoch=%d", left.Member("n2"), pm.Epoch())
			}
			if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
				t.Fatal("post-leave answers diverged from single-node replay")
			}
		})
	}
}

// TestJoinMidMigrationFreezeAndDualWrites pins the migration-window ingest
// contract: a send racing a partition's exact-cut freeze is refused (and
// lands cleanly when retried after cutover), and sends between cutover and
// activation are dual-written to both epochs' owners — with the final
// answers still byte-identical to a single node.
func TestJoinMidMigrationFreezeAndDualWrites(t *testing.T) {
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
	var router *Router
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	cut := len(events) / 2
	rest := events[cut:]

	// The hook drives traffic into the migration window from the
	// coordinator's own goroutine (the send contract is single-goroutine):
	// one probe against a frozen partition, then the whole remaining
	// stream between the last cutover and activation.
	var frozenProbe *telemetry.Envelope
	probedFrozen, sentRest := false, false
	hook := func(s HandoffStep) error {
		switch s.Phase {
		case "rebuild":
			if probedFrozen {
				return nil
			}
			for i := range rest {
				if rest[i].Key().ShardOf(16) == s.Partition {
					if router.Send(rest[i]) {
						t.Errorf("send to frozen partition %d was acked", s.Partition)
					}
					frozenProbe = &rest[i]
					probedFrozen = true
					break
				}
			}
		case "activate":
			for i := range rest {
				if frozenProbe != nil && &rest[i] == frozenProbe {
					continue // resent separately below, after the freeze probe failed
				}
				if !router.Send(rest[i]) {
					t.Errorf("mid-migration send refused after cutover")
				}
			}
			sentRest = true
		}
		return nil
	}
	mig := newTestMigrator(c, pm, tracker, hook)
	router = NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})

	if sent := router.SendAll(events[:cut]); sent != cut {
		t.Fatalf("pre-join replay delivered %d of %d", sent, cut)
	}
	c.add("n3")
	f.AddClient("n3", liveNode{c: c, node: "n3"})
	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !probedFrozen || !sentRest {
		t.Fatalf("migration window not exercised: frozen=%v rest=%v", probedFrozen, sentRest)
	}
	// The refused envelope retries after the migration — a fresh sequence
	// number, folded exactly once.
	if frozenProbe != nil && !router.Send(*frozenProbe) {
		t.Fatal("post-migration resend refused")
	}
	c.flushAll()

	st := router.Stats()
	if st.Frozen == 0 {
		t.Fatalf("freeze refusal not observed: %+v", st)
	}
	if st.DualWrites == 0 {
		t.Fatalf("dual-write phase not observed: %+v", st)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("mid-migration traffic diverged from single-node replay")
	}
}

// TestHandoffKillGainingRollsBackThenRetryConverges: the gaining node is
// hard-killed mid-transfer (seeded handoff fault). The migration must roll
// back — the cluster keeps answering on the old epoch, byte-identical,
// nothing partial — and a retried join after recovery must converge.
func TestHandoffKillGainingRollsBackThenRetryConverges(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	ctx := context.Background()

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, t.TempDir())
	tracker := alwaysUpTracker(pm.Nodes())
	router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	inj := faultinject.NewHandoff(&faultinject.Spec{HandoffKillGaining: 1, HandoffSpan: 64}, sp.Seed, faultinject.HandoffHooks{
		Kill:    func(node string) { c.crash(node) },
		Recover: func(node string) { c.recover(node) },
	})
	chaos := true
	mig := newTestMigrator(c, pm, tracker, func(s HandoffStep) error {
		if !chaos {
			return nil
		}
		return inj.Step(s.Phase, s.Partition, s.Source, s.Dest)
	})

	if sent := router.SendAll(events); sent != len(events) {
		t.Fatalf("replay delivered %d of %d", sent, len(events))
	}
	c.flushAll()

	c.add("n3")
	f.AddClient("n3", liveNode{c: c, node: "n3"})
	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err == nil {
		t.Fatal("join with the gaining node killed mid-transfer must fail")
	}
	if st := inj.Stats(); st.Kills == 0 {
		t.Fatalf("no kill injected: %+v", st)
	}
	// Rolled back: old epoch, old membership, complete answers.
	if pm.Epoch() != 1 || pm.pending != nil {
		t.Fatalf("rollback left epoch=%d pending=%v", pm.Epoch(), pm.pending)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("rolled-back cluster diverged from single-node replay")
	}

	// Recover the victim and retry: the join is idempotent — the retry
	// rebuilds the destination from scratch and converges.
	inj.RecoverAll()
	chaos = false
	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err != nil {
		t.Fatalf("retried join: %v", err)
	}
	if pm.Epoch() != 2 || len(pm.OwnedBy("n3")) != 4 {
		t.Fatalf("retried join state: epoch=%d owned=%v", pm.Epoch(), pm.OwnedBy("n3"))
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-retry cluster diverged from single-node replay")
	}
}

// TestHandoffCrashRecoverRetryIsIdempotent: the gaining node already holds
// a stale partial copy of a moving partition (a previous attempt the
// coordinator lost track of), and crashes-then-recovers durably mid-
// migration. The retry must rebuild drop-then-absorb — wiping both the
// pollution and whatever the crash left — and converge byte-identically,
// never double-counting.
func TestHandoffCrashRecoverRetryIsIdempotent(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	ctx := context.Background()

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, t.TempDir())
	tracker := alwaysUpTracker(pm.Nodes())
	router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	if sent := router.SendAll(events); sent != len(events) {
		t.Fatalf("replay delivered %d of %d", sent, len(events))
	}
	c.flushAll()

	c.add("n3")
	f.AddClient("n3", liveNode{c: c, node: "n3"})

	// Pollute: stage one moving partition's full pages onto n3 as if an
	// earlier attempt had absorbed them and then been forgotten.
	next, err := Rebalance(pm.Current(), []string{"n0", "n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	moves := Moves(pm.Current(), next)
	if len(moves) == 0 {
		t.Fatal("no moves planned")
	}
	polluted := moves[0].Partition
	pages, err := c.get(moves[0].From).PartitionPages(polluted, 16)
	if err != nil || len(pages) == 0 {
		t.Fatalf("cutting pollution pages: %v (%d pages)", err, len(pages))
	}
	if _, err := c.get("n3").AbsorbPages(pages); err != nil {
		t.Fatalf("staging pollution: %v", err)
	}

	// One crash-recover fault at the first rebuild step, through the
	// injector; the recovered node keeps its durable (polluted) state.
	inj := faultinject.NewHandoff(&faultinject.Spec{HandoffCrashRecover: 1}, sp.Seed, faultinject.HandoffHooks{
		CrashRecover: func(node string) { c.crash(node); c.recover(node) },
	})
	fired := false
	mig := newTestMigrator(c, pm, tracker, func(s HandoffStep) error {
		if s.Phase != "rebuild" || fired {
			return nil
		}
		fired = true
		return inj.Step(s.Phase, s.Partition, s.Source, s.Dest)
	})

	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if st := inj.Stats(); st.CrashRecovers != 1 {
		t.Fatalf("crash-recover not injected: %+v", st)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("crash-recover retry double-counted or lost data")
	}
	// And the whole thing is durable: kill every member, recover, re-check.
	for _, n := range pm.Nodes() {
		c.crash(n)
		c.recover(n)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-recovery answers diverged")
	}
}

// TestHandoffPartitionSourceRollsBack: the coordinator loses the losing
// owner mid-handoff. The migration rolls back (old epoch keeps serving,
// complete answers), and a retried join after the link heals converges.
func TestHandoffPartitionSourceRollsBack(t *testing.T) {
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
	inj := faultinject.NewHandoff(&faultinject.Spec{HandoffPartitionSource: 1, HandoffSpan: 64}, sp.Seed, faultinject.HandoffHooks{})
	chaos := true
	mig := newTestMigrator(c, pm, tracker, func(s HandoffStep) error {
		if !chaos {
			return nil
		}
		return inj.Step(s.Phase, s.Partition, s.Source, s.Dest)
	})

	if sent := router.SendAll(events); sent != len(events) {
		t.Fatalf("replay delivered %d of %d", sent, len(events))
	}
	c.flushAll()
	c.add("n3")
	f.AddClient("n3", liveNode{c: c, node: "n3"})

	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err == nil {
		t.Fatal("join with the source partitioned away must fail")
	}
	if st := inj.Stats(); st.Partitions == 0 {
		t.Fatalf("no source partition injected: %+v", st)
	}
	if pm.Epoch() != 1 {
		t.Fatalf("epoch advanced despite rollback: %d", pm.Epoch())
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("rolled-back cluster diverged from single-node replay")
	}

	inj.RecoverAll()
	chaos = false
	if _, err := mig.Join(ctx, "n3", testAdmin{c: c, node: "n3"}); err != nil {
		t.Fatalf("retried join: %v", err)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-retry cluster diverged from single-node replay")
	}
}

// TestMigratorValidation pins the admission guards.
func TestMigratorValidation(t *testing.T) {
	ctx := context.Background()
	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, "")
	mig := newTestMigrator(c, pm, alwaysUpTracker(pm.Nodes()), nil)

	if _, err := mig.Join(ctx, "n1", testAdmin{c: c, node: "n1"}); err == nil {
		t.Fatal("joining an existing member must error")
	}
	if _, err := mig.Join(ctx, "n9", nil); err == nil {
		t.Fatal("joining with no admin transport must error")
	}
	if _, err := mig.Leave(ctx, "ghost"); err == nil {
		t.Fatal("leaving a non-member must error")
	}
	if _, err := mig.Drain(ctx, "ghost"); err == nil {
		t.Fatal("draining a non-member must error")
	}
}
