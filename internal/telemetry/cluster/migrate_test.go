package cluster

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
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
		Retry: telemetry.RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}},
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

	inj := faultinject.NewHandoff(&scenario.FaultSpec{HandoffKillGaining: 1, HandoffSpan: 64}, sp.Seed, faultinject.HandoffHooks{
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
	if pm.Epoch() != 1 || pm.Pending() != nil {
		t.Fatalf("rollback left epoch=%d pending=%v", pm.Epoch(), pm.Pending())
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
	inj := faultinject.NewHandoff(&scenario.FaultSpec{HandoffCrashRecover: 1}, sp.Seed, faultinject.HandoffHooks{
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
	inj := faultinject.NewHandoff(&scenario.FaultSpec{HandoffPartitionSource: 1, HandoffSpan: 64}, sp.Seed, faultinject.HandoffHooks{})
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

// TestReplicaCatchUpAfterMarkdown is the RF2 re-sync pin, on a stream whose
// per-key folds really fuse points (fold_test.go): the owner of a partition
// set is marked down for exactly one rollup window, its traffic fails over
// to replicas (window-aligned divergence), and each affected key's history
// is then split across owner and replica. In that interval the merged answer
// is complete in data — count, windows, min and max exact, the key inventory
// exact — and every quantile is inside the rank-error bound it reports, but
// it is not byte-identical to a single node's: two folds of one key absorbed
// in page order are not the one fold of the whole key. After CatchUp
// consolidates each partition back onto its owner — rebuilding the owner
// from its own durable state plus the replica's slice — the replicas are
// empty, the answers are byte-identical to a single node, and the result
// survives crash-recovery of every member.
func TestReplicaCatchUpAfterMarkdown(t *testing.T) {
	events := compressingEvents(3, 1)
	ctx := context.Background()
	const winMs = foldWinMs

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)
	for _, spec := range fingerprintSpecs {
		page, err := single.MatchSketches(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Metric == telemetry.MetricRTT {
			assertFoldsCompress(t, page, 1)
		}
	}

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}, ReplicationFactor: 2})
	c := newTestCluster(t, pm, t.TempDir())
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	// Pick the markdown window: the median distinct rollup window in the
	// stream, so traffic exists on both sides of it.
	seen := map[int64]bool{}
	var windows []int64
	for _, e := range events {
		w := e.TS / winMs
		if !seen[w] {
			seen[w] = true
			windows = append(windows, w)
		}
	}
	if len(windows) < 3 {
		t.Fatalf("scenario too narrow: %d windows", len(windows))
	}
	markdown := windows[len(windows)/2]

	const victim = "n1"
	ownerDown := false
	tracker := NewHealthTracker(pm.Nodes(), func(node string) ProbeResult {
		return ProbeResult{Reachable: !(ownerDown && node == victim)}
	}, HealthConfig{DownAfter: 1, UpAfter: 1})
	router := NewRouter(pm, tracker, c.transport, rng.New(3).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})

	// Window-aligned markdown: the victim is down for every event of the
	// markdown window and up for every other, so each (key, window) slice
	// lands wholly on one node — owner or failover replica, never split —
	// while the key itself is split between the two.
	for _, e := range events {
		down := e.TS/winMs == markdown
		if down != ownerDown {
			ownerDown = down
			tracker.ProbeOnce()
		}
		if !router.Send(e) {
			t.Fatal("send refused despite live failover target")
		}
	}
	c.flushAll()
	if st := router.Stats(); st.FailedOver == 0 {
		t.Fatalf("markdown never failed over: %+v", st)
	}

	// Divergence is real: some replica holds a failover slice for a
	// victim-owned partition — and the merged answer is already complete.
	diverged := 0
	for _, p := range pm.OwnedBy(victim) {
		r, _ := pm.Replica(p)
		if pages, err := c.get(r).PartitionPages(p, 16); err == nil && len(pages) > 0 {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("no replica diverged — markdown window carried no victim traffic")
	}
	if bytes.Equal(clusterFingerprint(t, f), want) {
		t.Fatal("split keys merged byte-identically: the stream does not reach the contract's boundary")
	}
	keys, missing := f.Keys(ctx)
	if !reflect.DeepEqual(keys, single.Keys()) || missing != nil {
		t.Fatalf("pre-catch-up key inventory diverged (missing %v)", missing)
	}
	for _, spec := range fingerprintSpecs {
		exact, err := single.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Query(ctx, spec)
		if err != nil || res.Partial {
			t.Fatalf("pre-catch-up %s: err %v, partial %v", spec.Metric, err, res.Partial)
		}
		if res.Windows != exact.Windows {
			t.Fatalf("pre-catch-up %s: %d windows, single node merged %d", spec.Metric, res.Windows, exact.Windows)
		}
		assertInsideRankBound(t, "pre-catch-up "+spec.Metric, res.QueryResult, sortedValues(events, spec.Metric))
	}

	// Re-sync: consolidate every victim partition back onto its owner.
	mig := newTestMigrator(c, pm, tracker, nil)
	for _, p := range pm.OwnedBy(victim) {
		if err := mig.CatchUp(ctx, p); err != nil {
			t.Fatalf("CatchUp(%d): %v", p, err)
		}
	}
	if mg := pm.Migrating(); mg != nil {
		t.Fatalf("catch-up left suspects: %v", mg)
	}
	for _, p := range pm.OwnedBy(victim) {
		r, _ := pm.Replica(p)
		if pages, err := c.get(r).PartitionPages(p, 16); err != nil || len(pages) != 0 {
			t.Fatalf("replica %s still holds %d pages of partition %d (err %v)", r, len(pages), p, err)
		}
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-catch-up answers diverged from single node")
	}

	// Durability: the consolidation went through WAL control records, so a
	// full crash-recovery cycle preserves it.
	for _, n := range pm.Nodes() {
		c.crash(n)
		c.recover(n)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-recovery answers diverged")
	}
}

// TestCatchUpSuspectThenSettle: when the replica's post-merge drop fails,
// the partition is marked suspect — queries exclude the stale copy (no
// double count) and disclose partiality — until Settle retries the drop.
func TestCatchUpSuspectThenSettle(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	ctx := context.Background()
	const winMs = int64(60_000)

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}, ReplicationFactor: 2})
	c := newTestCluster(t, pm, "")
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	const victim = "n0"
	ownerDown := false
	tracker := NewHealthTracker(pm.Nodes(), func(node string) ProbeResult {
		return ProbeResult{Reachable: !(ownerDown && node == victim)}
	}, HealthConfig{DownAfter: 1, UpAfter: 1})
	router := NewRouter(pm, tracker, c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})
	seen := map[int64]bool{}
	var windows []int64
	for _, e := range events {
		if w := e.TS / winMs; !seen[w] {
			seen[w] = true
			windows = append(windows, w)
		}
	}
	markdown := windows[len(windows)/2]
	for _, e := range events {
		down := e.TS/winMs == markdown
		if down != ownerDown {
			ownerDown = down
			tracker.ProbeOnce()
		}
		router.Send(e)
	}
	c.flushAll()

	// Find a diverged partition, then catch it up with the stale drop
	// failing (hook error at drop_stale).
	target := -1
	for _, p := range pm.OwnedBy(victim) {
		r, _ := pm.Replica(p)
		if pages, _ := c.get(r).PartitionPages(p, 16); len(pages) > 0 {
			target = p
			break
		}
	}
	if target < 0 {
		t.Fatal("no diverged partition")
	}
	failDrops := true
	mig := newTestMigrator(c, pm, tracker, func(s HandoffStep) error {
		if failDrops && s.Phase == "drop_stale" {
			return fmt.Errorf("injected drop failure")
		}
		return nil
	})
	if err := mig.CatchUp(ctx, target); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	replica, _ := pm.Replica(target)
	if sus := pm.Suspects(); sus[target] != replica {
		t.Fatalf("suspects = %v, want %d→%s", sus, target, replica)
	}

	// Suspect contract: the stale copy is excluded (answers correct, not
	// doubled) and the query discloses partiality naming the partition.
	res, err := f.Query(ctx, fingerprintSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.MigratingPartitions) != 1 || res.MigratingPartitions[0] != target {
		t.Fatalf("suspect query: partial=%v migrating=%v", res.Partial, res.MigratingPartitions)
	}

	failDrops = false
	if still := mig.Settle(ctx); still != nil {
		t.Fatalf("Settle left suspects: %v", still)
	}
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-settle answers diverged from single node")
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
	if err := mig.CatchUp(ctx, 3); err == nil {
		t.Fatal("catch-up under RF1 must error")
	}
	pm2 := mustMap(t, MapConfig{Partitions: 8, Nodes: []string{"a", "b"}, ReplicationFactor: 2})
	c2 := newTestCluster(t, pm2, "")
	mig2 := newTestMigrator(c2, pm2, alwaysUpTracker(pm2.Nodes()), nil)
	if err := mig2.CatchUp(ctx, 99); err == nil {
		t.Fatal("catch-up of an out-of-range partition must error")
	}
}
