package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// batchRig is a 3-node in-process cluster behind a router whose legs go
// through a scripted fault point, beside the single-node reference of the
// same stream: the harness of the batch-routing pins.
type batchRig struct {
	t      *testing.T
	pm     *PartitionMap
	c      *testCluster
	health *HealthTracker
	router *Router
	reg    *obs.Registry
	events []telemetry.Envelope
	want   []byte

	mu    sync.Mutex
	down  map[string]bool                                            // probes fail while set
	fault func(node string, events []telemetry.Envelope) (int, bool) // a scripted leg; false runs the real one
	sleep func()                                                     // runs at every retry backoff
}

// batchSize is the frontend request size the pins replay in: cluster-ingest's.
const batchSize = 50

func newBatchRig(t *testing.T) *batchRig {
	t.Helper()
	sp := scenario.MustGet("small")
	// The stream is numbered as its producer would, so a resend whose
	// original landed folds once.
	r := &batchRig{t: t, events: sequenced(scenarioEvents(t, sp)), down: map[string]bool{}, reg: obs.NewRegistry()}
	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, r.events)
	r.want = singleFingerprint(t, single)

	r.pm = mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	r.c = newTestCluster(t, r.pm, "")
	r.health = NewHealthTracker(r.pm.Nodes(), func(node string) ProbeResult {
		r.mu.Lock()
		defer r.mu.Unlock()
		return ProbeResult{Reachable: !r.down[node]}
	}, HealthConfig{})
	real := Transport(r.c.transport).Leg()
	leg := func(ctx context.Context, node string, events []telemetry.Envelope) int {
		r.mu.Lock()
		fault := r.fault
		r.mu.Unlock()
		if fault != nil {
			if n, ok := fault(node, events); ok {
				return n
			}
		}
		return real(ctx, node, events)
	}
	r.router = NewLegRouter(r.pm, r.health, leg, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Metrics: r.reg,
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {
			if r.sleep != nil {
				r.sleep()
			}
		}},
	})
	return r
}

// replay sends the stream in batchSize requests and requires every envelope
// acked.
func (r *batchRig) replay() {
	r.t.Helper()
	for lo := 0; lo < len(r.events); lo += batchSize {
		batch := r.events[lo:min(lo+batchSize, len(r.events))]
		if acked := r.router.SendAll(batch); acked != len(batch) {
			r.t.Fatalf("batch at %d: %d of %d acked", lo, acked, len(batch))
		}
	}
	r.c.flushAll()
}

// check requires /query and /keys byte-identical to the single node.
func (r *batchRig) check() {
	r.t.Helper()
	f := NewFrontend(r.pm, r.c.clients(), FrontendConfig{})
	if got := clusterFingerprint(r.t, f); !bytes.Equal(got, r.want) {
		r.t.Fatalf("cluster answers diverged from the single-node replay (%d vs %d bytes)", len(got), len(r.want))
	}
}

// setDown marks a node's probes failing (or passing) and sweeps the tracker
// until its state follows.
func (r *batchRig) setDown(node string, down bool) {
	r.mu.Lock()
	r.down[node] = down
	r.mu.Unlock()
	for i := 0; i < 3; i++ {
		r.health.ProbeOnce()
	}
}

// legs sums cluster_router_legs_total over nodes.
func (r *batchRig) legs() uint64 {
	var n uint64
	for _, s := range r.reg.Snapshot() {
		if s.Name == "cluster_router_legs_total" {
			n += uint64(s.Value)
		}
	}
	return n
}

// deduped sums the members' sequence-dedup counts.
func (r *batchRig) deduped() uint64 {
	var n uint64
	for _, node := range r.pm.Nodes() {
		n += r.c.get(node).TotalStats().Deduped
	}
	return n
}

// TestRouterBatchOneLegPerOwner: a fault-free replay ships each request as
// at most one leg per owner, routes every envelope, resends nothing and
// answers as one node does.
func TestRouterBatchOneLegPerOwner(t *testing.T) {
	r := newBatchRig(t)
	r.replay()
	r.check()
	requests := uint64((len(r.events) + batchSize - 1) / batchSize)
	if got := r.legs(); got > 3*requests || got < requests {
		t.Fatalf("%d legs for %d requests over 3 owners", got, requests)
	}
	st := r.router.Stats()
	if st.Routed != uint64(len(r.events)) || st.Client.Retries != 0 || st.Client.Sent != uint64(len(r.events)) {
		t.Fatalf("router stats = %+v", st)
	}
	if d := r.deduped(); d != 0 {
		t.Fatalf("%d duplicates folded away on a fault-free replay", d)
	}
}

// TestRouterConcurrentSendAllMatchesSingleNode: producers calling SendAll
// at once over in-process legs, each owning disjoint keys, leave the
// cluster answering /query and /keys byte-identically to the single-node
// replay. Run it under -race: each call plans from the pool and runs its
// legs beside the others'.
func TestRouterConcurrentSendAllMatchesSingleNode(t *testing.T) {
	r := newBatchRig(t)
	const producers = 4
	var shares [producers][]telemetry.Envelope
	for _, e := range r.events {
		g := e.Key().ShardOf(producers)
		shares[g] = append(shares[g], e)
	}
	var acked [producers]int
	var wg sync.WaitGroup
	for g, share := range shares {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(share); lo += batchSize {
				acked[g] += r.router.SendAll(share[lo:min(lo+batchSize, len(share))])
			}
		}()
	}
	wg.Wait()
	for g, share := range shares {
		if len(share) == 0 || acked[g] != len(share) {
			t.Fatalf("producer %d: %d of %d acked", g, acked[g], len(share))
		}
	}
	r.c.flushAll()
	r.check()
	if st := r.router.Stats(); st.Routed != uint64(len(r.events)) || st.Client.Sent != uint64(len(r.events)) || st.Client.Retries != 0 {
		t.Fatalf("router stats = %+v", st)
	}
}

// TestRouterBatchShortAckResentFoldsOnce: legs that ack short — one that
// landed everything but acked one fewer, one that landed only a prefix —
// are resent envelope by envelope under their numbers, and sequence dedup
// folds each envelope once.
func TestRouterBatchShortAckResentFoldsOnce(t *testing.T) {
	r := newBatchRig(t)
	real := Transport(r.c.transport).Leg()
	var mu sync.Mutex // the legs of one request run concurrently
	var calls, short int
	r.fault = func(node string, events []telemetry.Envelope) (int, bool) {
		if len(events) < 2 {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		switch calls++; calls % 7 {
		case 0: // every envelope landed, the ack says one fewer
			short++
			return real(context.Background(), node, events) - 1, true
		case 3: // only the first half landed
			short++
			return real(context.Background(), node, events[:len(events)/2]), true
		}
		return 0, false
	}
	r.replay()
	r.check()
	if short == 0 {
		t.Fatal("no leg acked short")
	}
	if d := r.deduped(); d == 0 {
		t.Fatal("no resend was folded away: the short legs' landed envelopes were not resent")
	}
	if st := r.router.Stats(); st.Routed != uint64(len(r.events)) || st.Client.Failed != 0 {
		t.Fatalf("router stats = %+v", st)
	}
}

// TestRouterBatchFrozenPartition: a partition frozen mid-handoff takes no
// batch leg; its envelopes wait out the freeze on the per-envelope path
// while the rest of each request ships.
func TestRouterBatchFrozenPartition(t *testing.T) {
	r := newBatchRig(t)
	p := r.pm.PartitionOf(r.events[0].Key())
	var legged int
	r.fault = func(node string, events []telemetry.Envelope) (int, bool) {
		if len(events) > 1 {
			for _, e := range events {
				if r.pm.PartitionOf(e.Key()) == p {
					legged++ // only p's owner's leg could hold them, so one goroutine writes this
				}
			}
		}
		return 0, false
	}
	thaw := 0
	r.sleep = func() {
		if thaw++; thaw%3 == 0 { // the freeze outlasts a couple of backoffs, then lifts
			r.pm.Unfreeze(p)
		}
	}
	for lo := 0; lo < len(r.events); lo += batchSize {
		r.pm.Freeze(p)
		batch := r.events[lo:min(lo+batchSize, len(r.events))]
		if acked := r.router.SendAll(batch); acked != len(batch) {
			t.Fatalf("batch at %d: %d of %d acked", lo, acked, len(batch))
		}
	}
	r.c.flushAll()
	r.check()
	if legged != 0 {
		t.Fatalf("%d envelopes of frozen partition %d rode a batch leg", legged, p)
	}
	if st := r.router.Stats(); st.Frozen == 0 || st.Routed != uint64(len(r.events)) {
		t.Fatalf("router stats = %+v", st)
	}
}

// TestRouterBatchDualWritePhase: a partition in its dual-write phase takes
// the per-envelope path, which lands each envelope on both epochs' owners;
// after activation and the losing owner's drop, the cluster still answers
// as one node does.
func TestRouterBatchDualWritePhase(t *testing.T) {
	r := newBatchRig(t)
	p := r.pm.PartitionOf(r.events[0].Key())
	from := r.pm.Owner(p)
	to := "n0"
	if from == to {
		to = "n1"
	}
	next := r.pm.Current()
	next.Epoch++
	next.Owners = append([]string(nil), next.Owners...)
	next.Owners[p] = to
	if err := r.pm.BeginMigration(next); err != nil {
		t.Fatal(err)
	}
	r.pm.Cutover(p)
	var inP int
	for _, e := range r.events {
		if r.pm.PartitionOf(e.Key()) == p {
			inP++
		}
	}
	r.replay()
	if st := r.router.Stats(); st.DualWrites != uint64(inP) {
		t.Fatalf("dual writes = %d, want the %d envelopes of partition %d", st.DualWrites, inP, p)
	}
	if err := r.pm.Activate(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.get(from).DropPartition(p, r.pm.Partitions()); err != nil {
		t.Fatal(err)
	}
	r.check()
}

// TestRouterBatchOwnerDownMidBatch: an owner whose leg fails and whose
// probes then mark it down mid-request has its share refused as unroutable
// on the per-envelope path until it recovers; nothing lands elsewhere.
func TestRouterBatchOwnerDownMidBatch(t *testing.T) {
	r := newBatchRig(t)
	const victim = "n1"
	var legs int
	r.fault = func(node string, events []telemetry.Envelope) (int, bool) {
		if node != victim || len(events) < 2 {
			return 0, false
		}
		if legs++; legs%5 != 0 {
			return 0, false
		}
		r.setDown(victim, true) // the leg fails and the prober sees the outage
		return 0, true
	}
	r.sleep = func() {
		if r.health.State(victim) == StateDown {
			r.setDown(victim, false)
		}
	}
	r.replay()
	r.check()
	if st := r.router.Stats(); st.Unroutable == 0 || st.Routed != uint64(len(r.events)) {
		t.Fatalf("router stats = %+v", st)
	}
}
