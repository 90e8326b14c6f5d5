package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgescope/internal/crowd"
	"edgescope/internal/faultinject"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// builtinScenarios are the six registered experiment scenarios the cluster
// acceptance criterion runs over.
var builtinScenarios = []string{
	"small", "paper", "dense-metro", "rural-sparse", "flash-crowd", "stress",
}

// scenarioEvents materialises a scenario's latency campaign as envelopes —
// the same substrate telemetryd -replay streams.
func scenarioEvents(t *testing.T, sp *scenario.Spec) []telemetry.Envelope {
	t.Helper()
	r := rng.New(sp.Seed)
	c := crowd.NewCampaign(r.Fork("campaign"), sp.Crowd)
	return telemetry.LatencyEvents(crowd.NewObservationStore(c, r.Fork("latency")))
}

// fingerprintSpecs are the answer surfaces the identity pins compare.
var fingerprintSpecs = []telemetry.QuerySpec{
	{Metric: telemetry.MetricRTT, Quantiles: []float64{0.5, 0.9, 0.95, 0.99}, CDFAt: []float64{5, 20, 50, 100}},
	{Metric: telemetry.MetricHops, Quantiles: []float64{0.5, 0.9, 0.95, 0.99}, CDFAt: []float64{5, 20, 50, 100}},
}

// singleFingerprint marshals a single ingestor's full answer surface.
func singleFingerprint(t *testing.T, ing *telemetry.Ingestor) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(ing.Keys()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range fingerprintSpecs {
		res, err := ing.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(buf.Bytes())
}

// clusterFingerprint marshals the front-end's answers the same way. The
// encoded types differ (cluster.Result vs telemetry.QueryResult) but a
// complete Result marshals byte-identically to its embedded QueryResult,
// so equal fingerprints mean a client cannot tell the cluster from one
// process — the headline property.
func clusterFingerprint(t *testing.T, f *Frontend) []byte {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	keys, missing := f.Keys(ctx)
	if missing != nil {
		t.Fatalf("key inventory incomplete: missing %v", missing)
	}
	if err := enc.Encode(keys); err != nil {
		t.Fatal(err)
	}
	for _, spec := range fingerprintSpecs {
		res, err := f.Query(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatalf("fingerprint query partial: missing %v", res.MissingPartitions)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(buf.Bytes())
}

// testCluster is the in-process 3-node harness: each member is a real
// telemetry.Ingestor (optionally durable), swapped out on crash and back
// in on recovery.
type testCluster struct {
	t      *testing.T
	pm     *PartitionMap
	walDir string
	cfgs   map[string]telemetry.Config

	mu   sync.Mutex
	ings map[string]*telemetry.Ingestor // nil while crashed
}

// newTestCluster stands up one ingestor per node. walDir == "" keeps the
// members memory-only; otherwise each gets its own WAL directory with
// SyncEvery 1, so everything acked is durable — the substrate the
// kill/recover pin needs.
func newTestCluster(t *testing.T, pm *PartitionMap, walDir string) *testCluster {
	t.Helper()
	c := &testCluster{t: t, pm: pm, walDir: walDir, cfgs: map[string]telemetry.Config{}, ings: map[string]*telemetry.Ingestor{}}
	for _, n := range pm.Nodes() {
		cfg := telemetry.Config{Shards: 2, QueueLen: 1024, Block: true, Node: pm.NodeInfo(n)}
		if walDir != "" {
			cfg.WAL = telemetry.WALConfig{Dir: filepath.Join(walDir, n), SyncEvery: 1}
		}
		c.cfgs[n] = cfg
		c.ings[n] = telemetry.NewIngestor(cfg)
	}
	t.Cleanup(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, ing := range c.ings {
			if ing != nil {
				ing.Close()
			}
		}
	})
	return c
}

func (c *testCluster) get(node string) *telemetry.Ingestor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ings[node]
}

// crash hard-kills a member (telemetry.Ingestor.Crash — no flush, no final
// fsync, no snapshot).
func (c *testCluster) crash(node string) {
	c.mu.Lock()
	ing := c.ings[node]
	c.ings[node] = nil
	c.mu.Unlock()
	if ing != nil {
		ing.Crash()
	}
}

// recover reopens a crashed member from its WAL.
func (c *testCluster) recover(node string) {
	ing, _, err := telemetry.Open(c.cfgs[node])
	if err != nil {
		c.t.Fatalf("recover %s: %v", node, err)
	}
	c.mu.Lock()
	c.ings[node] = ing
	c.mu.Unlock()
}

// transport delivers to the live member, refusing while it is crashed.
func (c *testCluster) transport(node string, e telemetry.Envelope) bool {
	ing := c.get(node)
	if ing == nil {
		return false
	}
	return ing.Offer(e)
}

// clients adapts the members to the front-end, resolving the live ingestor
// per call so queries observe crashes and recoveries.
func (c *testCluster) clients() map[string]NodeClient {
	out := map[string]NodeClient{}
	for _, n := range c.pm.Nodes() {
		out[n] = liveNode{c: c, node: n}
	}
	return out
}

type liveNode struct {
	c    *testCluster
	node string
}

func (l liveNode) Sketches(_ context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	ing := l.c.get(l.node)
	if ing == nil {
		return telemetry.SketchPage{}, fmt.Errorf("node %s down", l.node)
	}
	return ing.MatchSketches(spec)
}

func (l liveNode) Keys(context.Context) ([]telemetry.KeyCount, error) {
	ing := l.c.get(l.node)
	if ing == nil {
		return nil, fmt.Errorf("node %s down", l.node)
	}
	return ing.Keys(), nil
}

func (c *testCluster) flushAll() {
	for _, n := range c.pm.Nodes() {
		if ing := c.get(n); ing != nil {
			ing.Flush()
		}
	}
}

// alwaysUpTracker builds a health tracker whose members never miss a probe
// — for fault-free runs.
func alwaysUpTracker(nodes []string) *HealthTracker {
	return NewHealthTracker(nodes, func(string) ProbeResult {
		return ProbeResult{Reachable: true}
	}, HealthConfig{})
}

// TestClusterQueryByteIdenticalAcrossScenarios is the tentpole acceptance
// pin: for every built-in scenario, a 3-node cluster replay answers the
// full query surface byte-identically to a single-node replay of the same
// stream.
func TestClusterQueryByteIdenticalAcrossScenarios(t *testing.T) {
	for _, name := range builtinScenarios {
		t.Run(name, func(t *testing.T) {
			sp := scenario.MustGet(name)
			events := scenarioEvents(t, sp)

			single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
			defer single.Close()
			if st := telemetry.Replay(single, events); st.Dropped != 0 {
				t.Fatalf("single-node replay dropped %d", st.Dropped)
			}
			want := singleFingerprint(t, single)

			pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
			c := newTestCluster(t, pm, "")
			router := NewRouter(pm, alwaysUpTracker(pm.Nodes()), c.transport, rng.New(sp.Seed).Fork("router"), RouterConfig{
				Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
			})
			if sent := router.SendAll(events); sent != len(events) {
				t.Fatalf("cluster replay delivered %d of %d", sent, len(events))
			}
			c.flushAll()
			st := router.Stats()
			if st.Routed != uint64(len(events)) || st.Unroutable != 0 {
				t.Fatalf("router stats = %+v", st)
			}

			f := NewFrontend(pm, c.clients(), FrontendConfig{})
			got := clusterFingerprint(t, f)
			if !bytes.Equal(got, want) {
				t.Fatalf("cluster answers diverged from single-node replay (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestClusterNodeCrashPartialThenConverges is the kill/recover acceptance
// pin: seeded node-crash faults hard-kill members mid-replay; while a
// member is down the front-end answers Partial with exactly its partitions
// missing; after the fault plan restarts it (WAL recovery) and the sender
// re-delivers what was refused, the cluster's answers converge
// byte-identically to a single-node replay.
func TestClusterNodeCrashPartialThenConverges(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, t.TempDir())
	f := NewFrontend(pm, c.clients(), FrontendConfig{})

	crashed := map[string]bool{}
	partialChecks := 0
	inj := faultinject.NewNode(&faultinject.Spec{NodeCrash: 0.002, NodeCrashSpan: 96}, sp.Seed, faultinject.NodeHooks{
		Crash: func(node string) {
			c.crash(node)
			crashed[node] = true
			// The mid-outage contract: a query right now is partial and
			// names exactly the dead member's partitions.
			res, err := f.Query(context.Background(), fingerprintSpecs[0])
			if err != nil {
				t.Errorf("query during %s outage: %v", node, err)
				return
			}
			var missingParts []int
			var missingNodes []string
			for n := range crashed {
				missingNodes = append(missingNodes, n)
				missingParts = append(missingParts, pm.OwnedBy(n)...)
			}
			if !res.Partial {
				t.Errorf("query during %s outage not partial", node)
			}
			if len(crashed) == 1 { // exact-set check is deterministic with one member down
				if !reflect.DeepEqual(res.MissingNodes, missingNodes) {
					t.Errorf("missing nodes = %v, want %v", res.MissingNodes, missingNodes)
				}
				if !reflect.DeepEqual(res.MissingPartitions, missingParts) {
					t.Errorf("missing partitions = %v, want %v", res.MissingPartitions, missingParts)
				}
			}
			partialChecks++
		},
		Restart: func(node string) {
			c.recover(node)
			delete(crashed, node)
		},
	})

	// The prober sees exactly what the router sees: a member inside an
	// outage window misses its probes.
	tracker := NewHealthTracker(pm.Nodes(), func(node string) ProbeResult {
		if inj.Blocked(node) {
			return ProbeResult{}
		}
		return ProbeResult{Reachable: true}
	}, HealthConfig{})

	router := NewRouter(pm, tracker, func(node string, e telemetry.Envelope) bool {
		return inj.Send(node, func() bool { return c.transport(node, e) })
	}, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})

	// Replay through the shaken transport. RF1: while a member is down its
	// partitions are unroutable, so bounded retries can exhaust — those
	// envelopes are collected and re-sent once the cluster has healed,
	// exactly what a WAL-backed edge producer does after a backend outage.
	var lost []telemetry.Envelope
	for i, e := range events {
		if i%16 == 0 {
			tracker.ProbeOnce()
		}
		if !router.Send(e) {
			lost = append(lost, e)
		}
	}
	inj.RecoverAll()

	st := inj.Stats()
	if st.Crashes == 0 {
		t.Fatalf("fault plan injected no crashes: %+v", st)
	}
	if st.Restarts != st.Crashes {
		t.Fatalf("crashes %d != restarts %d after RecoverAll", st.Crashes, st.Restarts)
	}
	if partialChecks == 0 {
		t.Fatal("no mid-outage partial query was exercised")
	}
	if len(lost) == 0 {
		t.Fatal("outages cost nothing — the refused-send path was not exercised")
	}

	// Heal the tracker and re-deliver. Each resend takes a fresh sequence
	// number on its stream, so even a retry whose original secretly landed
	// would fold once server-side.
	for i := 0; i < 3; i++ {
		tracker.ProbeOnce()
	}
	for i, e := range lost {
		if !router.Send(e) {
			t.Fatalf("resend %d refused after full recovery", i)
		}
	}
	c.flushAll()

	got := clusterFingerprint(t, f)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered cluster diverged from single-node replay\nfaults: %+v\nlost then resent: %d", st, len(lost))
	}
}

// TestClusterNetPartitionHealsTransparently: partition faults (member
// alive, unreachable from the router) refuse sends but lose no durable
// state; after the window closes, retried traffic converges with no
// recovery at all.
func TestClusterNetPartitionHealsTransparently(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)

	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	telemetry.Replay(single, events)
	want := singleFingerprint(t, single)

	pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
	c := newTestCluster(t, pm, "")
	inj := faultinject.NewNode(&faultinject.Spec{NetPartition: 0.005, NetPartitionSpan: 48}, sp.Seed, faultinject.NodeHooks{})
	router := NewRouter(pm, alwaysUpTracker(pm.Nodes()), func(node string, e telemetry.Envelope) bool {
		return inj.Send(node, func() bool { return c.transport(node, e) })
	}, rng.New(sp.Seed).Fork("router"), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})

	var lost []telemetry.Envelope
	for _, e := range events {
		if !router.Send(e) {
			lost = append(lost, e)
		}
	}
	inj.RecoverAll()
	if st := inj.Stats(); st.Partitions == 0 {
		t.Fatalf("no partitions injected: %+v", st)
	}
	for i, e := range lost {
		if !router.Send(e) {
			t.Fatalf("resend %d refused after partition healed", i)
		}
	}
	c.flushAll()

	f := NewFrontend(pm, c.clients(), FrontendConfig{})
	if got := clusterFingerprint(t, f); !bytes.Equal(got, want) {
		t.Fatal("post-partition cluster diverged from single-node replay")
	}
}
