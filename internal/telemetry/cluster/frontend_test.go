package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// fakeNode is a scriptable NodeClient.
type fakeNode struct {
	ing  *telemetry.Ingestor
	err  error
	hang bool // block until the gather leg's context expires
}

func (n *fakeNode) Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	if n.hang {
		<-ctx.Done()
		return telemetry.SketchPage{}, ctx.Err()
	}
	if n.err != nil {
		return telemetry.SketchPage{}, n.err
	}
	return n.ing.MatchSketches(spec)
}

func (n *fakeNode) Keys(ctx context.Context) ([]telemetry.KeyCount, error) {
	if n.hang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if n.err != nil {
		return nil, n.err
	}
	return n.ing.Keys(), nil
}

// frontendHarness: three in-memory nodes behind a partition-routed ingest,
// so the gather has real sketches to merge.
type frontendHarness struct {
	m     *PartitionMap
	nodes map[string]*fakeNode
	f     *Frontend
}

func newFrontendHarness(t *testing.T) *frontendHarness {
	t.Helper()
	m := mustMap(t, MapConfig{Partitions: 12, Nodes: []string{"n0", "n1", "n2"}})
	h := &frontendHarness{m: m, nodes: map[string]*fakeNode{}}
	clients := map[string]NodeClient{}
	for _, n := range m.Nodes() {
		fn := &fakeNode{ing: telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 256, Block: true})}
		t.Cleanup(func() { fn.ing.Close() })
		h.nodes[n] = fn
		clients[n] = fn
	}
	h.f = NewFrontend(m, clients, FrontendConfig{Timeout: 200 * time.Millisecond})

	// Seed deterministic traffic across all partitions.
	for i, region := range []string{"Beijing", "Shanghai", "Shenzhen", "Chengdu", "Wuhan", "Xian"} {
		for j, net := range []string{"WiFi", "5G", "4G"} {
			for k := 0; k < 5; k++ {
				e := clusterEnv("rtt_ms", region, net, float64(5+i*7+j*3+k))
				owner := m.Owner(m.PartitionOf(e.Key()))
				if !h.nodes[owner].ing.Offer(e) {
					t.Fatal("seed offer refused")
				}
			}
		}
	}
	for _, fn := range h.nodes {
		fn.ing.Flush()
	}
	return h
}

var frontSpec = telemetry.QuerySpec{
	Metric:    "rtt_ms",
	Quantiles: []float64{0.5, 0.95},
	CDFAt:     []float64{10, 30},
}

// TestFrontendCompleteMatchesDirectMerge: with every node answering the
// result is complete and equals merging every node's rollups into one
// ingestor-equivalent answer.
func TestFrontendCompleteMatchesDirectMerge(t *testing.T) {
	h := newFrontendHarness(t)
	res, err := h.f.Query(context.Background(), frontSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.MissingPartitions != nil || res.MissingNodes != nil {
		t.Fatalf("complete answer flagged partial: %+v", res)
	}
	// Reference: gather the pages by hand and merge on the library path.
	var pages []telemetry.SketchPage
	for _, n := range h.m.Nodes() {
		page, err := h.nodes[n].ing.MatchSketches(frontSpec)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page)
	}
	want, err := telemetry.MergeSketchPages(frontSpec, pages)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.QueryResult, want) {
		t.Fatalf("frontend merge diverged:\n got %+v\nwant %+v", res.QueryResult, want)
	}
	if res.Count == 0 || res.Windows == 0 {
		t.Fatalf("empty answer: %+v", res.QueryResult)
	}
}

// TestFrontendPartialNamesMissingPartitions: an unreachable node yields
// Partial plus exactly its owned partitions.
func TestFrontendPartialNamesMissingPartitions(t *testing.T) {
	h := newFrontendHarness(t)
	h.nodes["n1"].err = errors.New("connection refused")
	res, err := h.f.Query(context.Background(), frontSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("missing node did not flag partial")
	}
	if !reflect.DeepEqual(res.MissingNodes, []string{"n1"}) {
		t.Fatalf("missing nodes = %v", res.MissingNodes)
	}
	if !reflect.DeepEqual(res.MissingPartitions, h.m.OwnedBy("n1")) {
		t.Fatalf("missing partitions = %v, n1 owns %v", res.MissingPartitions, h.m.OwnedBy("n1"))
	}
	if res.Count == 0 {
		t.Fatal("partial answer lost the surviving partitions' data")
	}
}

// TestFrontendTimeoutBoundsGather: a hung node costs one timeout, not a
// hung query, and is reported missing.
func TestFrontendTimeoutBoundsGather(t *testing.T) {
	h := newFrontendHarness(t)
	h.nodes["n2"].hang = true
	start := time.Now()
	res, err := h.f.Query(context.Background(), frontSpec)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("gather took %v with a 200ms leg timeout", elapsed)
	}
	if !res.Partial || !reflect.DeepEqual(res.MissingNodes, []string{"n2"}) {
		t.Fatalf("hung node not reported missing: %+v", res)
	}
}

// TestFrontendResultJSONShape: a complete cluster answer marshals
// byte-identically to the embedded single-node QueryResult — the partial
// fields are invisible until set.
func TestFrontendResultJSONShape(t *testing.T) {
	h := newFrontendHarness(t)
	res, err := h.f.Query(context.Background(), frontSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.QueryResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("complete Result JSON differs from QueryResult JSON:\n%s\n%s", got, want)
	}
}

func TestFrontendRejectsBadSpec(t *testing.T) {
	h := newFrontendHarness(t)
	if _, err := h.f.Query(context.Background(), telemetry.QuerySpec{}); err == nil {
		t.Fatal("metric-less spec accepted")
	}
	if _, err := h.f.Query(context.Background(), telemetry.QuerySpec{
		Metric: "rtt_ms", Quantiles: []float64{1.5},
	}); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
}

// TestFrontendKeysMergesInventory: per-key counts sum across nodes and
// come back in canonical order; a dead node is reported.
func TestFrontendKeysMergesInventory(t *testing.T) {
	h := newFrontendHarness(t)
	keys, missing := h.f.Keys(context.Background())
	if missing != nil {
		t.Fatalf("missing = %v", missing)
	}
	if len(keys) != 18 { // 6 regions x 3 nets
		t.Fatalf("key count = %d, want 18", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		a, b := keys[i-1].Key, keys[i].Key
		if a.Metric > b.Metric || (a.Metric == b.Metric && (a.Region > b.Region ||
			(a.Region == b.Region && a.Net >= b.Net))) {
			t.Fatalf("keys out of order at %d: %v then %v", i, a, b)
		}
	}
	var total float64
	for _, kc := range keys {
		total += kc.Count
	}
	if total != 6*3*5 {
		t.Fatalf("total count = %v, want %d", total, 6*3*5)
	}

	h.nodes["n0"].err = errors.New("down")
	_, missing = h.f.Keys(context.Background())
	if !reflect.DeepEqual(missing, []string{"n0"}) {
		t.Fatalf("missing = %v", missing)
	}
}

// TestPageCodecsMergeIdenticalAcrossScenarios is the wire-format property
// pin: for every built-in scenario — and for the stream whose per-key folds
// really fuse points (fold_test.go) — split over three nodes, each node's
// pages pushed through a JSON round trip and through a binary round trip
// merge to byte-identical QueryResult JSON — and both are the single-node
// Ingestor.Query answer. The binary leg is therefore exactly as lossless
// as the JSON one it replaced.
func TestPageCodecsMergeIdenticalAcrossScenarios(t *testing.T) {
	for _, name := range append([]string{"compressing"}, builtinScenarios...) {
		t.Run(name, func(t *testing.T) {
			var events []telemetry.Envelope
			if name == "compressing" {
				events = compressingEvents(5, 10)
			} else {
				events = scenarioEvents(t, scenario.MustGet(name))
			}
			pm := mustMap(t, MapConfig{Partitions: 16, Nodes: []string{"n0", "n1", "n2"}})
			single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
			defer single.Close()
			c := newTestCluster(t, pm, "")
			for _, e := range events {
				if !single.Offer(e) || !c.get(pm.Owner(e.Key().ShardOf(16))).Offer(e) {
					t.Fatal("offer refused")
				}
			}
			single.Flush()
			c.flushAll()

			for _, spec := range fingerprintSpecs {
				var viaJSON, viaBinary []telemetry.SketchPage
				for _, n := range pm.Nodes() {
					page, err := c.get(n).MatchSketches(spec)
					if err != nil {
						t.Fatal(err)
					}
					if name == "compressing" && spec.Metric == telemetry.MetricRTT {
						assertFoldsCompress(t, page, 10)
					}
					raw, err := json.Marshal(page)
					if err != nil {
						t.Fatal(err)
					}
					var j telemetry.SketchPage
					if err := json.Unmarshal(raw, &j); err != nil {
						t.Fatal(err)
					}
					wire, _ := page.AppendBinary(nil)
					b, err := telemetry.DecodeSketchPage(wire)
					if err != nil {
						t.Fatal(err)
					}
					viaJSON, viaBinary = append(viaJSON, j), append(viaBinary, b)
				}
				answer := func(res telemetry.QueryResult, err error) []byte { return mustJSON(t, res, err) }
				want := answer(single.Query(spec))
				if got := answer(telemetry.MergeSketchPages(spec, viaJSON)); !bytes.Equal(got, want) {
					t.Fatalf("%s: JSON-carried pages merge to\n%s\nsingle node answers\n%s", spec.Metric, got, want)
				}
				if got := answer(telemetry.MergeSketchPages(spec, viaBinary)); !bytes.Equal(got, want) {
					t.Fatalf("%s: binary-carried pages merge to\n%s\nsingle node answers\n%s", spec.Metric, got, want)
				}
			}
		})
	}
}
