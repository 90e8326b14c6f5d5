package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"edgescope/internal/rng"
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
// so the gather has real sketches to merge, beside one ingestor that took
// the whole stream — the single-node reference a complete answer matches
// byte for byte.
type frontendHarness struct {
	m      *PartitionMap
	nodes  map[string]*fakeNode
	f      *Frontend
	single *telemetry.Ingestor
	events []telemetry.Envelope
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
	h.single = telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 256, Block: true})
	t.Cleanup(func() { h.single.Close() })

	// Seed deterministic traffic across all partitions.
	for i, region := range []string{"Beijing", "Shanghai", "Shenzhen", "Chengdu", "Wuhan", "Xian"} {
		for j, net := range []string{"WiFi", "5G", "4G"} {
			for k := 0; k < 5; k++ {
				e := clusterEnv("rtt_ms", region, net, float64(5+i*7+j*3+k))
				owner := m.Owner(m.PartitionOf(e.Key()))
				if !h.nodes[owner].ing.Offer(e) || !h.single.Offer(e) {
					t.Fatal("seed offer refused")
				}
				h.events = append(h.events, e)
			}
		}
	}
	for _, fn := range h.nodes {
		fn.ing.Flush()
	}
	h.single.Flush()
	return h
}

// singleJSON is the single-node reference answer to spec, as JSON.
func (h *frontendHarness) singleJSON(t *testing.T, spec telemetry.QuerySpec) []byte {
	t.Helper()
	res, err := h.single.Query(spec)
	return mustJSON(t, res, err)
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

// keyedSpec names one key of the harness's stream: region and net both set.
var keyedSpec = telemetry.QuerySpec{
	Metric: "rtt_ms", Region: "Shanghai", Net: "5G",
	Quantiles: []float64{0.5, 0.95},
	CDFAt:     []float64{10, 30},
}

// countingNode is LocalNode counting its Sketches calls.
type countingNode struct {
	LocalNode
	calls atomic.Int64
}

func (n *countingNode) Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	n.calls.Add(1)
	return n.LocalNode.Sketches(ctx, spec)
}

// TestFrontendKeyedQueryAsksOwnerOnly: a spec naming one key makes one
// Sketches call, to its partition's owner; an unkeyed or half-keyed spec
// asks every member once. Every answer is complete and byte-identical to
// the single node's.
func TestFrontendKeyedQueryAsksOwnerOnly(t *testing.T) {
	h := newFrontendHarness(t)
	counted := map[string]*countingNode{}
	clients := map[string]NodeClient{}
	for n, fn := range h.nodes {
		counted[n] = &countingNode{LocalNode: LocalNode{Ing: fn.ing}}
		clients[n] = counted[n]
	}
	f := NewFrontend(h.m, clients, FrontendConfig{Timeout: time.Second})
	owner := h.m.Owner(h.m.PartitionOf(telemetry.Key{Metric: keyedSpec.Metric, Region: keyedSpec.Region, Net: keyedSpec.Net}))
	halfKeyed := frontSpec
	halfKeyed.Region = "Shanghai"
	for _, c := range []struct {
		name string
		spec telemetry.QuerySpec
		want func(node string) int64
	}{
		{"keyed", keyedSpec, func(n string) int64 {
			if n == owner {
				return 1
			}
			return 0
		}},
		{"unkeyed", frontSpec, func(string) int64 { return 1 }},
		{"half-keyed", halfKeyed, func(string) int64 { return 1 }},
	} {
		for _, cn := range counted {
			cn.calls.Store(0)
		}
		res, err := f.Query(context.Background(), c.spec)
		if got, want := mustJSON(t, res, err), h.singleJSON(t, c.spec); !bytes.Equal(got, want) {
			t.Fatalf("%s: cluster answered\n%s\nsingle node\n%s", c.name, got, want)
		}
		if res.Count == 0 {
			t.Fatalf("%s: empty answer", c.name)
		}
		for n, cn := range counted {
			if got, want := cn.calls.Load(), c.want(n); got != want {
				t.Fatalf("%s: %s got %d Sketches calls, want %d", c.name, n, got, want)
			}
		}
	}
}

// TestFrontendKeyedQueryPartialOnlyWithItsOwner: a keyed query is complete,
// and byte-identical to the single node, while a node that does not own
// its key is down; with the owner down it is partial, naming the owner and
// exactly the partitions the owner holds.
func TestFrontendKeyedQueryPartialOnlyWithItsOwner(t *testing.T) {
	h := newFrontendHarness(t)
	owner := h.m.Owner(h.m.PartitionOf(telemetry.Key{Metric: keyedSpec.Metric, Region: keyedSpec.Region, Net: keyedSpec.Net}))
	for _, n := range h.m.Nodes() {
		if n != owner {
			h.nodes[n].err = errors.New("connection refused")
		}
	}
	res, err := h.f.Query(context.Background(), keyedSpec)
	if got, want := mustJSON(t, res, err), h.singleJSON(t, keyedSpec); !bytes.Equal(got, want) {
		t.Fatalf("keyed query beside down non-owners:\n%s\nsingle node:\n%s", got, want)
	}

	for _, n := range h.m.Nodes() {
		h.nodes[n].err = nil
	}
	h.nodes[owner].err = errors.New("connection refused")
	res, err = h.f.Query(context.Background(), keyedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !reflect.DeepEqual(res.MissingNodes, []string{owner}) ||
		!reflect.DeepEqual(res.MissingPartitions, h.m.OwnedBy(owner)) || res.Count != 0 {
		t.Fatalf("keyed query with its owner %s down: %+v; want partial, missing %s and its partitions %v",
			owner, res, owner, h.m.OwnedBy(owner))
	}
}

// stepNode wraps a NodeClient, running before ahead of each Sketches call
// and after once it has answered.
type stepNode struct {
	NodeClient
	before, after func()
}

func (n stepNode) Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	if n.before != nil {
		n.before()
	}
	page, err := n.NodeClient.Sketches(ctx, spec)
	if n.after != nil {
		n.after()
	}
	return page, err
}

// TestFrontendGatherFiltersOnOneSnapshot: a one-partition move activates
// during one leg, after the losing owner's leg has answered, while both
// nodes hold the partition (dual-written, as during a handoff). The answer
// keeps the partition from the owner of the placement the query started
// on only — the count is exact — and discloses it as migrating. Filtered
// against the placement each leg returned into, the partition would be
// kept from both nodes and the answer, marked complete, would double it.
func TestFrontendGatherFiltersOnOneSnapshot(t *testing.T) {
	h := newFrontendHarness(t)
	moved := h.m.PartitionOf(telemetry.Key{Metric: "rtt_ms", Region: "Beijing", Net: "WiFi"})
	loser := h.m.Owner(moved)
	var gainer string
	for _, n := range h.m.Nodes() {
		if n != loser {
			gainer = n
			break
		}
	}
	for _, e := range h.events {
		if h.m.PartitionOf(e.Key()) == moved && !h.nodes[gainer].ing.Offer(e) {
			t.Fatal("copy offer refused")
		}
	}
	h.nodes[gainer].ing.Flush()
	next := h.m.Current()
	next.Epoch++
	next.Owners[moved] = gainer
	if err := h.m.BeginMigration(next); err != nil {
		t.Fatal(err)
	}
	h.m.Cutover(moved)

	answered := make(chan struct{})
	clients := map[string]NodeClient{}
	for n, fn := range h.nodes {
		clients[n] = fn
	}
	clients[loser] = stepNode{NodeClient: h.nodes[loser], after: func() { close(answered) }}
	clients[gainer] = stepNode{NodeClient: h.nodes[gainer], before: func() {
		<-answered
		time.Sleep(20 * time.Millisecond) // let the loser's page be filtered first
		if err := h.m.Activate(); err != nil {
			t.Error(err)
		}
	}}
	res, err := NewFrontend(h.m, clients, FrontendConfig{Timeout: 2 * time.Second}).Query(context.Background(), frontSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := h.single.Query(frontSpec)
	if res.Count != want.Count || !reflect.DeepEqual(res.QueryResult, want) {
		t.Fatalf("count %v across an activation, want %v (the single node's answer)", res.Count, want.Count)
	}
	if !res.Partial || !reflect.DeepEqual(res.MigratingPartitions, []int{moved}) || res.MissingNodes != nil {
		t.Fatalf("answer across an activation: partial=%v migrating=%v missing=%v; want partial, migrating [%d]",
			res.Partial, res.MigratingPartitions, res.MissingNodes, moved)
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

// TestMergeKeyRunsMatchesMapSum: merging sorted, unique runs — keys shared
// between runs included — gives exactly the map-sum-then-sort inventory the
// frontend built before, counts summed in run order.
func TestMergeKeyRunsMatchesMapSum(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		runs := make([][]telemetry.KeyCount, r.IntN(5))
		acc := map[telemetry.Key]float64{}
		for i := range runs {
			seen := map[telemetry.Key]bool{}
			for j := r.IntN(12); j > 0; j-- {
				k := telemetry.Key{Metric: fmt.Sprint("m", r.IntN(2)), Region: fmt.Sprint("r", r.IntN(3)), Net: fmt.Sprint("n", r.IntN(2))}
				if !seen[k] {
					seen[k] = true
					runs[i] = append(runs[i], telemetry.KeyCount{Key: k, Count: r.Float64() * 100})
				}
			}
			slices.SortFunc(runs[i], func(a, b telemetry.KeyCount) int { return a.Key.Compare(b.Key) })
			for _, kc := range runs[i] {
				acc[kc.Key] += kc.Count
			}
		}
		want := make([]telemetry.KeyCount, 0, len(acc))
		for k, n := range acc {
			want = append(want, telemetry.KeyCount{Key: k, Count: n})
		}
		slices.SortFunc(want, func(a, b telemetry.KeyCount) int { return a.Key.Compare(b.Key) })
		if got := mergeKeyRuns(runs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
	}
}

// handlerTransport serves every request with h in process, as an httptest
// server would over a socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestFrontendKeysFailedInventoryLeg: a node whose /keys answer is not a
// sound binary inventory — JSON, as a node predating the inventory form
// answers; a damaged inventory; keys out of order — is a failed leg. The
// frontend names it missing and lists exactly the other nodes' keys, never
// a wrong inventory. A sound answer over the same HTTP leg merges exactly
// like the in-process one.
func TestFrontendKeysFailedInventoryLeg(t *testing.T) {
	h := newFrontendHarness(t)
	ctx := context.Background()
	want, missing := h.f.Keys(ctx)
	if missing != nil {
		t.Fatalf("missing = %v", missing)
	}
	var others []telemetry.KeyCount
	for _, kc := range want {
		if h.m.Owner(h.m.PartitionOf(kc.Key)) != "n2" {
			others = append(others, kc)
		}
	}
	n2 := h.nodes["n2"].ing.Keys()
	if len(n2) < 2 || len(others) == 0 {
		t.Fatalf("fixture: n2 holds %d keys, the others %d", len(n2), len(others))
	}
	binaryKeys := func(keys []telemetry.KeyCount, damage func([]byte)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/keys" || r.Header.Get("Accept") != telemetry.KeyInventoryContentType {
				http.Error(w, "want GET /keys asking for the binary inventory", http.StatusNotAcceptable)
				return
			}
			body := telemetry.AppendKeyInventory(nil, keys)
			damage(body)
			w.Header().Set("Content-Type", telemetry.KeyInventoryContentType)
			w.Write(body)
		}
	}
	reversed := slices.Clone(n2)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name  string
		node  http.HandlerFunc
		sound bool
	}{
		{"sound", binaryKeys(n2, func([]byte) {}), true},
		{"json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(n2)
		}, false},
		{"corrupt", binaryKeys(n2, func(b []byte) { b[len(b)/2] ^= 0x10 }), false},
		{"out-of-order", binaryKeys(reversed, func([]byte) {}), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			clients := map[string]NodeClient{
				"n0": h.nodes["n0"],
				"n1": h.nodes["n1"],
				"n2": NewHTTPNode("http://n2", &http.Client{Transport: handlerTransport{c.node}}),
			}
			keys, missing := NewFrontend(h.m, clients, FrontendConfig{Timeout: time.Second}).Keys(ctx)
			wantKeys, wantMissing := others, []string{"n2"}
			if c.sound {
				wantKeys, wantMissing = want, nil
			}
			if !reflect.DeepEqual(missing, wantMissing) || !reflect.DeepEqual(keys, wantKeys) {
				t.Fatalf("missing %v, %d keys; want missing %v, %d keys", missing, len(keys), wantMissing, len(wantKeys))
			}
		})
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
