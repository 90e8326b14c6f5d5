package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
	"edgescope/internal/telemetry"
)

// The built-in scenarios' keys hold too few points for a sketch flush to
// fuse anything: their per-key folds are lossless, so every byte-identity
// pin over them would also pass a merge whose answer depends on where a
// key's rollups happen to sit. The stream below compresses — its folds fuse
// points, and its rtt keys cross the 8δ deferred-flush mark — so over it the
// pins hold (or fail) by construction: because foldKeys is a pure function
// of a key's rollups and mergeFolds is the one merge, not by scenario size.

const (
	foldWindows = 10
	foldWinMs   = int64(60_000) // telemetry.Config.Window default
)

var (
	foldRegions = []string{"r00", "r01", "r02", "r03", "r04", "r05", "r06", "r07"}
	foldNets    = []string{"wifi", "lte", "5g"}
)

// compressingEvents is a seeded stream over 8 regions × 3 nets × 3 metrics
// and ten one-minute windows, in window order: per key 120·scale log-normal
// rtt_ms points (at scale 10 past 8δ = 800, so a fold flushes mid-way and
// again at its seal), 30·scale log-normal tput_mbps and 30·scale integer
// hop_count points. Scale 1 still fuses; it is for tests that fsync per
// event.
func compressingEvents(seed uint64, scale int) []telemetry.Envelope {
	r := rng.New(seed).Fork("cluster/compressing")
	perWindow := []struct {
		metric, kind string
		n            int
		draw         func() float64
	}{
		{telemetry.MetricRTT, telemetry.KindPing, 12 * scale, func() float64 { return math.Round(r.LogNormal(math.Log(20), 0.5)*1000) / 1000 }},
		{telemetry.MetricTput, telemetry.KindIperf, 3 * scale, func() float64 { return math.Round(r.LogNormal(math.Log(50), 0.6)*1000) / 1000 }},
		{telemetry.MetricHops, "trace", 3 * scale, func() float64 { return float64(3 + r.IntN(18)) }},
	}
	var out []telemetry.Envelope
	for w := int64(0); w < foldWindows; w++ {
		for i := 0; i < 12*scale; i++ {
			for _, m := range perWindow {
				if i >= m.n {
					continue
				}
				for k := 0; k < len(foldRegions)*len(foldNets); k++ {
					out = append(out, telemetry.Envelope{
						V: telemetry.SchemaVersion, TS: 1_700_000_040_000 + w*foldWinMs + int64(r.IntN(int(foldWinMs))),
						Kind: m.kind, Metric: m.metric, User: k,
						Region: foldRegions[k/len(foldNets)], Net: foldNets[k%len(foldNets)],
						Value: m.draw(),
					})
				}
			}
		}
	}
	return out
}

// foldSpecs are the answer surfaces the fold pins compare: wide, narrow,
// one window, nothing at all, and the two other metrics.
func foldSpecs(events []telemetry.Envelope) map[string]telemetry.QuerySpec {
	first := time.UnixMilli(events[0].TS - events[0].TS%foldWinMs)
	qs, cdf := []float64{0.5, 0.9, 0.95, 0.99}, []float64{5, 20, 50, 100}
	return map[string]telemetry.QuerySpec{
		"wide":       {Metric: telemetry.MetricRTT, Quantiles: qs, CDFAt: cdf},
		"narrow":     {Metric: telemetry.MetricRTT, Region: "r03", Net: "lte", Quantiles: qs, CDFAt: cdf},
		"one-window": {Metric: telemetry.MetricRTT, From: first.Add(3 * time.Minute), To: first.Add(4 * time.Minute), CDFAt: cdf},
		"empty":      {Metric: telemetry.MetricRTT, Region: "nowhere", Quantiles: qs, CDFAt: cdf},
		"hops":       {Metric: telemetry.MetricHops, Quantiles: qs, CDFAt: cdf},
		"tput":       {Metric: telemetry.MetricTput, Quantiles: qs},
	}
}

func mustJSON(t *testing.T, v any, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// codecNode is LocalNode with the binary page codec on the leg: what
// HTTPNode hands the front-end, minus the socket.
type codecNode struct{ LocalNode }

func (n codecNode) Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	page, err := n.LocalNode.Sketches(ctx, spec)
	if err != nil {
		return page, err
	}
	wire, _ := page.AppendBinary(nil)
	return telemetry.DecodeSketchPage(wire)
}

// assertFoldsCompress is the premise of every pin over this stream: at least
// one per-key fold of the page ends with fewer centroids than the
// (unit-weight) points it absorbed, and — at scale 10 — at least one
// absorbed more than 8δ of them.
func assertFoldsCompress(t *testing.T, page telemetry.SketchPage, scale int) {
	t.Helper()
	fused, deferred := 0, 0
	for _, m := range page.Matches {
		var sk stats.Sketch
		if err := sk.UnmarshalBinary(m.Sketch); err != nil {
			t.Fatal(err)
		}
		if m.Windows > 1 && float64(len(sk.Centroids())) < sk.Count() {
			fused++
		}
		if sk.Count() > 8*page.Compression {
			deferred++
		}
	}
	if fused == 0 || (deferred == 0 && scale >= 10) {
		t.Fatalf("fixture does not compress: of %d folds %d fused points, %d crossed 8δ", len(page.Matches), fused, deferred)
	}
}

// TestFoldedQueryByteIdenticalForAnyWholeKeyDeal is the byte-identity
// property by construction: over a stream whose folds really fuse points,
// with partitions — and so whole keys — dealt at random to 1–5 members of
// random shard counts, the front-end's answer over in-process legs and over
// the binary page codec is bytes.Equal to a single node's Query, for wide,
// narrow, one-window and empty specs alike.
func TestFoldedQueryByteIdenticalForAnyWholeKeyDeal(t *testing.T) {
	events := compressingEvents(7, 10)
	specs := foldSpecs(events)
	single := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer single.Close()
	if n := single.OfferAll(events); n != len(events) {
		t.Fatalf("offered %d of %d", n, len(events))
	}
	single.Flush()
	want := map[string][]byte{}
	for name, spec := range specs {
		res, err := single.Query(spec)
		want[name] = mustJSON(t, res, err)
		if (res.Count == 0) != (name == "empty") {
			t.Fatalf("%s: count %v", name, res.Count)
		}
	}
	page, err := single.MatchSketches(specs["wide"])
	if err != nil {
		t.Fatal(err)
	}
	assertFoldsCompress(t, page, 10)

	r := rng.New(7).Fork("cluster/deal")
	deal := func(trial int) {
		members, parts := 1+r.IntN(5), []int{4, 8, 16, 32}[r.IntN(4)]
		a := Assignment{Epoch: 1, Partitions: parts, ReplicationFactor: 1, Owners: make([]string, parts)}
		ings := map[string]*telemetry.Ingestor{}
		for i := 0; i < members; i++ {
			id := fmt.Sprintf("n%d", i)
			a.Nodes = append(a.Nodes, id)
			ings[id] = telemetry.NewIngestor(telemetry.Config{Shards: 1 + r.IntN(4), QueueLen: 1024, Block: true})
			defer ings[id].Close()
		}
		for p := range a.Owners {
			a.Owners[p] = a.Nodes[r.IntN(members)]
		}
		pm, err := NewMapFromAssignment(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if !ings[pm.Owner(pm.PartitionOf(e.Key()))].Offer(e) {
				t.Fatal("offer refused")
			}
		}
		local, codec := map[string]NodeClient{}, map[string]NodeClient{}
		for id, ing := range ings {
			ing.Flush()
			local[id] = LocalNode{Ing: ing}
			codec[id] = codecNode{LocalNode{Ing: ing}}
		}
		for leg, clients := range map[string]map[string]NodeClient{"LocalNode": local, "binary codec": codec} {
			f := NewFrontend(pm, clients, FrontendConfig{})
			for name, spec := range specs {
				res, err := f.Query(context.Background(), spec)
				if got := mustJSON(t, res, err); !bytes.Equal(got, want[name]) {
					t.Fatalf("trial %d (%d members, %d partitions, owners %v), %s over %s:\n got %s\nwant %s",
						trial, members, parts, a.Owners, name, leg, got, want[name])
				}
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		deal(trial)
	}
}

// rankError is how far the exact empirical CDF at v is from q. A value
// stands for a span of ranks, not one: from P(X < v) up to P(X ≤ v⁺), v⁺ the
// smallest sample ≥ v — so a tie covers all the ranks it holds, and an
// estimate interpolated between two adjacent samples (18.9 hops, when hops
// are integers) is judged by the step it sits on. The error is zero when q
// lies in the span, else the distance to its nearer end. On continuous data
// the span is one sample wide and this is |CDF(v) − q| to within 1/n. sorted
// must be ascending.
func rankError(sorted []float64, v, q float64) float64 {
	below, _ := slices.BinarySearch(sorted, v)
	upTo := below
	if below < len(sorted) {
		upTo, _ = slices.BinarySearch(sorted, math.Nextafter(sorted[below], math.Inf(1)))
	}
	lo, hi := float64(below)/float64(len(sorted)), float64(upTo)/float64(len(sorted))
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	}
	return 0
}

// sortedValues are one metric's raw values, ascending — the exact answer a
// sketch's quantiles are judged against.
func sortedValues(events []telemetry.Envelope, metric string) []float64 {
	var vs []float64
	for _, e := range events {
		if e.Metric == metric {
			vs = append(vs, e.Value)
		}
	}
	slices.Sort(vs)
	return vs
}

// assertInsideRankBound checks an answer against the raw stream: count, min
// and max exact, every quantile within the rank error it reports.
func assertInsideRankBound(t *testing.T, what string, res telemetry.QueryResult, sorted []float64) {
	t.Helper()
	if res.Count != float64(len(sorted)) || res.Min != sorted[0] || res.Max != sorted[len(sorted)-1] {
		t.Fatalf("%s: count/min/max = %v/%v/%v, stream has %d in [%v, %v]",
			what, res.Count, res.Min, res.Max, len(sorted), sorted[0], sorted[len(sorted)-1])
	}
	for _, q := range res.Quantiles {
		if e := rankError(sorted, q.Value, q.Q); e > q.RankError {
			t.Errorf("%s: q%v = %v is %.5f ranks off, bound %.5f", what, q.Q, q.Value, e, q.RankError)
		}
	}
}

// TestTwoLevelFoldStaysInsideRankErrorBound: folding per key and then
// merging the folds is a two-level merge tree; a t-digest's bound survives
// any merge tree, and here it is checked — on a log-normal latency, a
// heavier-tailed throughput and an integer-valued hop count (ties), at
// p50/p95/p99, against the exact ranks of the raw stream.
func TestTwoLevelFoldStaysInsideRankErrorBound(t *testing.T) {
	events := compressingEvents(11, 10)
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 4, QueueLen: 1024, Block: true})
	defer ing.Close()
	ing.OfferAll(events)
	ing.Flush()
	for _, metric := range []string{telemetry.MetricRTT, telemetry.MetricTput, telemetry.MetricHops} {
		res, err := ing.Query(telemetry.QuerySpec{Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		if want := foldWindows * len(foldRegions) * len(foldNets); res.Windows != want {
			t.Fatalf("%s: %d windows merged, want %d", metric, res.Windows, want)
		}
		assertInsideRankBound(t, metric, res, sortedValues(events, metric))
	}
}
