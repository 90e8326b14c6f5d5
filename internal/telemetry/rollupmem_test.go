package telemetry

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
)

// trimSlack is the spare room stats.Sketch.Trim leaves in place: a list
// with no more than 64 B to release is not worth a copy.
const trimSlack = 64

// untrimmed lists the rollups of windows before `before` whose sketches hold
// more than trimSlack bytes beyond their exact size — a Clone's, which copies
// each point list at its length.
func untrimmed(ing *Ingestor, before int64) []string {
	var out []string
	for _, s := range ing.shards {
		s.mu.Lock()
		for _, ks := range s.keys {
			for _, w := range ks.wins {
				if w.start >= before {
					continue
				}
				if exact := w.sk.Clone().Footprint(); w.sk.Footprint()-exact > trimSlack {
					out = append(out, fmt.Sprintf("%d/%v: %d B held, %d B exact", w.start, ks.key, w.sk.Footprint(), exact))
				}
			}
		}
		s.mu.Unlock()
	}
	return out
}

// TestClosedWindowRollupsAreTrimmed pins the rollover trim: once a shard
// folds into window W+1, every rollup of a window before W+1 holds its
// points to within trimSlack, and a late event into W that regrows its
// rollup is trimmed again when the shard opens W+2.
func TestClosedWindowRollupsAreTrimmed(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, Window: time.Second, Block: true})
	defer ing.Close()
	r := rng.New(5)
	offer := func(w int64, region string, n int) {
		for i := 0; i < n; i++ {
			ing.Offer(Envelope{V: SchemaVersion, TS: w*1000 + int64(i%1000), Metric: MetricRTT, Region: region, Net: "WiFi", Value: r.LogNormal(3, 0.5)})
		}
		ing.Flush()
	}
	const w = 10
	// 150 points per rollup, under the 4δ flush: each buffer has grown past
	// its length.
	for _, win := range []int64{w - 1, w} {
		for _, region := range []string{"a", "b", "c"} {
			offer(win, region, 150)
		}
	}
	if got := untrimmed(ing, w*1000); len(got) != 0 {
		t.Fatalf("rollups of window %d kept spare room after window %d opened: %v", w-1, w, got)
	}
	if got := untrimmed(ing, (w+1)*1000); len(got) != 3 {
		t.Fatalf("the open window's rollups: %d untrimmed, want 3 (the test needs spare room to see a trim)", len(got))
	}

	offer(w+1, "a", 1)
	if got := untrimmed(ing, (w+1)*1000); len(got) != 0 {
		t.Fatalf("after window %d opened: %v", w+1, got)
	}

	offer(w, "b", 1) // late: appends past the trimmed buffer's length
	if got := untrimmed(ing, (w+1)*1000); len(got) != 1 {
		t.Fatalf("a late event into window %d left %d rollups untrimmed, want 1: %v", w, len(got), got)
	}
	offer(w+2, "c", 1)
	if got := untrimmed(ing, (w+2)*1000); len(got) != 0 {
		t.Fatalf("after window %d opened: %v", w+2, got)
	}
}

// TestTrimKeepsFoldMemo checks that a trim writes no content: a fold
// memoised before a rollover trims its rollups answers the same query
// after it, byte for byte, without folding again.
func TestTrimKeepsFoldMemo(t *testing.T) {
	reg := obs.NewRegistry()
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true, Metrics: reg})
	defer ing.Close()
	r := rng.New(6)
	for w := int64(1); w <= 2; w++ {
		for i := 0; i < 150; i++ {
			for _, region := range []string{"a", "b"} {
				ing.Offer(Envelope{V: SchemaVersion, TS: w * 1000, Metric: MetricRTT, Region: region, Net: "LTE", Value: r.LogNormal(2, 0.4)})
			}
		}
	}
	ing.Flush()
	spec := QuerySpec{Metric: MetricRTT, From: time.UnixMilli(1000), To: time.UnixMilli(3000)}
	counter := func(name string) float64 {
		s, _ := obs.Find(reg.Snapshot(), name)
		return s.Value
	}
	before, err := ing.MatchSketches(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := before.AppendBinary(nil)
	if got := untrimmed(ing, 3000); len(got) != 2 {
		t.Fatalf("window 2 is open: %d untrimmed rollups, want 2", len(got))
	}

	for _, region := range []string{"a", "b"} {
		ing.Offer(Envelope{V: SchemaVersion, TS: 4000, Metric: MetricRTT, Region: region, Net: "LTE", Value: 1})
	}
	ing.Flush()
	if got := untrimmed(ing, 3000); len(got) != 0 {
		t.Fatalf("opening window 4 left the queried rollups untrimmed: %v", got)
	}

	hits, folded := counter("telemetry_sketches_memo_hits_total"), counter("telemetry_sketches_folded_rollups_total")
	after, err := ing.MatchSketches(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := after.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatal("the page after the trim differs from the page before it")
	}
	if d := counter("telemetry_sketches_memo_hits_total") - hits; d != 2 {
		t.Errorf("memo hits rose by %v across the trim, want 2 (one per key)", d)
	}
	if d := counter("telemetry_sketches_folded_rollups_total") - folded; d != 0 {
		t.Errorf("the repeated query folded %v rollups, want 0", d)
	}
}

// TestRollupBytesBoundedAtSaturation states a node's memory bound as a
// property of the gauge, not of the heap: 128 keys × 25 one-second windows
// on 4 shards, 1 340 events per (key, window) — the single-node benchmark's
// density — hold at most 4.5 MB in their rollups' point lists. A closed
// rollup is sealed to its centroids (≈ 1.1 KB; ≈ 2.2 KB with its buffered
// points kept, 6.9 MB for the set, and ≈ 10.9 MB when a buffered point cost
// 16 B); the open window's rollups keep their buffers. Untrimmed, a closed
// window's rollup keeps its last append's capacity.
func TestRollupBytesBoundedAtSaturation(t *testing.T) {
	const (
		keys, windows, perRollup = 128, 25, 1340
		limit                    = 9 << 19
	)
	ing := NewIngestor(Config{Shards: 4, Window: time.Second, Block: true})
	defer ing.Close()
	r := rng.New(7)
	key := make([]Envelope, keys)
	for k := range key {
		key[k] = Envelope{V: SchemaVersion, Metric: MetricRTT, Region: fmt.Sprint("region-", k/4), Net: []string{"WiFi", "LTE", "5G", "wired"}[k%4]}
	}
	for w := int64(1); w <= windows; w++ {
		for i := 0; i < perRollup; i++ {
			for _, e := range key {
				e.TS, e.Value = w*1000+int64(i%1000), r.LogNormal(3, 0.6)
				ing.Offer(e)
			}
		}
	}
	ing.Flush()
	st := ing.TotalStats()
	if st.Rollups != keys*windows {
		t.Fatalf("%d rollups, want %d", st.Rollups, keys*windows)
	}
	t.Logf("%d rollups hold %d B (%.0f B each)", st.Rollups, st.RollupBytes, float64(st.RollupBytes)/float64(st.Rollups))
	if st.RollupBytes > limit {
		t.Errorf("%d rollups at %d events each hold %d B, want ≤ %d", st.Rollups, perRollup, st.RollupBytes, limit)
	}
}
