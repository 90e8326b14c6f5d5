package telemetry

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// handoffEvents returns a deterministic spread of envelopes across several
// keys and windows; seq numbers make them dedup-tracked like cluster traffic.
func handoffEvents() []Envelope {
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	var out []Envelope
	regions := []string{"Beijing", "Shanghai", "Chengdu"}
	nets := []string{"WiFi", "4G"}
	seq := map[string]uint64{}
	for i := 0; i < 240; i++ {
		r, n := regions[i%len(regions)], nets[(i/3)%len(nets)]
		user := i % 7
		sk := r + "/" + n + "/" + strconv.Itoa(user)
		seq[sk]++
		out = append(out, Envelope{
			V: 1, TS: base + int64(i)*500, Metric: MetricRTT,
			Region: r, Net: n, Value: 10 + float64(i%37),
			User: user, Seq: seq[sk],
		})
	}
	return out
}

func offerAllFlush(t *testing.T, ing *Ingestor, events []Envelope) {
	t.Helper()
	if n := ing.OfferAll(events); n != len(events) {
		t.Fatalf("offered %d of %d", n, len(events))
	}
	ing.Flush()
}

func handoffFingerprint(t *testing.T, ing *Ingestor) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	if err := enc.Encode(ing.Keys()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []QuerySpec{
		{Metric: MetricRTT},
		{Metric: MetricRTT, Region: "Beijing"},
		{Metric: MetricRTT, Net: "4G", Quantiles: []float64{0.1, 0.5, 0.9, 0.99}, CDFAt: []float64{15, 30}},
	} {
		res, err := ing.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// partitionCounts returns rollup counts per partition for a given split.
func partitionRollups(ing *Ingestor, of int) map[int]int {
	counts := map[int]int{}
	for _, s := range ing.shards {
		s.mu.Lock()
		for k, ks := range s.keys {
			counts[k.ShardOf(of)] += len(ks.wins)
		}
		s.mu.Unlock()
	}
	return counts
}

// TestPartitionHandoffByteIdentical pins the core handoff property: moving
// one partition from a source to an (empty-for-that-partition) destination
// via PartitionPages → AbsorbPages → DropPartition leaves the pair's
// combined state answering byte-identically to a single node that ingested
// everything — including after both sides crash and recover from their WALs.
func TestPartitionHandoffByteIdentical(t *testing.T) {
	const parts = 8
	events := handoffEvents()

	single := NewIngestor(Config{Shards: 3, Block: true, Window: time.Minute})
	offerAllFlush(t, single, events)
	defer single.Close()
	want := handoffFingerprint(t, single)

	srcDir, dstDir := t.TempDir(), t.TempDir()
	cfg := func(dir string) Config {
		return Config{Shards: 3, Block: true, Window: time.Minute, WAL: WALConfig{Dir: dir, SyncEvery: 4}}
	}
	src := NewIngestor(cfg(srcDir))
	dst := NewIngestor(cfg(dstDir))

	// Split ingest by partition: partitions 0..3 to src, 4..7 to dst.
	for _, e := range events {
		p := e.Key().ShardOf(parts)
		tgt := src
		if p >= 4 {
			tgt = dst
		}
		if !tgt.Offer(e) {
			t.Fatalf("offer refused")
		}
	}
	src.Flush()
	dst.Flush()

	merged := func() string {
		t.Helper()
		var sb strings.Builder
		pages := make(map[string][]SketchPage)
		for _, spec := range []QuerySpec{
			{Metric: MetricRTT},
			{Metric: MetricRTT, Region: "Beijing"},
			{Metric: MetricRTT, Net: "4G", Quantiles: []float64{0.1, 0.5, 0.9, 0.99}, CDFAt: []float64{15, 30}},
		} {
			for _, ing := range []*Ingestor{src, dst} {
				pg, err := ing.MatchSketches(spec)
				if err != nil {
					t.Fatal(err)
				}
				k, _ := json.Marshal(spec)
				pages[string(k)] = append(pages[string(k)], pg)
			}
		}
		// Keys across both nodes.
		acc := map[Key]float64{}
		for _, ing := range []*Ingestor{src, dst} {
			for _, kc := range ing.Keys() {
				acc[kc.Key] += kc.Count
			}
		}
		keys := single.Keys() // canonical order template
		out := make([]KeyCount, 0, len(keys))
		for _, kc := range keys {
			out = append(out, KeyCount{Key: kc.Key, Count: acc[kc.Key]})
		}
		enc := json.NewEncoder(&sb)
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []QuerySpec{
			{Metric: MetricRTT},
			{Metric: MetricRTT, Region: "Beijing"},
			{Metric: MetricRTT, Net: "4G", Quantiles: []float64{0.1, 0.5, 0.9, 0.99}, CDFAt: []float64{15, 30}},
		} {
			k, _ := json.Marshal(spec)
			res, err := MergeSketchPages(spec, pages[string(k)])
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}

	if got := merged(); got != want {
		t.Fatalf("pre-handoff split cluster diverged from single node:\n got %s\nwant %s", got, want)
	}

	// Hand a populated src-side partition to dst.
	mover := -1
	for p, n := range partitionRollups(src, parts) {
		if p < 4 && n > 0 {
			mover = p
			break
		}
	}
	if mover < 0 {
		t.Fatal("no populated partition on src")
	}
	pages, err := src.PartitionPages(mover, parts)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := dst.AbsorbPages(pages)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rollups == 0 || ack.Count == 0 {
		t.Fatalf("absorb ack empty: %+v", ack)
	}
	if dropped, err := src.DropPartition(mover, parts); err != nil || dropped != ack.Rollups {
		t.Fatalf("dropped %d (err %v), want %d", dropped, err, ack.Rollups)
	}
	if counts := partitionRollups(src, parts); counts[mover] != 0 {
		t.Fatalf("source still holds %d rollups of partition %d", counts[mover], mover)
	}

	if got := merged(); got != want {
		t.Fatalf("post-handoff cluster diverged from single node:\n got %s\nwant %s", got, want)
	}

	// Crash both and recover: the absorb and the drop must both be durable.
	src.Crash()
	dst.Crash()
	var rst RecoveryStats
	src, rst, err = Open(cfg(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	_ = rst
	dst, _, err = Open(cfg(dstDir))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	if counts := partitionRollups(src, parts); counts[mover] != 0 {
		t.Fatalf("recovered source resurrected %d rollups of partition %d", counts[mover], mover)
	}
	if got := merged(); got != want {
		t.Fatalf("post-recovery cluster diverged from single node:\n got %s\nwant %s", got, want)
	}
}

// TestAbsorbPagesValidatesBeforeMutating pins that a malformed transfer
// mutates nothing: mismatched window length, misaligned starts, corrupt
// sketch bytes and a query's page of per-key folds — even one whose every
// other match is a placeable rollup — are all rejected upfront.
func TestAbsorbPagesValidatesBeforeMutating(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, Block: true, Window: time.Minute})
	defer ing.Close()
	good := SketchPage{Metric: MetricRTT, Compression: ing.cfg.Compression, WindowMs: time.Minute.Milliseconds()}

	cases := []struct {
		name string
		page SketchPage
		want string
	}{
		{"no-metric", SketchPage{Compression: good.Compression, WindowMs: good.WindowMs}, "without metric"},
		{"window-mismatch", SketchPage{Metric: MetricRTT, Compression: good.Compression, WindowMs: 5}, "window"},
		{"compression-mismatch", SketchPage{Metric: MetricRTT, Compression: good.Compression * 2, WindowMs: good.WindowMs}, "compression"},
		{"unaligned-start", func() SketchPage {
			p := good
			p.Matches = []WindowSketch{{Start: 37, Region: "r", Net: "n", Sketch: nil}}
			return p
		}(), "not window-aligned"},
		{"corrupt-sketch", func() SketchPage {
			p := good
			p.Matches = []WindowSketch{{Start: 0, Region: "r", Net: "n", Sketch: []byte("nope")}}
			return p
		}(), "sketch"},
		{"fold", func() SketchPage {
			src := NewIngestor(Config{Shards: 2, Block: true, Window: time.Minute})
			defer src.Close()
			offerAllFlush(t, src, handoffEvents())
			raw, err := src.PartitionPages(0, 1)
			if err != nil || len(raw) == 0 {
				t.Fatalf("partition pages: %d, err %v", len(raw), err)
			}
			folds, err := src.MatchSketches(QuerySpec{Metric: raw[0].Metric})
			if err != nil || len(folds.Matches) == 0 || folds.Matches[0].Windows != 2 {
				t.Fatalf("query page: %+v, err %v", folds.Matches, err)
			}
			// The fold goes last: everything before it is valid and must
			// still not be placed.
			raw[0].Matches = append(raw[0].Matches, folds.Matches[0])
			return raw[0]
		}(), "is a fold of 2 windows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ing.AbsorbPages([]SketchPage{tc.page}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if n := ing.TotalStats().Rollups; n != 0 {
				t.Fatalf("rejected absorb left %d rollups behind", n)
			}
		})
	}
}

// TestDropPartitionRejectsBadRange covers the argument gate shared by
// PartitionPages and DropPartition.
func TestDropPartitionRejectsBadRange(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, Block: true})
	defer ing.Close()
	for _, bad := range [][2]int{{0, 0}, {-1, 4}, {4, 4}, {9, 4}} {
		if _, err := ing.DropPartition(bad[0], bad[1]); err == nil {
			t.Fatalf("DropPartition(%d,%d) accepted", bad[0], bad[1])
		}
		if _, err := ing.PartitionPages(bad[0], bad[1]); err == nil {
			t.Fatalf("PartitionPages(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

// TestCtlRecordsSurviveSnapshotCycle pins the recover(snapshot+WAL) ==
// recover(WAL-only) invariant with control records in the log: a snapshot
// taken after an absorb+drop must skip exactly the records it covers.
func TestCtlRecordsSurviveSnapshotCycle(t *testing.T) {
	const parts = 4
	events := handoffEvents()
	dir := t.TempDir()
	cfg := Config{Shards: 2, Block: true, Window: time.Minute, WAL: WALConfig{Dir: dir, SyncEvery: 4}}
	ing := NewIngestor(cfg)
	offerAllFlush(t, ing, events)

	// Self-absorb a partition exported from a twin, then drop another: both
	// kinds of control record land in the WAL.
	twin := NewIngestor(Config{Shards: 2, Block: true, Window: time.Minute})
	offerAllFlush(t, twin, events)
	pages, err := twin.PartitionPages(1, parts)
	if err != nil {
		t.Fatal(err)
	}
	twin.Close()
	if _, err := ing.AbsorbPages(pages); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.DropPartition(3, parts); err != nil {
		t.Fatal(err)
	}
	want := handoffFingerprint(t, ing)

	// Route A: snapshot + crash → recovery from snapshot skips ctl records.
	if err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ing.Crash()
	rec, rst, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Snapshots == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rst)
	}
	if got := handoffFingerprint(t, rec); got != want {
		t.Fatalf("snapshot+WAL recovery diverged:\n got %s\nwant %s", got, want)
	}
	rec.Crash()

	// Route B: delete snapshots → full WAL replay must land identically.
	for i := 0; i < cfg.Shards; i++ {
		if err := os.Remove(filepath.Join(shardDir(dir, i), snapshotFile)); err != nil {
			t.Fatal(err)
		}
	}
	rec2, rst2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if rst2.Snapshots != 0 {
		t.Fatalf("expected WAL-only recovery, got %+v", rst2)
	}
	if got := handoffFingerprint(t, rec2); got != want {
		t.Fatalf("WAL-only recovery diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCtlDecodeRejectsGarbage pins loud failure for durable control records
// that cannot be applied.
func TestCtlDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"ctl":"absorb"}`, // no metric
		`{"ctl":"absorb","metric":"m","sketch":"eHg="}`, // corrupt sketch
		`{"ctl":"drop","partition":4,"of":4}`,           // partition out of range
		`{"ctl":"drop","partition":0,"of":0}`,           // zero split
		`{"ctl":"nonsense"}`,                            // unknown kind
		`{"ctl":42}`,                                    // wrong type
	}
	for _, line := range cases {
		if _, err := decodeCtl([]byte(line)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("decodeCtl(%s) = %v, want ErrInvalid", line, err)
		}
	}
}

// TestSetNodeInfoLive pins that a runtime identity swap is what /healthz
// reports afterwards.
func TestSetNodeInfoLive(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, Node: &NodeInfo{Role: "node", ID: "n0", Partitions: []int{0, 1}}})
	defer ing.Close()
	if got := ing.Health().Node; got == nil || got.ID != "n0" {
		t.Fatalf("initial node = %+v", got)
	}
	ing.SetNodeInfo(&NodeInfo{Role: "node", ID: "n0", Partitions: []int{0}})
	if got := ing.Health().Node; got == nil || len(got.Partitions) != 1 {
		t.Fatalf("updated node = %+v", got)
	}
}
