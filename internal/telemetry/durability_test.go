package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edgescope/internal/obs"
)

// durCfg is the durability tests' base config: blocking ingest (lossless),
// every record fsynced (SyncEvery 1), so the durable horizon is "everything
// offered" and recovery must reproduce it exactly.
func durCfg(dir string) Config {
	return Config{
		Shards:   3,
		QueueLen: 64,
		Block:    true,
		WAL:      WALConfig{Dir: dir, SyncEvery: 1},
	}
}

// queryFingerprint marshals every answer surface of the ingestor — per-key
// counts plus quantile/CDF answers per metric — into one byte slice.
// Byte-equal fingerprints mean a client could not distinguish the two
// ingestors.
func queryFingerprint(t *testing.T, ing *Ingestor) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(ing.Keys()); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{MetricRTT, MetricHops} {
		res, err := ing.Query(QuerySpec{
			Metric:    metric,
			Quantiles: []float64{0.5, 0.9, 0.95, 0.99},
			CDFAt:     []float64{5, 20, 50, 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(buf.Bytes())
}

// TestKillAndRecoverByteIdentical is the tentpole acceptance pin: hard-kill
// a durable ingestor (no final flush, fsync or snapshot) and a restarted
// one answers the same queries byte-for-byte.
func TestKillAndRecoverByteIdentical(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	if got := ing.OfferAll(events); got != len(events) {
		t.Fatalf("accepted %d of %d", got, len(events))
	}
	ing.Flush()
	want := queryFingerprint(t, ing)
	ing.Crash()

	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ing2.Close()
	if rec.RecordsReplayed != uint64(len(events)) {
		t.Fatalf("replayed %d records, want %d", rec.RecordsReplayed, len(events))
	}
	if got := queryFingerprint(t, ing2); !bytes.Equal(got, want) {
		t.Fatalf("recovered answers diverge:\n got %s\nwant %s", got, want)
	}
}

// TestCleanShutdownRecoversFromSnapshot: Close writes a final snapshot, so
// the next Open replays zero WAL records and still answers identically.
func TestCleanShutdownRecoversFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	ing.OfferAll(events)
	ing.Flush()
	want := queryFingerprint(t, ing)
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ing2.Close()
	if rec.Snapshots == 0 {
		t.Fatal("no snapshot loaded after clean shutdown")
	}
	if rec.RecordsReplayed != 0 {
		t.Fatalf("replayed %d records after clean shutdown, want 0", rec.RecordsReplayed)
	}
	if got := queryFingerprint(t, ing2); !bytes.Equal(got, want) {
		t.Fatal("post-shutdown recovery diverges from pre-shutdown answers")
	}
}

// TestRecoverSnapshotEquivalentToWALOnly is the property pin: a snapshot is
// only a replay accelerator, so deleting every snapshot and recovering from
// the WAL alone must produce byte-identical answers AND byte-identical
// dedup behaviour.
func TestRecoverSnapshotEquivalentToWALOnly(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	cfg := durCfg(dir)
	cfg.WAL.SnapshotEvery = 37 // frequent mid-stream snapshots

	writer := cfg
	writer.Metrics = obs.NewRegistry() // counts the checkpoints written
	ing := NewIngestor(writer)
	// Sequence half the events so dedup trackers are part of the state.
	for i, e := range events {
		if i%2 == 0 {
			e.Seq = uint64(i/2 + 1)
		}
		if !ing.Offer(e) {
			t.Fatal("offer refused")
		}
	}
	ing.Flush()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	// The property is only about something if the worker checkpointed
	// mid-stream: Close's one unconditional checkpoint per shard is not it.
	if n := checkpoints(ing); n < uint64(cfg.Shards)+3 {
		t.Fatalf("%d checkpoints written, %d of them at Close: no mid-stream snapshots to be equivalent to", n, cfg.Shards)
	}

	open := func() (*Ingestor, []byte) {
		ing, _, err := Open(cfg)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		return ing, queryFingerprint(t, ing)
	}

	withSnap, fpSnap := open()
	defer withSnap.Close()

	// Strip every snapshot; only the WAL remains.
	for i := 0; i < cfg.Shards; i++ {
		path := filepath.Join(shardDir(dir, i), snapshotFile)
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
	}
	walOnly, fpWAL := open()
	defer walOnly.Close()

	if !bytes.Equal(fpSnap, fpWAL) {
		t.Fatalf("snapshot+WAL and WAL-only recoveries diverge:\n snap %s\n wal  %s", fpSnap, fpWAL)
	}

	// Dedup state must have been reconstructed identically too: resending
	// an already-folded sequence is a duplicate on both.
	dup := events[0]
	dup.Seq = 1
	for _, ing := range []*Ingestor{withSnap, walOnly} {
		before := ing.TotalStats().Deduped
		if !ing.Offer(dup) {
			t.Fatal("offer refused")
		}
		ing.Flush()
		if got := ing.TotalStats().Deduped; got != before+1 {
			t.Fatalf("resent duplicate folded (deduped %d -> %d)", before, got)
		}
	}
}

// TestCorruptSnapshotFallsBackToWAL: a bit-flipped snapshot is detected by
// its checksum and recovery silently falls back to full WAL replay.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	ing.OfferAll(events)
	ing.Flush()
	want := queryFingerprint(t, ing)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(shardDir(dir, 0), snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover with corrupt snapshot: %v", err)
	}
	defer ing2.Close()
	if rec.SnapshotErrors != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", rec.SnapshotErrors)
	}
	if rec.RecordsReplayed == 0 {
		t.Fatal("corrupt snapshot should force WAL replay for its shard")
	}
	if got := queryFingerprint(t, ing2); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery diverges")
	}
}

// TestTornTailTruncated: a torn final record (crash mid-write) is detected,
// trimmed, and never replayed — and the trim survives re-recovery.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	ing.OfferAll(events)
	ing.Flush()
	want := queryFingerprint(t, ing)
	ing.Crash()

	// Forge the torn write: the first half of a valid record.
	segs, _, err := listSegments(osFS{}, shardDir(dir, 0))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in shard 0 (err=%v)", err)
	}
	path := segFile(shardDir(dir, 0), segs[0], false)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := appendEnvelopeRecord(nil, ev(segs[0], MetricRTT, "Beijing", "WiFi", 1))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)/2])
	f.Close()

	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover with torn tail: %v", err)
	}
	if rec.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", rec.TornTails)
	}
	if got := queryFingerprint(t, ing2); !bytes.Equal(got, want) {
		t.Fatal("torn-tail recovery diverges")
	}
	ing2.Close()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("torn tail not truncated back: %d bytes, want %d", len(after), len(clean))
	}
}

// TestCorruptWALRecordFailsLoudly: a complete WAL record whose checksum holds
// but whose payload is no envelope is durable data that cannot be replayed —
// recovery must fail with a positioned error, not skip it.
func TestCorruptWALRecordFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	ing.OfferAll(campaignEvents(t))
	ing.Flush()
	ing.Crash()

	segs, _, err := listSegments(osFS{}, shardDir(dir, 1))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in shard 1 (err=%v)", err)
	}
	path := segFile(shardDir(dir, 1), segs[0], false)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(appendRecord(nil, recEnvelope, []byte("not an envelope")))
	f.Close()

	if _, _, err := Open(cfg); !errors.Is(err, errWALCorrupt) {
		t.Fatalf("Open = %v, want errWALCorrupt", err)
	}
}

// TestRecoveredIngestorContinuesStream: recovery is not just a read-only
// restore — the reopened ingestor keeps accepting, WAL-logging and
// snapshotting, and a second recovery sees the union.
func TestRecoveredIngestorContinuesStream(t *testing.T) {
	dir := t.TempDir()
	events := campaignEvents(t)
	half := len(events) / 2
	cfg := durCfg(dir)

	ing := NewIngestor(cfg)
	ing.OfferAll(events[:half])
	ing.Flush()
	ing.Crash()

	ing2, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ing2.OfferAll(events[half:])
	ing2.Flush()
	want := queryFingerprint(t, ing2)
	ing2.Crash()

	ing3, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing3.Close()
	// Recovery #1 rewrote a checkpoint covering the first half, so recovery
	// #2 skips those records and replays only generation 2's appends —
	// together they must cover the whole stream.
	if total := rec.RecordsReplayed + rec.RecordsSkipped; total != uint64(len(events)) {
		t.Fatalf("replayed %d + skipped %d, want %d total", rec.RecordsReplayed, rec.RecordsSkipped, len(events))
	}
	if rec.RecordsReplayed != uint64(len(events)-half) {
		t.Fatalf("replayed %d, want %d (second generation's appends)", rec.RecordsReplayed, len(events)-half)
	}
	if got := queryFingerprint(t, ing3); !bytes.Equal(got, want) {
		t.Fatal("two-generation recovery diverges")
	}

	// The whole stream must also match a never-crashed ingestor: crashes
	// with per-record fsync lose nothing.
	clean := NewIngestor(Config{Shards: cfg.Shards, QueueLen: cfg.QueueLen, Block: true})
	defer clean.Close()
	clean.OfferAll(events)
	clean.Flush()
	if got := queryFingerprint(t, clean); !bytes.Equal(got, want) {
		t.Fatal("recovered stream diverges from a never-crashed ingestor")
	}
}

// TestRetentionUnlinksWALSegments: evicting a window removes its segment
// file, so disk usage tracks MaxWindows and recovery replays only retained
// windows.
func TestRetentionUnlinksWALSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:     1,
		QueueLen:   64,
		Block:      true,
		MaxWindows: 2,
		Window:     time.Minute,
		WAL:        WALConfig{Dir: dir, SyncEvery: 1},
	}
	ing := NewIngestor(cfg)
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for w := 0; w < 5; w++ {
		for i := 0; i < 10; i++ {
			e := ev(base+int64(w)*60_000+int64(i), MetricRTT, "Beijing", "WiFi", float64(i))
			if !ing.Offer(e) {
				t.Fatal("offer refused")
			}
		}
	}
	ing.Flush()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _, err := listSegments(osFS{}, shardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("retained %d segments, want 2 (MaxWindows)", len(segs))
	}

	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if rec.Windows != 2 {
		t.Fatalf("recovered %d windows, want 2", rec.Windows)
	}
}

// TestSnapshotNeverClaimsUnsyncedRecords is the stale-applied-counts pin: a
// snapshot's applied counts must cover only fsynced records. Generation 1
// buffers its WAL (huge SyncEvery) while snapshotting frequently — each
// checkpoint must fsync first, or it claims records that never reached
// disk. If it over-claimed, generation 2 (which appends and fsyncs new
// records at the segment's true disk offsets, then crashes before its own
// snapshot) would be recovered by generation 3 skipping past those durable
// records — silent loss of fsynced data.
func TestSnapshotNeverClaimsUnsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	mk := func(i int) Envelope {
		return ev(base+int64(i), MetricRTT, "Beijing", "WiFi", float64(i%17))
	}

	cfg1 := Config{Shards: 1, QueueLen: 64, Block: true,
		WAL: WALConfig{Dir: dir, SyncEvery: 1 << 30, SnapshotEvery: 25}}
	ing1 := NewIngestor(cfg1)
	for i := 0; i < 100; i++ {
		if !ing1.Offer(mk(i)) {
			t.Fatal("offer refused")
		}
	}
	ing1.Flush()
	ing1.Crash() // buffered WAL bytes beyond the last checkpoint are lost
	// Crash never checkpoints, so a snapshot on disk with applied counts is
	// one the worker cut mid-stream — the checkpoints this pin is about.
	if snap, err := loadSnapshot(osFS{}, shardDir(dir, 0)); err != nil || snap == nil || len(snap.applied) == 0 {
		t.Fatalf("generation 1 left no mid-stream checkpoint behind (snapshot %v, err %v)", snap, err)
	}

	cfg2 := Config{Shards: 1, QueueLen: 64, Block: true,
		WAL: WALConfig{Dir: dir, SyncEvery: 1}}
	ing2, _, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if !ing2.Offer(mk(i)) {
			t.Fatal("offer refused")
		}
	}
	ing2.Flush() // SyncEvery 1: every generation-2 record is fsynced
	want := queryFingerprint(t, ing2)
	ing2.Crash() // before any generation-2 snapshot

	ing3, _, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer ing3.Close()
	if got := queryFingerprint(t, ing3); !bytes.Equal(got, want) {
		t.Fatal("recovery lost fsynced records: snapshot applied counts covered unsynced appends")
	}
}

// TestConcurrentSnapshotSafe: the public Snapshot and the worker's periodic
// checkpoint share one tmp path per shard, so concurrent checkpointers must
// serialise — no interleaved write may ever rename a corrupt snapshot into
// place. Run under -race; the surviving snapshot must decode cleanly.
func TestConcurrentSnapshotSafe(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, QueueLen: 256, Block: true,
		WAL: WALConfig{Dir: dir, SyncEvery: 8, SnapshotEvery: 7}}
	writer := cfg
	writer.Metrics = obs.NewRegistry() // counts the checkpoints written
	ing := NewIngestor(writer)
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	const snapshotters, perSnapshotter = 3, 50
	var wg sync.WaitGroup
	for g := 0; g < snapshotters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSnapshotter; i++ {
				ing.Snapshot()
			}
		}()
	}
	// Every public Snapshot restarts the worker's cadence, so while they
	// run the worker cuts one of its own only when the race lets 7 records
	// through between two; the events offered after the last Snapshot make
	// sure it cut at least one in this run, whatever the schedule.
	for i := 0; i < 700; i++ {
		if i == 500 {
			wg.Wait()
		}
		if !ing.Offer(ev(base+int64(i), MetricRTT, "Beijing", "WiFi", float64(i%13))) {
			t.Fatal("offer refused")
		}
	}
	ing.Flush()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if n := checkpoints(ing); n <= snapshotters*perSnapshotter+1 {
		t.Fatalf("%d checkpoints = the %d public ones + Close's: the worker never cut one", n, snapshotters*perSnapshotter)
	}
	if _, err := loadSnapshot(osFS{}, shardDir(dir, 0)); err != nil {
		t.Fatalf("snapshot corrupt after concurrent checkpoints: %v", err)
	}
	ing2, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ing2.Close()
	if rec.SnapshotErrors != 0 {
		t.Fatalf("recovery rejected %d snapshots written under contention", rec.SnapshotErrors)
	}
}

// TestDedupFoldsOnce: sequenced duplicates fold exactly once, are counted,
// and never deadlock Flush.
func TestDedupFoldsOnce(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, QueueLen: 64, Block: true})
	defer ing.Close()
	const n = 50
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := 0; i < n; i++ {
		e := ev(base+int64(i), MetricRTT, "Beijing", "WiFi", float64(i))
		e.User = 7
		e.Seq = uint64(i + 1)
		if !ing.Offer(e) || !ing.Offer(e) { // every event sent twice
			t.Fatal("offer refused")
		}
	}
	ing.Flush()
	tot := ing.TotalStats()
	if tot.Deduped != n {
		t.Fatalf("deduped = %d, want %d", tot.Deduped, n)
	}
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n {
		t.Fatalf("count = %v, want %d (duplicates folded)", res.Count, n)
	}
}

// seenDup adapts seen for tests that only care about the duplicate verdict.
func seenDup(tr *seqTracker, seq uint64) bool {
	dup, _ := tr.seen(seq)
	return dup
}

// TestDedupTrackerCompacts: contiguous sequences collapse into the floor —
// the tracker must not grow with the stream.
func TestDedupTrackerCompacts(t *testing.T) {
	var tr seqTracker
	// Deliver 1..1000 with local reordering (pairs swapped).
	for i := uint64(1); i <= 1000; i += 2 {
		if seenDup(&tr, i+1) || seenDup(&tr, i) {
			t.Fatalf("fresh seq reported seen at %d", i)
		}
	}
	if tr.floor != 1000 {
		t.Fatalf("floor = %d, want 1000", tr.floor)
	}
	if len(tr.sparse) != 0 {
		t.Fatalf("sparse holds %d entries after contiguous delivery, want 0", len(tr.sparse))
	}
	if !seenDup(&tr, 500) || !seenDup(&tr, 1000) {
		t.Fatal("replayed seq not recognised")
	}
}

// TestDedupTrackerSparseCapped: a permanent gap (an abandoned send whose
// sequence never arrives) must not pin sparse entries forever — past the
// cap the tracker advances its floor over the gap and stays bounded, while
// in-order traffic above it still dedups.
func TestDedupTrackerSparseCapped(t *testing.T) {
	var tr seqTracker
	// Seq 1 never arrives; everything above it does.
	compactions := 0
	for seq := uint64(2); seq <= maxTrackerSparse+100; seq++ {
		dup, compacted := tr.seen(seq)
		if dup {
			t.Fatalf("fresh seq %d reported seen", seq)
		}
		if compacted {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("compaction not reported past the sparse cap")
	}
	if len(tr.sparse) > maxTrackerSparse {
		t.Fatalf("sparse grew to %d entries past the cap %d", len(tr.sparse), maxTrackerSparse)
	}
	if tr.floor == 0 {
		t.Fatal("cap did not advance the floor over the permanent gap")
	}
	next := uint64(maxTrackerSparse + 101)
	if seenDup(&tr, next) {
		t.Fatal("new seq reported seen after compaction")
	}
	if !seenDup(&tr, next) {
		t.Fatal("duplicate not recognised after compaction")
	}
}

// TestDedupTrackerAgedOutByRetention: trackers for streams idle past the
// retention horizon are pruned with the windows they fed, so the per-shard
// seen map (and every snapshot) stays bounded alongside MaxWindows.
func TestDedupTrackerAgedOutByRetention(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true,
		MaxWindows: 2, Window: time.Minute})
	defer ing.Close()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	// Each window is fed by its own (key, user) stream: user w sends only
	// inside window w, then goes idle forever.
	for w := 0; w < 6; w++ {
		for i := 0; i < 5; i++ {
			e := ev(base+int64(w)*60_000+int64(i), MetricRTT, "Beijing", "WiFi", float64(i))
			e.User = w
			e.Seq = uint64(i + 1)
			if !ing.Offer(e) {
				t.Fatal("offer refused")
			}
		}
	}
	ing.Flush()
	s := ing.shards[0]
	s.mu.Lock()
	trackers := len(s.seen)
	s.mu.Unlock()
	if trackers > 2 {
		t.Fatalf("%d trackers retained with MaxWindows=2, want <=2 (idle streams not aged out)", trackers)
	}
}

// TestOfferAfterCloseSafe: satellite 1 — Offer/OfferAll on a closed
// ingestor return false/0, never panic, and Close is idempotent.
func TestOfferAfterCloseSafe(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, QueueLen: 8, Block: true})
	e := ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 1)
	if !ing.Offer(e) {
		t.Fatal("offer refused before close")
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if ing.Offer(e) {
		t.Fatal("Offer accepted after Close")
	}
	if got := ing.OfferAll([]Envelope{e, e}); got != 0 {
		t.Fatalf("OfferAll accepted %d after Close", got)
	}
	// Queries still answer over the final state.
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil || res.Count != 1 {
		t.Fatalf("post-close query: count=%v err=%v", res.Count, err)
	}
}

// TestQueryOfferCloseRace: satellite 1's race pin — concurrent Offer, Query
// and Close must be clean under -race and leave the ingestor consistent.
func TestQueryOfferCloseRace(t *testing.T) {
	ing := NewIngestor(Config{Shards: 4, QueueLen: 32, Block: true})
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ing.Offer(ev(base+int64(i), MetricRTT, "Beijing", "WiFi", float64(i)))
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ing.Query(QuerySpec{Metric: MetricRTT, Quantiles: []float64{0.5}})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ing.Close()
	}()
	wg.Wait()
	ing.Close()
	tot := ing.TotalStats()
	if tot.Processed != tot.Accepted {
		t.Fatalf("accepted %d but processed %d after close", tot.Accepted, tot.Processed)
	}
}

// TestHardFullQueueDrops: a non-blocking ingestor refuses an envelope its
// hard-full shard queue has no room for, counting it as dropped.
func TestHardFullQueueDrops(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, QueueLen: 8})
	defer ing.Close()

	// Park the shard worker by holding the fold lock, then fill the queue.
	s := ing.shards[0]
	s.mu.Lock()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := 0; ; i++ {
		if !ing.Offer(ev(base+int64(i), MetricRTT, "Beijing", "WiFi", 1)) {
			break // queue hard full
		}
	}
	// Read the counters directly: Stats() takes s.mu, which this test holds.
	if s.dropped.Value() == 0 {
		t.Fatal("expected hard-full drop")
	}
	s.mu.Unlock()
}

// TestHealthReportsDegradedWAL: a shard whose WAL write fails degrades to
// memory-only and Health says so.
func TestHealthReportsDegradedWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(dir)
	cfg.Shards = 1
	disk := newMemFS()
	disk.faultWrite = func(string, []byte) (int, error) { return 0, errors.New("disk on fire") }
	ing := mustOpen(t, cfg, disk)
	defer ing.Close()
	if h := ing.Health(); h.Status != "ok" {
		t.Fatalf("fresh ingestor health = %s (%v)", h.Status, h.Reasons)
	}
	ing.Offer(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 1))
	ing.Flush()
	ing.SyncWAL()
	h := ing.Health()
	if h.Status != "degraded" || len(h.Reasons) == 0 {
		t.Fatalf("health = %s %v, want degraded with a reason", h.Status, h.Reasons)
	}
	// Ingest keeps working memory-only.
	ing.Offer(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 2))
	ing.Flush()
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil || res.Count != 2 {
		t.Fatalf("degraded ingest lost data: count=%v err=%v", res.Count, err)
	}
}
