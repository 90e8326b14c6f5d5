package telemetry

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"edgescope/internal/obs"
)

// The WAL's cost model and its contract, pinned together: a sync costs one
// fsync per segment written since the last one — never one per open handle —
// and everything the contract calls durable is still on disk after a crash.
// One shard and one-second windows throughout, so window w is segment
// wal-<winStart(w)>.rec of shard 0 and the counters read are that shard's.

func walSyncCfg(dir string, syncEvery int) Config {
	return Config{Shards: 1, QueueLen: 64, Block: true, Window: time.Second,
		Metrics: obs.NewRegistry(),
		WAL:     WALConfig{Dir: dir, SyncEvery: syncEvery}}
}

// winStart is window w's start, Unix ms (window 0 opens 2021-10-01 UTC).
func winStart(w int) int64 { return 1_633_046_400_000 + int64(w)*1000 }

// inWindow is the i-th event of window w (distinct values, one key).
func inWindow(w, i int) Envelope {
	return ev(winStart(w)+int64(i%1000), MetricRTT, "Beijing", "WiFi", float64(w*31+i))
}

func offerAll(t *testing.T, ing *Ingestor, events ...Envelope) {
	t.Helper()
	for _, e := range events {
		if !ing.Offer(e) {
			t.Fatal("offer refused")
		}
	}
	ing.Flush()
}

// walCost is what the shard's WAL has paid so far.
type walCost struct {
	batches, files, timed uint64
	open                  int
}

func costOf(ing *Ingestor) walCost {
	s := ing.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.wal
	return walCost{batches: w.fsyncsC.Value(), files: w.fileFsyncsC.Value(),
		timed: w.fsyncHist.Count(), open: len(w.open)}
}

// TestCadenceFsyncsOnlyTheWrittenSegment: with the handle cap's worth of
// segments open and all traffic in the newest window, N cadences cost exactly
// N file fsyncs (the all-open-handles loop paid 8N).
func TestCadenceFsyncsOnlyTheWrittenSegment(t *testing.T) {
	const syncEvery, cadences = 4, 5
	ing := NewIngestor(walSyncCfg(t.TempDir(), syncEvery))
	defer ing.Close()
	for w := 0; w < maxOpenSegments; w++ {
		offerAll(t, ing, inWindow(w, 0))
	}
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	before := costOf(ing)
	if before.open != maxOpenSegments {
		t.Fatalf("%d segments open, want %d", before.open, maxOpenSegments)
	}
	for i := 0; i < cadences*syncEvery; i++ {
		offerAll(t, ing, inWindow(maxOpenSegments-1, 1+i))
	}
	after := costOf(ing)
	if got := after.files - before.files; got != cadences {
		t.Errorf("%d cadences fsynced %d files, want %d", cadences, got, cadences)
	}
	if got := after.batches - before.batches; got != cadences {
		t.Errorf("%d sync batches counted, want %d", got, cadences)
	}
	if got := after.timed - before.timed; got != cadences {
		t.Errorf("%d fsync latencies observed, want %d", got, cadences)
	}
	if lag := ing.TotalStats().WALLag; lag != 0 {
		t.Errorf("WALLag %d on a cadence boundary, want 0", lag)
	}
}

// TestLateEventsDurableAtNextCadence: an event into an older open window and
// one into a window whose handle was evicted and reopened are both fsynced by
// the very next cadence — a crash after it keeps them and loses only the
// unsynced suffix behind it.
func TestLateEventsDurableAtNextCadence(t *testing.T) {
	const syncEvery = 8
	dir := t.TempDir()
	cfg := walSyncCfg(dir, syncEvery)
	ing := NewIngestor(cfg)

	var stream []Envelope
	for w := 0; w <= maxOpenSegments; w++ { // nine windows: opening the last evicts window 0
		stream = append(stream, inWindow(w, 0))
	}
	stream = append(stream,
		inWindow(3, 1), // older window, handle still open
		inWindow(0, 1)) // evicted window, handle reopened
	for i := 0; i < syncEvery; i++ {
		stream = append(stream, inWindow(maxOpenSegments, 1+i))
	}
	// 19 appends, cadences after the 8th and the 16th: the second is the
	// first one after the late events, and finds three segments written.
	durable := len(stream) - len(stream)%syncEvery
	offerAll(t, ing, stream[:len(stream)-syncEvery]...)
	before := costOf(ing)
	offerAll(t, ing, stream[len(stream)-syncEvery:]...)
	after := costOf(ing)
	if got := after.batches - before.batches; got != 1 {
		t.Fatalf("%d cadences after the late events, want 1", got)
	}
	if got := after.files - before.files; got != 3 {
		t.Errorf("that cadence fsynced %d files, want 3 (windows 0, 3 and %d)", got, maxOpenSegments)
	}
	if lag := ing.TotalStats().WALLag; lag != uint64(len(stream)-durable) {
		t.Errorf("WALLag %d, want %d", lag, len(stream)-durable)
	}
	ing.Crash()

	cfg.Metrics = nil
	rec, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	want := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true, Window: time.Second})
	defer want.Close()
	offerAll(t, want, stream[:durable]...)
	if !bytes.Equal(queryFingerprint(t, rec), queryFingerprint(t, want)) {
		t.Fatal("recovered state differs from an uninterrupted run of the durable prefix")
	}
}

// TestHandleCapEvictionFsyncsOnlyDirtyVictim: closing the oldest handle to
// stay under the cap fsyncs it when it holds unsynced bytes, and only closes
// it when it does not.
func TestHandleCapEvictionFsyncsOnlyDirtyVictim(t *testing.T) {
	dir := t.TempDir()
	ing := NewIngestor(walSyncCfg(dir, 1<<30)) // no cadence: only eviction and SyncWAL fsync
	defer ing.Close()
	for w := 0; w < maxOpenSegments; w++ {
		offerAll(t, ing, inWindow(w, 0))
	}
	if c := costOf(ing); c.files != 0 || c.open != maxOpenSegments {
		t.Fatalf("before any eviction: %+v", c)
	}

	offerAll(t, ing, inWindow(maxOpenSegments, 0)) // evicts window 0, dirty
	if c := costOf(ing); c.files != 1 || c.batches != 0 || c.open != maxOpenSegments {
		t.Fatalf("dirty victim: %+v, want 1 file fsynced outside any batch", c)
	}
	if n := fileSize(t, ing.shards[0].wal.segPath(winStart(0))); n == 0 {
		t.Fatal("evicted segment's record never reached its file")
	}

	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	synced := costOf(ing)
	if synced.files != 1+maxOpenSegments || synced.batches != 1 {
		t.Fatalf("SyncWAL over %d written segments: %+v", maxOpenSegments, synced)
	}
	offerAll(t, ing, inWindow(maxOpenSegments+1, 0)) // evicts window 1, clean
	c := costOf(ing)
	if c.files != synced.files || c.open != maxOpenSegments {
		t.Fatalf("clean victim: %+v, want no fsync beyond %d", c, synced.files)
	}
	s := ing.shards[0]
	s.mu.Lock()
	_, stillOpen := s.wal.open[winStart(1)]
	s.mu.Unlock()
	if stillOpen {
		t.Fatal("window 1 should have given up its handle")
	}
}

// TestSyncWithNothingWrittenIsFree: SyncWAL on an idle ingestor, and the
// checkpoint's own sync when a cadence has just run, issue no fsync, count no
// batch and observe no latency.
func TestSyncWithNothingWrittenIsFree(t *testing.T) {
	cfg := walSyncCfg(t.TempDir(), 4)
	cfg.WAL.SnapshotEvery = 4 // the 4th append syncs, then makes the checkpoint due
	ing := NewIngestor(cfg)
	defer ing.Close()
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if c := costOf(ing); c.files != 0 || c.batches != 0 || c.timed != 0 {
		t.Fatalf("idle SyncWAL: %+v, want nothing", c)
	}

	for i := 0; i < 4; i++ {
		offerAll(t, ing, inWindow(0, i))
	}
	settleCheckpoint(ing, ing.shards[0])
	if n := checkpoints(ing); n != 1 {
		t.Fatalf("%d checkpoints cut, want 1", n)
	}
	if c := costOf(ing); c.files != 1 || c.batches != 1 || c.timed != 1 {
		t.Fatalf("cadence then checkpoint: %+v, want the cadence's one fsync only", c)
	}
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if c := costOf(ing); c.files != 1 || c.batches != 1 || c.timed != 1 {
		t.Fatalf("SyncWAL after the checkpoint: %+v, want nothing new", c)
	}
}

// mustOpen opens an ingestor on an in-memory disk.
func mustOpen(t *testing.T, cfg Config, disk *memFS) *Ingestor {
	t.Helper()
	ing, _, err := open(cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// TestShortWriteKeepsLagAndStickyError: a flush cut short fails the cadence,
// the durability watermark stays at the previous one, the error is sticky
// (SyncWAL keeps returning it, later appends are dropped from the log) and
// the segment it hit is still marked written.
func TestShortWriteKeepsLagAndStickyError(t *testing.T) {
	const syncEvery = 4
	disk := newMemFS()
	writes := 0
	disk.faultWrite = func(path string, b []byte) (int, error) {
		// The segment's second write lands half, like a full disk.
		if writes++; writes == 2 {
			return len(b) / 2, errors.New("short write")
		}
		return len(b), nil
	}
	ing := mustOpen(t, walSyncCfg("/data", syncEvery), disk)
	defer ing.Close()
	for i := 0; i < 3*syncEvery; i++ { // first cadence lands, second is cut, third never logs
		offerAll(t, ing, inWindow(0, i))
	}
	st := ing.TotalStats()
	if st.WALAppended != 2*syncEvery || st.WALLag != syncEvery {
		t.Fatalf("appended %d lag %d, want %d and %d", st.WALAppended, st.WALLag, 2*syncEvery, syncEvery)
	}
	if c := costOf(ing); c.files != 1 || c.batches != 1 {
		t.Fatalf("%+v, want only the first cadence counted", c)
	}
	err := ing.SyncWAL()
	if err == nil || err.Error() != "short write" {
		t.Fatalf("SyncWAL = %v, want the sticky short-write error", err)
	}
	if h := ing.Health(); h.Status != "degraded" {
		t.Fatalf("health = %s, want degraded", h.Status)
	}
	s := ing.shards[0]
	s.mu.Lock()
	dirty := len(s.wal.dirty)
	s.mu.Unlock()
	if dirty != 1 || ing.TotalStats().WALLag != syncEvery {
		t.Fatalf("after the failed retry: %d dirty segments, lag %d; want 1 and %d", dirty, ing.TotalStats().WALLag, syncEvery)
	}
}

// TestSegmentCreationSyncsDirectoryOnce: a new segment's directory entry is
// fsynced when the file is created and at no other time — not on later
// appends, not when an evicted handle or a recovered log is reopened. So is
// a new data or shard directory's entry in its parent.
func TestSegmentCreationSyncsDirectoryOnce(t *testing.T) {
	disk := newMemFS()
	dirSyncs := func() int {
		disk.mu.Lock()
		defer disk.mu.Unlock()
		return disk.dirSyncs
	}
	cfg := walSyncCfg("/data", 4)
	ing := mustOpen(t, cfg, disk)
	if n := dirSyncs(); n != 2 {
		t.Fatalf("%d directory fsyncs for a new data and shard directory, want 2", n)
	}
	offerAll(t, ing, inWindow(0, 0), inWindow(0, 1), inWindow(0, 2))
	if n := dirSyncs(); n != 3 {
		t.Fatalf("%d directory fsyncs for one new segment, want 1", n-2)
	}
	for w := 1; w <= maxOpenSegments; w++ {
		offerAll(t, ing, inWindow(w, 0))
	}
	created := dirSyncs()
	if created != 3+maxOpenSegments {
		t.Fatalf("%d directory fsyncs for %d new segments", created-2, 1+maxOpenSegments)
	}
	offerAll(t, ing, inWindow(0, 3)) // window 0 was evicted: a reopen, not a create
	if n := dirSyncs(); n != created {
		t.Fatalf("reopening an evicted segment fsynced the directory (%d → %d)", created, n)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = obs.NewRegistry()
	rec := mustOpen(t, cfg, disk)
	defer rec.Close()
	recovered := dirSyncs() // the snapshots of Close and of recovery each fsync it once
	offerAll(t, rec, inWindow(2, 1))
	if n := dirSyncs(); n != recovered {
		t.Fatalf("appending to a recovered segment fsynced the directory %d times", n-recovered)
	}
}
