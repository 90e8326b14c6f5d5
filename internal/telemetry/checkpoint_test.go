package telemetry

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// checkpointBase is checkpointStream's first timestamp.
var checkpointBase = time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

// checkpointStream is a seeded in-order stream whose retained state keeps
// growing: a new (region, net) key appears every 40 events, timestamps walk
// across one-minute windows, and every third envelope is sequenced so dedup
// trackers are part of what a checkpoint holds.
func checkpointStream(seed uint64, n int) []Envelope {
	r := rng.New(seed)
	base := checkpointBase
	seq := map[int]uint64{}
	out := make([]Envelope, n)
	for i := range out {
		key := r.IntN(1 + i/40)
		e := ev(base+int64(i)*700, MetricRTT, "region-"+strconv.Itoa(key/3), "net-"+strconv.Itoa(key%3), r.LogNormal(3, 0.6))
		if i%3 == 0 {
			e.User = key
			seq[key]++
			e.Seq = seq[key]
		}
		out[i] = e
	}
	return out
}

// checkpoints counts the checkpoints an ingestor opened with a registry has
// written so far, cadence and unconditional alike (recovery's rewrite is not
// timed and does not count).
func checkpoints(ing *Ingestor) uint64 {
	var n uint64
	for _, s := range ing.shards {
		n += s.snapshotHist.Count()
	}
	return n
}

// settleCheckpoint returns once the shard's worker has nothing left to do
// for the events Flush already saw folded: Flush waits for the fold, and the
// checkpoint a fold may trigger comes after it. The trigger stays due until
// the worker's cut, and the worker holds snapMu from before the cut until
// the file is in place.
func settleCheckpoint(ing *Ingestor, s *shard) {
	for {
		s.mu.Lock()
		due := s.wal.checkpointDue(ing.cfg.WAL.SnapshotEvery)
		s.mu.Unlock()
		if !due {
			break
		}
		runtime.Gosched()
	}
	s.snapMu.Lock() // a barrier, not a guard: wait out a write in flight
	s.snapMu.Unlock()
}

func fileSize(t *testing.T, path string) uint64 {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return uint64(fi.Size())
}

// TestCheckpointCostAmortised is the cadence's property pin, over a stream
// with growing state and crashes at random points. Every checkpoint the
// worker cuts is paid for — at least the floor's records and at least the
// previous checkpoint's bytes of WAL were logged first — so within one
// process the cadence writes no more checkpoint bytes than WAL bytes plus the
// size of its latest checkpoint; and at every crash the WAL suffix recovery
// replays holds fewer records than the floor or fewer bytes than the
// checkpoint it loaded.
func TestCheckpointCostAmortised(t *testing.T) {
	const floor = 32
	events := checkpointStream(1, 3000)
	recLen := make([]uint64, len(events))
	for i, e := range events {
		recLen[i] = uint64(len(mustRecord(t, e)))
	}
	r := rng.New(7)
	crashAt := map[int]bool{}
	for len(crashAt) < 8 {
		crashAt[1+r.IntN(len(events)-1)] = true
	}

	dir := t.TempDir()
	snapPath := filepath.Join(shardDir(dir, 0), snapshotFile)
	open := func() (*Ingestor, RecoveryStats) {
		ing, rec, err := Open(Config{Shards: 1, QueueLen: 64, Block: true, Metrics: obs.NewRegistry(),
			WAL: WALConfig{Dir: dir, SyncEvery: 1, SnapshotEvery: floor}})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return ing, rec
	}
	ing, _ := open()
	defer func() { ing.Close() }()

	var (
		cuts             int    // worker checkpoints over the whole run
		seen             uint64 // checkpoints(ing) at the last look
		prevBytes        uint64 // size of the checkpoint the next one must outweigh
		sinceRecs        int    // records logged since it
		sinceBytes       uint64 // and their bytes
		genWAL, genCkpts uint64 // this process's WAL and cadence-checkpoint bytes
	)
	for i, e := range events {
		if crashAt[i] {
			ing.Crash()
			onDisk := fileSize(t, snapPath)
			var rec RecoveryStats
			ing, rec = open()
			if got := rec.RecordsReplayed + rec.RecordsSkipped; got != uint64(i) {
				t.Fatalf("crash at %d: recovery saw %d records", i, got)
			}
			var replayedBytes uint64
			for _, n := range recLen[i-int(rec.RecordsReplayed) : i] {
				replayedBytes += n
			}
			if rec.RecordsReplayed >= floor && replayedBytes >= onDisk {
				t.Fatalf("crash at %d: replayed %d records / %d bytes beside a %d-byte checkpoint — outside max(floor %d, checkpoint)",
					i, rec.RecordsReplayed, replayedBytes, onDisk, floor)
			}
			if int(rec.RecordsReplayed) != sinceRecs {
				t.Fatalf("crash at %d: replayed %d records, %d were logged since the last checkpoint", i, rec.RecordsReplayed, sinceRecs)
			}
			// Recovery's rewrite is the new process's starting checkpoint.
			prevBytes, sinceRecs, sinceBytes = fileSize(t, snapPath), 0, 0
			seen, genWAL, genCkpts = 0, 0, 0
		}
		if !ing.Offer(e) {
			t.Fatal("offer refused")
		}
		ing.Flush()
		settleCheckpoint(ing, ing.shards[0])
		sinceRecs++
		sinceBytes += recLen[i]
		genWAL += recLen[i]

		st := ing.Stats()[0]
		if n := checkpoints(ing); n != seen {
			if n != seen+1 {
				t.Fatalf("event %d: %d checkpoints for one record", i, n-seen)
			}
			size := fileSize(t, snapPath)
			if st.SnapshotBytes != size || st.WALBytesSinceSnapshot != 0 {
				t.Fatalf("event %d: Stats say a %d-byte checkpoint with %d WAL bytes since, the file is %d bytes",
					i, st.SnapshotBytes, st.WALBytesSinceSnapshot, size)
			}
			if sinceRecs < floor || sinceBytes < prevBytes {
				t.Fatalf("event %d: checkpoint cut after %d records / %d WAL bytes, want >= %d records and >= the previous checkpoint's %d bytes",
					i, sinceRecs, sinceBytes, floor, prevBytes)
			}
			genCkpts += size
			if genCkpts > genWAL+size {
				t.Fatalf("event %d: %d checkpoint bytes written for %d WAL bytes + a %d-byte latest checkpoint", i, genCkpts, genWAL, size)
			}
			cuts++
			seen, prevBytes, sinceRecs, sinceBytes = n, size, 0, 0
		} else if st.SnapshotBytes != prevBytes || st.WALBytesSinceSnapshot != sinceBytes {
			t.Fatalf("event %d: Stats say %d-byte checkpoint / %d WAL bytes since, want %d / %d",
				i, st.SnapshotBytes, st.WALBytesSinceSnapshot, prevBytes, sinceBytes)
		}
	}
	// The stream must have exercised both halves of the rule: checkpoints
	// happened, and fewer than the floor alone would have cut.
	if byFloor := len(events) / floor; cuts < 5 || cuts >= byFloor {
		t.Fatalf("%d worker checkpoints over %d events (the floor alone gives %d): the byte rule was not exercised", cuts, len(events), byFloor)
	}
}

// TestHandoffRecordsCountTowardCheckpoint: absorb and drop control records
// weigh on the cadence like envelopes do, and the handoff calls evaluate it
// before returning — so a node that absorbs a partition and then sees no
// traffic does not replay the whole absorb on every restart.
func TestHandoffRecordsCountTowardCheckpoint(t *testing.T) {
	const floor = 8
	src := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true})
	defer src.Close()
	offerAllFlush(t, src, handoffEvents())
	pages, err := src.PartitionPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Shards: 1, QueueLen: 64, Block: true,
		WAL: WALConfig{Dir: t.TempDir(), SyncEvery: 1 << 30, SnapshotEvery: floor}}
	dst := NewIngestor(cfg)
	ack, err := dst.AbsorbPages(pages)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rollups <= floor {
		t.Fatalf("absorbed %d rollups, need more than the floor %d", ack.Rollups, floor)
	}
	if st := dst.Stats()[0]; st.SnapshotBytes == 0 || st.WALBytesSinceSnapshot != 0 {
		t.Fatalf("after absorbing %d rollups: checkpoint %d bytes, %d WAL bytes since — AbsorbPages did not evaluate the trigger",
			ack.Rollups, st.SnapshotBytes, st.WALBytesSinceSnapshot)
	}
	want := handoffFingerprint(t, dst)
	dst.Crash()

	dst, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RecordsReplayed != 0 || rec.RecordsSkipped != uint64(ack.Rollups) {
		t.Fatalf("restart after absorb replayed %d and skipped %d records, want 0 and %d", rec.RecordsReplayed, rec.RecordsSkipped, ack.Rollups)
	}
	if got := handoffFingerprint(t, dst); got != want {
		t.Fatal("absorbed state differs after restart")
	}

	// A drop logs one record per affected window; with enough windows those
	// alone pass the floor. The checkpoint they must outweigh is the one
	// recovery just rewrote, which holds the absorbed sketches — so the drop
	// records do not, and the suffix stays: bounded by that checkpoint.
	dropped, err := dst.DropPartition(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := dst.Stats()[0]
	if dropped != ack.Rollups || st.WALBytesSinceSnapshot == 0 || st.WALBytesSinceSnapshot >= st.SnapshotBytes {
		t.Fatalf("dropped %d rollups; %d WAL bytes since a %d-byte checkpoint", dropped, st.WALBytesSinceSnapshot, st.SnapshotBytes)
	}
	dst.Crash()
}

// encodeSnapshot is a shard's checkpoint as one buffer: writeSnapshot's
// stream, sealed — the bytes a checkpoint writes to its file. Call it with
// the shard mutex held.
func encodeSnapshot(s *shard, cfg Config) []byte {
	var buf bytes.Buffer
	w := newSnapWriter(&buf)
	writeSnapshot(w, s, cfg)
	w.seal()
	if err := w.release(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// bigRollups loads n rollups of pts unit-weight points each into shard s,
// under its lock: a large state without an event stream.
func bigRollups(s *shard, n, pts int) {
	r := rng.New(9)
	var rollups []snapRollup
	for i := 0; i < n; i++ {
		sk := stats.NewSketch(stats.DefaultCompression)
		for j := 0; j < pts; j++ {
			sk.Add(r.LogNormal(3, 0.6))
		}
		rollups = append(rollups, snapRollup{windowKey{Start: int64(i%8) * 1000, Key: Key{Metric: MetricRTT, Region: "region-" + strconv.Itoa(i/8), Net: "WiFi"}}, sk})
	}
	s.mu.Lock()
	s.load(rollups)
	s.mu.Unlock()
}

// TestCheckpointAllocatesAChunkNotTheState: a checkpoint streams the state
// through one chunk, so checkpointing a shard that holds over 8 MB of
// rollups allocates under 256 KB — the sorted key slices and the chunk —
// and the file it writes is, byte for byte, encodeSnapshot's buffer.
func TestCheckpointAllocatesAChunkNotTheState(t *testing.T) {
	dir := t.TempDir()
	ing, _, err := Open(Config{Shards: 1, Window: time.Second, Block: true, WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	s := ing.shards[0]
	bigRollups(s, 2800, 399)
	if st := ing.TotalStats(); st.RollupBytes < 8<<20 {
		t.Fatalf("the shard holds %d B of rollups, want ≥ 8 MB", st.RollupBytes)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := ing.snapshotShard(s, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	written, err := os.ReadFile(filepath.Join(shardDir(dir, 0), snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a checkpoint of a %d-byte state allocated %d B", len(written), got)
	if got >= 256<<10 {
		t.Errorf("a checkpoint of a %d-byte state allocated %d B, want < 256 KB", len(written), got)
	}
	s.mu.Lock()
	want := encodeSnapshot(s, ing.cfg)
	s.mu.Unlock()
	if !bytes.Equal(written, want) {
		t.Fatal("the streamed checkpoint differs from the encoded buffer")
	}
	if st := ing.Stats()[0]; st.SnapshotBytes != uint64(len(written)) {
		t.Fatalf("the cadence counts a %d-byte checkpoint, the file holds %d", st.SnapshotBytes, len(written))
	}
}

// TestCheckpointWriteFailsMidStream: a disk that fills while a checkpoint
// streams — after its first chunks are written — fails the checkpoint, and
// nothing of it stays: the temp file is removed, the previous snapshot is
// still the one on disk and loads, and recovery from it plus the WAL answers
// like an ingestor that never crashed. The cadence still counts the failed
// cut at its full length.
func TestCheckpointWriteFailsMidStream(t *testing.T) {
	events := checkpointStream(21, 24000)
	cfg := Config{Shards: 1, Block: true, WAL: WALConfig{Dir: "/data", SyncEvery: 256}}
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	offerAllFlush(t, ing, events[:8000])
	if err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir("/data", 0), snapshotFile)
	before, err := disk.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	offerAllFlush(t, ing, events[8000:])
	s := ing.shards[0]
	s.mu.Lock()
	full := len(encodeSnapshot(s, ing.cfg))
	s.mu.Unlock()
	if full < 3*snapChunk {
		t.Fatalf("a %d-byte checkpoint streams in fewer than three chunks", full)
	}
	disk.failWritesPast(snapshotFile+".tmp", snapChunk+100)
	if err := ing.Snapshot(); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("a checkpoint onto a full disk returned %v", err)
	}
	if _, err := disk.ReadFile(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the failed checkpoint's temp file is still there (%v)", err)
	}
	if after, _ := disk.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("the failed checkpoint changed the snapshot on disk")
	}
	if _, err := decodeSnapshot(before); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats()[0]; st.SnapshotBytes != uint64(full) || st.WALBytesSinceSnapshot != 0 {
		t.Fatalf("after the failed cut the cadence counts a %d-byte checkpoint and %d WAL bytes, want %d and 0",
			st.SnapshotBytes, st.WALBytesSinceSnapshot, full)
	}

	disk.mu.Lock()
	disk.faultWrite = nil
	disk.mu.Unlock()
	ing.Crash()
	back, rec, err := open(cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if rec.Snapshots != 1 || rec.RecordsSkipped != 8000 || rec.RecordsReplayed != uint64(len(events)-8000) {
		t.Fatalf("recovery %+v: want the earlier checkpoint loaded and the rest replayed", rec)
	}
	ref := NewIngestor(Config{Shards: 1, Block: true})
	defer ref.Close()
	offerAllFlush(t, ref, events)
	if got, want := queryFingerprint(t, back), queryFingerprint(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("recovered after the failed checkpoint:\n got %s\nwant %s", got, want)
	}
}

// parentDataDir is a durable data directory written by the commit before the
// byte-weighted cadence — one shard, a checkpoint every 25 folds, hard-killed
// after parentDataDirEvents events so a WAL suffix follows the last
// checkpoint. Regenerate it only for a format change: it pins that there was
// none.
const (
	parentDataDir       = "testdata/parent-datadir"
	parentDataDirEvents = 640
)

func parentDataDirConfig(dir string) Config {
	return Config{Shards: 1, QueueLen: 64, Block: true,
		WAL: WALConfig{Dir: dir, SyncEvery: 1, SnapshotEvery: 25}}
}

// TestParentDataDirRecovers is the cross-version pin: the parent's directory
// opens under this code from its checkpoint plus the suffix, answers exactly
// like an uninterrupted ingestor fed the same events — and the checkpoint
// the parent wrote is, byte for byte, what this encoder writes for that
// state.
//
// Compatibility runs one way only. The directory's segments are JSONL, and
// this build replays them and appends to them as JSONL, but every segment it
// creates is framed (walrecord.go): a build before framed records ignores
// those files, so opening this build's directory with it is unsupported.
// The snapshot format is unchanged, which this directory still pins.
func TestParentDataDirRecovers(t *testing.T) {
	events := checkpointStream(5, parentDataDirEvents)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(parentDataDir)); err != nil {
		t.Fatal(err)
	}

	parentSnap, err := os.ReadFile(filepath.Join(shardDir(dir, 0), snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeSnapshot(parentSnap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parentDataDirConfig(dir)
	cfg.fill() // the header carries the default window length
	s := &shard{keys: map[Key]*keySeries{}, starts: map[int64]int{}, seen: st.seen, wal: &shardWAL{records: st.applied}}
	s.load(st.rollups)
	reencoded := encodeSnapshot(s, cfg)
	if !bytes.Equal(reencoded, parentSnap) {
		t.Fatal("this encoder writes different bytes than the parent did for the same state")
	}

	ing, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("open the parent's directory: %v", err)
	}
	defer ing.Close()
	if rec.Snapshots != 1 || rec.SnapshotErrors != 0 || rec.RecordsSkipped == 0 || rec.RecordsReplayed == 0 ||
		rec.RecordsSkipped+rec.RecordsReplayed != parentDataDirEvents {
		t.Fatalf("recovery of the parent's directory: %+v — want its checkpoint loaded and a suffix replayed", rec)
	}

	ref := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true})
	defer ref.Close()
	offerAllFlush(t, ref, events)
	if got, want := queryFingerprint(t, ing), queryFingerprint(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("recovered from the parent's directory:\n got %s\nwant %s", got, want)
	}
}

// denseStream is n events for each of four keys in one window: enough per
// rollup to compact it, so a handoff carries centroids.
func denseStream(seed uint64, n int) []Envelope {
	r := rng.New(seed)
	var out []Envelope
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			out = append(out, ev(checkpointBase+int64(i), MetricRTT, "dense-"+strconv.Itoa(k), "WiFi", r.LogNormal(3, 0.6)))
		}
	}
	return out
}

// durableForms is the SHA-256 of each byte form a node writes for a fixed
// input, over two nodes: one fed an event stream, and one that absorbed
// half of the first one's partitions as handoff pages (its rollups'
// buffers then hold centroids, weighted points) before taking events of
// its own into the same windows.
func durableForms(t *testing.T) (snapshot, page, partition string) {
	src := NewIngestor(Config{Shards: 2, Block: true})
	defer src.Close()
	offerAllFlush(t, src, checkpointStream(11, 6000))
	offerAllFlush(t, src, denseStream(13, 450))
	pages, err := src.PartitionPages(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewIngestor(Config{Shards: 2, Block: true})
	defer dst.Close()
	if _, err := dst.AbsorbPages(pages); err != nil {
		t.Fatal(err)
	}
	offerAllFlush(t, dst, checkpointStream(12, 700))
	offerAllFlush(t, dst, denseStream(14, 30))

	snaps, pageSum, partSum := sha256.New(), sha256.New(), sha256.New()
	for _, ing := range []*Ingestor{src, dst} {
		for _, s := range ing.shards {
			s.mu.Lock()
			snaps.Write(encodeSnapshot(s, ing.cfg))
			s.mu.Unlock()
		}
		match, err := ing.MatchSketches(QuerySpec{Metric: MetricRTT})
		if err != nil {
			t.Fatal(err)
		}
		b, err := match.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		pageSum.Write(b)
		part, err := ing.PartitionPages(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		partSum.Write(AppendSketchPages(nil, part))
	}
	hex := func(h interface{ Sum([]byte) []byte }) string { return fmt.Sprintf("%x", h.Sum(nil)) }
	return hex(snaps), hex(pageSum), hex(partSum)
}

// TestDurableFormsGolden pins the bytes a node writes for a fixed input —
// its checkpoints, a query's sketch page and a partition's handoff pages —
// to the ones the build before unit-weight buffered points were kept as
// bare means wrote: how a sketch holds its points must not show in any
// byte it writes.
func TestDurableFormsGolden(t *testing.T) {
	snapshot, page, partition := durableForms(t)
	for _, c := range []struct{ form, got, want string }{
		{"checkpoints", snapshot, "2808386e2e0d430922514d9db304a47819509e9e9f3b9dce7292c085d1e50b29"},
		{"query pages", page, "ae4a083b3ef539299226c657d02be4c082a0040dc80bd7f0d2cb30913f29d01a"},
		{"partition pages", partition, "90c8cdc4d0f00cfc2aa9aeceed02e0f75ad5240e78f2125d2fbfbb682396dd1a"},
	} {
		if c.got != c.want {
			t.Errorf("%s: SHA-256 %s, want %s", c.form, c.got, c.want)
		}
	}
}

// TestReadJSONLPoolsScannerBuffer: a read pass borrows its 64 KiB line buffer
// instead of allocating one, and a pass that met a line too long for it —
// assembled in a spill of the pass's own — leaves only original-size, empty
// readers in the pool.
func TestReadJSONLPoolsScannerBuffer(t *testing.T) {
	line, err := AppendJSONL(nil, ev(1633046400000, MetricRTT, "Beijing", "WiFi", 12.5))
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat(line, 20)
	read := func(in []byte, want int) {
		st, err := ReadJSONL(bytes.NewReader(in), func(Envelope) {})
		if err != nil || st.Decoded != want {
			t.Fatalf("ReadJSONL = %+v, %v; want %d decoded", st, err, want)
		}
	}

	const passes = 200
	read(body, 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		read(body, 20)
	}
	runtime.ReadMemStats(&after)
	// The race detector makes sync.Pool drop a quarter of its Puts, so the
	// line is half a buffer per pass, not none.
	if perPass := (after.TotalAlloc - before.TotalAlloc) / passes; perPass > scanBufSize/2 {
		t.Fatalf("a read pass allocates %d bytes: the %d-byte scanner buffer is not pooled", perPass, scanBufSize)
	}

	long := ev(1633046400000, MetricRTT, "Beijing", "WiFi", 1)
	long.Target = strings.Repeat("x", 3*scanBufSize)
	longLine, err := AppendJSONL(nil, long)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		read(append(bytes.Clone(body), longLine...), 21)
		br := scanBufPool.Get().(*bufio.Reader)
		if br.Size() != scanBufSize || br.Buffered() != 0 {
			t.Fatalf("pool handed out a %d-byte reader holding %d bytes after a %d-byte line", br.Size(), br.Buffered(), len(longLine))
		}
		scanBufPool.Put(br)
	}
}
