package telemetry

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgescope/internal/rng"
)

// TestEveryBitFlipFailsLoudly: a framed segment holding envelopes and a
// control record, each of its bits flipped in turn, never opens — every
// flip is a positioned errWALCorrupt. A flip can neither pass as a torn
// tail (the header is checked on its own) nor decode to other data (the
// CRC). A JSONL segment could not promise this: a flipped digit still
// parses, and a flipped final newline turns the last record into a torn
// tail that recovery drops.
func TestEveryBitFlipFailsLoudly(t *testing.T) {
	cfg := oneShardCfg()
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	a, b := inWindow(0, 0), inWindow(0, 1)
	b.Region, b.Target, b.User, b.Seq = "Shanghai", "nearest-edge", 4, 1
	offerAll(t, ing, a, b)
	if _, err := ing.DropPartition(b.Key().ShardOf(2), 2); err != nil {
		t.Fatal(err)
	}
	offerAll(t, ing, inWindow(0, 2))
	ing.Crash()

	seg := segFile(shardDir(cfg.WAL.Dir, 0), winStart(0), false)
	clean, err := disk.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recordEnds(seg, clean)); n != 4 {
		t.Fatalf("the segment holds %d records, want 3 envelopes and a drop", n)
	}
	mustOpen(t, cfg, memFSAt(disk, len(disk.log))).Crash() // unflipped, it opens
	for bit := 0; bit < 8*len(clean); bit++ {
		flipped := memFSAt(disk, len(disk.log))
		ino, err := flipped.lookup("open", seg)
		if err != nil {
			t.Fatal(err)
		}
		flipped.inos[ino].data[bit/8] ^= 1 << (bit % 8)
		ing, _, err := open(cfg, flipped)
		if err == nil {
			ing.Crash()
			t.Fatalf("bit %d of %d flipped: the segment opened", bit, 8*len(clean))
		}
		if !errors.Is(err, errWALCorrupt) || !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("bit %d flipped: %v, want a positioned errWALCorrupt", bit, err)
		}
	}
}

// TestSmallestEnvelopeRecord pins the smallest framed WAL record any
// envelope or control record makes: 28 bytes, an envelope of a one-byte
// metric and timestamp with every other field empty. scripts/ci.sh turns README's
// restart bound (bytes) into a record count with it.
func TestSmallestEnvelopeRecord(t *testing.T) {
	const smallest = 28
	if n := len(mustRecord(t, Envelope{V: SchemaVersion, TS: 1, Metric: "m"})); n != smallest {
		t.Fatalf("the smallest envelope record is %d bytes, want %d", n, smallest)
	}
	drop := appendRecord(nil, recControl, []byte(`{"ctl":"drop","of":1}`))
	if len(drop) <= smallest {
		t.Fatalf("a drop record is %d bytes, not more than the smallest envelope's %d", len(drop), smallest)
	}
}

// memFSOf is a disk holding at dst a durable copy of the directory tree src,
// its log past the prelude empty.
func memFSOf(t *testing.T, src, dst string) *memFS {
	t.Helper()
	m := newMemFS()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return mkdirDurable(m, to)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := m.OpenFile(to, os.O_CREATE|os.O_EXCL|os.O_WRONLY)
		if err != nil {
			return err
		}
		f.Write(b)
		f.Sync()
		f.Close()
		return m.SyncDir(filepath.Dir(to))
	})
	if err != nil {
		t.Fatal(err)
	}
	m.prelude = len(m.log)
	return m
}

// TestLegacyWindowTakesJSONL: this build opens the parent's JSONL data
// directory, appends a late event into one of its windows as a JSONL line
// beside that window's records, starts a new window as a framed segment,
// and after a crash recovers to what a memory-only replay of every event
// answers. Every crash point of its run keeps the checker's promises, and
// the pinned state — the JSONL append cut mid-line — is a torn tail that
// recovery trims.
func TestLegacyWindowTakesJSONL(t *testing.T) {
	cfg := parentDataDirConfig("/data")
	cfg.WAL.SyncEvery = 1 << 30 // the appends stay unsynced until the crash
	disk := memFSOf(t, parentDataDir, cfg.WAL.Dir)
	dir := shardDir(cfg.WAL.Dir, 0)
	legacy := segFile(dir, parentWindow(0), true)
	before, err := disk.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}

	late := ev(parentWindow(0)+5, MetricRTT, "region-0", "net-0", 42.5)
	fresh := ev(parentWindow(9)+5, MetricRTT, "region-1", "net-2", 7.25)
	ing := mustOpen(t, cfg, disk)
	offerAll(t, ing, late, fresh)
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	ing.Crash()

	after, err := disk.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if line := mustJSONL(t, late); !bytes.Equal(after, append(before, line...)) {
		t.Fatalf("the legacy segment grew by %q, want the late event's JSONL line %q", after[len(before):], line)
	}
	if _, err := disk.ReadFile(segFile(dir, parentWindow(0), false)); err == nil {
		t.Fatal("a framed segment was created beside the legacy one")
	}
	if b, err := disk.ReadFile(segFile(dir, parentWindow(9), false)); err != nil || len(recordEnds(segFile(dir, parentWindow(9), false), b)) != 1 {
		t.Fatalf("the new window's framed segment: %d bytes, %v", len(b), err)
	}

	want := func() []byte {
		ref := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true})
		defer ref.Close()
		offerAllFlush(t, ref, append(checkpointStream(5, parentDataDirEvents), late, fresh))
		return queryFingerprint(t, ref)
	}()
	rec := mustOpen(t, cfg, memFSAt(disk, len(disk.log)))
	got := queryFingerprint(t, rec)
	rec.Crash()
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered after the late event:\n got %s\nwant %s", got, want)
	}

	// The pinned state: power lost before the late event's fsync, its JSONL
	// line cut mid-way, everything else kept.
	m := memFSAt(disk, lastOp(t, disk, opWrite, legacy)+1)
	pending, dirty, _ := m.crashStates(rng.New(1), 0)
	c := crashState{keep: make([]bool, len(pending)), cut: make([]int, len(dirty))}
	for i := range c.keep {
		c.keep[i] = true
	}
	for i, df := range dirty {
		if m.inos[df.ino].name == legacy {
			c.cut[i] = cutMid
		}
	}
	torn, _, _ := m.materialise(pending, dirty, c)
	b, _ := torn.ReadFile(legacy)
	if len(b) <= len(before) || len(b) >= len(after) {
		t.Fatalf("the pinned state left %d bytes of the legacy segment, want between %d and %d", len(b), len(before), len(after))
	}
	rec, st, err := open(cfg, torn)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Crash()
	if st.TornTails != 1 {
		t.Fatalf("recovery stats %+v, want the cut JSONL line trimmed as a torn tail", st)
	}
	if b, _ := torn.ReadFile(legacy); !bytes.Equal(b, before) {
		t.Fatalf("the torn tail was trimmed to %d bytes, want the parent's %d", len(b), len(before))
	}
	tally := checkEveryCrashPoint(t, cfg, disk)
	t.Logf("%d crash points, %d crash states checked", tally.points, tally.states)
}

// parentWindow is the start of the parent data directory's w-th one-minute
// window.
func parentWindow(w int) int64 {
	return time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli() + int64(w)*60_000
}
