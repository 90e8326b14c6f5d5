package telemetry

import (
	"errors"
	"strings"
	"testing"
)

// TestEveryBitFlipFailsLoudly: a framed segment holding envelopes and a
// control record, each of its bits flipped in turn, never opens — every
// flip is a positioned errWALCorrupt. A flip can neither pass as a torn
// tail (the header is checked on its own) nor decode to other data (the
// CRC). The JSONL segments of older builds could not promise this: a
// flipped digit still parses, and a flipped final newline turns the last
// record into a torn tail that recovery drops.
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

	seg := segFile(shardDir(cfg.WAL.Dir, 0), winStart(0))
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
