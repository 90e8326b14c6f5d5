package telemetry

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"edgescope/internal/stats"
)

// Window snapshots. A snapshot is one shard's complete rollup state —
// every (window, key) sketch in exact binary form (stats.Sketch
// MarshalBinary, unflushed buffer included), the idempotency trackers, and
// a per-WAL-segment applied count recording how many of each segment's
// records are already folded into those sketches. Applied counts are only
// ever encoded after an fsync (snapshotShard syncs under the shard lock
// first), so they never exceed what is actually on disk — recovery loads
// the snapshot and replays only each segment's suffix past its applied
// count, and snapshot+WAL reconstructs the same state as replaying the WAL
// alone — the snapshot is purely a replay accelerator, never a second
// source of truth (pinned by TestRecoverSnapshotEquivalentToWALOnly).
//
// The file is written whole to a temp name, fsynced and renamed, and the
// directory fsynced after the rename, so a crash mid-snapshot leaves the
// previous snapshot intact and one after it keeps the new; a CRC32 over the
// payload rejects bitrot, and a rejected snapshot simply falls back to full
// WAL replay.

// snapshotFile is the per-shard snapshot name (atomic-replace target).
const snapshotFile = "snapshot.bin"

// snapMagic versions the snapshot format; loaders accept exactly this.
// Version 2 added the per-tracker last-activity window (tracker aging).
var snapMagic = [8]byte{'e', 's', 's', 'n', 'a', 'p', '0', 2}

// snapState is a decoded snapshot.
type snapState struct {
	shards   int
	windowMs int64
	rollups  []snapRollup // strictly ascending by (start, key), as encoded
	seen     map[dedupKey]*seqTracker
	applied  map[int64]uint64
	crc      uint32 // the payload checksum: which snapshot this is
}

// snapRollup is one decoded (window, key) rollup.
type snapRollup struct {
	windowKey
	sk *stats.Sketch
}

type snapWriter struct{ b []byte }

func (w *snapWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *snapWriter) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *snapWriter) key(k Key)    { w.str(k.Metric); w.str(k.Region); w.str(k.Net) }

// appendCRC closes a checksummed form — snapshot, sketch page, key inventory
// or WAL record — with the CRC-32 (IEEE) of b[base:], little-endian.
func appendCRC(b []byte, base int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[base:]))
}

// checkCRC splits a form appendCRC closed into its body and trailer and
// reports whether they agree. The caller has checked len(data) >= 4.
func checkCRC(data []byte) (body []byte, sum uint32, ok bool) {
	body, sum = data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	return body, sum, crc32.ChecksumIEEE(body) == sum
}

// keySize is the encoded length of key(k).
func keySize(k Key) int { return 12 + len(k.Metric) + len(k.Region) + len(k.Net) }

// encodeSnapshot serializes a shard's state. Called with the shard mutex
// held, so sketches, trackers and WAL record counts are one consistent cut.
// Map iteration order is canonicalised, making snapshot bytes deterministic
// for a given state: rollups go in (start, key) order — the keys sorted once
// and their windows swept by start (inStartOrder) — and the other sections
// are sorted.
//
// The payload is sized exactly while the maps are collected and written once
// into a buffer of that size, so a large shard's checkpoint is one allocation
// of its own length rather than a doubling chain that allocates and copies
// about twice that. Nothing is kept between checkpoints: a retained
// per-shard buffer would hold a second copy of the state's size for the
// process's whole life.
func encodeSnapshot(s *shard, cfg Config) []byte {
	size := len(snapMagic) + 4 + 8 + 3*4 + 4 // header, three section counts, CRC

	series := make([]*keySeries, 0, len(s.keys))
	rollups := 0
	for _, ks := range s.keys {
		series = append(series, ks)
		rollups += len(ks.wins)
		for _, w := range ks.wins {
			size += 8 + keySize(ks.key) + 4 + w.sk.BinarySize()
		}
	}
	slices.SortFunc(series, func(a, b *keySeries) int { return a.key.Compare(b.key) })
	wins := make([][]keyWindow, len(series))
	for i, ks := range series {
		wins[i] = ks.wins
	}

	var segs []int64
	if s.wal != nil {
		for start := range s.wal.records {
			segs = append(segs, start)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	size += 16 * len(segs)

	dks := make([]dedupKey, 0, len(s.seen))
	for dk, t := range s.seen {
		dks = append(dks, dk)
		size += keySize(dk.Key) + 8 + 8 + 8 + 4 + 8*len(t.sparse)
	}
	sort.Slice(dks, func(i, j int) bool {
		a, b := dks[i], dks[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		return a.User < b.User
	})

	w := &snapWriter{b: make([]byte, 0, size)}
	w.b = append(w.b, snapMagic[:]...)
	w.u32(uint32(cfg.Shards))
	w.i64(cfg.Window.Milliseconds())

	w.u32(uint32(rollups))
	inStartOrder(wins, func(kw keyWindow) int64 { return kw.start }, func(i int, kw keyWindow) {
		w.i64(kw.start)
		w.key(series[i].key)
		w.u32(uint32(kw.sk.BinarySize()))
		w.b, _ = kw.sk.AppendBinary(w.b) // encoding a live sketch cannot fail
	})

	w.u32(uint32(len(segs)))
	for _, start := range segs {
		w.i64(start)
		w.u64(s.wal.records[start])
	}

	w.u32(uint32(len(dks)))
	var sparse []uint64
	for _, dk := range dks {
		w.key(dk.Key)
		w.i64(int64(dk.User))
		t := s.seen[dk]
		w.u64(t.floor)
		w.i64(t.last)
		sparse = sparse[:0]
		for seq := range t.sparse {
			sparse = append(sparse, seq)
		}
		sort.Slice(sparse, func(i, j int) bool { return sparse[i] < sparse[j] })
		w.u32(uint32(len(sparse)))
		for _, seq := range sparse {
			w.u64(seq)
		}
	}

	return appendCRC(w.b, 0)
}

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves either the previous file or the new one, never a torn mix: the
// bytes go to path+".tmp", are fsynced and closed, and only then renamed
// into place; the parent directory is fsynced after the rename, so the
// replacement survives a power loss once this returns. Every durable file
// this repo rewrites whole (shard snapshots, the frontend's persisted
// membership) goes through here.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(osFS{}, path, data)
}

func writeFileAtomic(fs fsys, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) fail() bool { return r.off < 0 }
func (r *snapReader) need(n int) bool {
	if r.fail() || n < 0 || len(r.b)-r.off < n {
		r.off = -1
		return false
	}
	return true
}
func (r *snapReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *snapReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *snapReader) i64() int64 { return int64(r.u64()) }
func (r *snapReader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}
func (r *snapReader) key() Key {
	return Key{Metric: r.str(), Region: r.str(), Net: r.str()}
}
func (r *snapReader) bytes() []byte {
	n := int(r.u32())
	if !r.need(n) {
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// decodeSnapshot parses and validates a snapshot payload. Corrupt input of
// any shape errors — never panics, never partially applies.
func decodeSnapshot(data []byte) (*snapState, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("telemetry: snapshot: %d bytes, too short", len(data))
	}
	if [8]byte(data[:8]) != snapMagic {
		return nil, fmt.Errorf("telemetry: snapshot: bad magic/version %q", data[:8])
	}
	payload, sum, ok := checkCRC(data)
	if !ok {
		return nil, fmt.Errorf("telemetry: snapshot: checksum mismatch")
	}
	r := &snapReader{b: payload, off: 8}
	st := &snapState{
		seen:    map[dedupKey]*seqTracker{},
		applied: map[int64]uint64{},
		crc:     sum,
	}
	st.shards = int(r.u32())
	st.windowMs = r.i64()

	nWindows := int(r.u32())
	for i := 0; i < nWindows && !r.fail(); i++ {
		wk := windowKey{Start: r.i64(), Key: r.key()}
		raw := r.bytes()
		if r.fail() {
			break
		}
		// The encoder writes each rollup once, in (start, key) order; a
		// repeat or a step back is corruption, not a state to guess at.
		if n := len(st.rollups); n > 0 {
			last := st.rollups[n-1].windowKey
			if c := cmp.Compare(last.Start, wk.Start); c > 0 || c == 0 && last.Key.Compare(wk.Key) >= 0 {
				return nil, fmt.Errorf("telemetry: snapshot window %d/%s out of order", wk.Start, wk.Key)
			}
		}
		sk := new(stats.Sketch)
		if err := sk.UnmarshalBinary(raw); err != nil {
			return nil, fmt.Errorf("telemetry: snapshot window %d/%s: %w", wk.Start, wk.Key, err)
		}
		st.rollups = append(st.rollups, snapRollup{wk, sk})
	}

	nSegs := int(r.u32())
	for i := 0; i < nSegs && !r.fail(); i++ {
		start := r.i64()
		st.applied[start] = r.u64()
	}

	nTrackers := int(r.u32())
	for i := 0; i < nTrackers && !r.fail(); i++ {
		dk := dedupKey{Key: r.key(), User: int(r.i64())}
		t := &seqTracker{}
		t.floor = r.u64()
		t.last = r.i64()
		nSparse := int(r.u32())
		// Bound the allocation by the remaining payload (8 bytes/entry).
		if !r.need(0) || nSparse < 0 || nSparse*8 > len(r.b)-r.off {
			r.off = -1
			break
		}
		if nSparse > 0 {
			t.sparse = make(map[uint64]struct{}, nSparse)
			for j := 0; j < nSparse; j++ {
				t.sparse[r.u64()] = struct{}{}
			}
		}
		st.seen[dk] = t
	}

	if r.fail() || r.off != len(payload) {
		return nil, fmt.Errorf("telemetry: snapshot: truncated or trailing payload")
	}
	if st.shards <= 0 || st.windowMs <= 0 {
		return nil, fmt.Errorf("telemetry: snapshot: invalid config header (%d shards, %dms window)",
			st.shards, st.windowMs)
	}
	return st, nil
}

// loadSnapshot reads a shard directory's snapshot. A missing file returns
// (nil, nil): cold start or WAL-only recovery.
func loadSnapshot(fs fsys, dir string) (*snapState, error) {
	data, err := fs.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return decodeSnapshot(data)
}
