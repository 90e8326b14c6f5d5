package telemetry

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

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
// The file is streamed to a temp name under the shard lock, then fsynced
// and renamed outside it, and the directory fsynced after the rename, so a
// crash mid-snapshot leaves the previous snapshot intact and one after it
// keeps the new; a CRC32 over the payload rejects bitrot, and a rejected
// snapshot simply falls back to full WAL replay.

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

// snapChunk is the size of the one buffer a checkpoint streams through.
const snapChunk = 64 << 10

var snapChunkPool = sync.Pool{New: func() any { b := make([]byte, 0, snapChunk); return &b }}

// snapWriter writes the little-endian fields every binary form here is
// made of. With no dst it appends to b, which grows: the in-memory forms
// (sketch pages, key inventories). One from newSnapWriter streams a form
// through one pooled chunk to dst instead, keeping the CRC-32 (IEEE) and
// the length of every byte it passes on. Once dst fails it keeps only
// counting, so a form whose write failed still has its exact length and
// checksum: the checkpoint cadence accounts for a failed cut as for any
// other.
type snapWriter struct {
	b     []byte
	chunk *[]byte // the pooled array b lives in
	dst   io.Writer
	err   error // dst's first failure
	crc   uint32
	n     int
}

// newSnapWriter takes a chunk from the pool; release returns it.
func newSnapWriter(dst io.Writer) *snapWriter {
	chunk := snapChunkPool.Get().(*[]byte)
	return &snapWriter{b: (*chunk)[:0], chunk: chunk, dst: dst}
}

// spill passes the chunk's bytes on and empties it.
func (w *snapWriter) spill() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.b)
	w.n += len(w.b)
	if w.err == nil && len(w.b) > 0 {
		_, w.err = w.dst.Write(w.b)
	}
	w.b = w.b[:0]
}

// reserve spills a stream's chunk unless n more bytes fit in it. A single
// item larger than the chunk grows it for the rest of this form.
func (w *snapWriter) reserve(n int) {
	if w.dst != nil && cap(w.b)-len(w.b) < n {
		w.spill()
	}
}

func (w *snapWriter) u32(v uint32) { w.reserve(4); w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.reserve(8); w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *snapWriter) str(s string) {
	w.reserve(4 + len(s))
	w.b = append(binary.LittleEndian.AppendUint32(w.b, uint32(len(s))), s...)
}
func (w *snapWriter) key(k Key) { w.str(k.Metric); w.str(k.Region); w.str(k.Net) }

// raw copies p through a stream's chunk.
func (w *snapWriter) raw(p []byte) {
	for len(p) > 0 {
		if len(w.b) == cap(w.b) {
			w.spill()
		}
		n := min(len(p), cap(w.b)-len(w.b))
		w.b, p = append(w.b, p[:n]...), p[n:]
	}
}

// sketch writes sk's MarshalBinary encoding, length-prefixed.
func (w *snapWriter) sketch(sk *stats.Sketch) {
	size := sk.BinarySize()
	w.reserve(4 + size)
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(size))
	w.b, _ = sk.AppendBinary(w.b) // encoding a live sketch cannot fail
}

// seal closes a checksummed form as appendCRC does, with the CRC-32 of
// everything written so far, and returns the form's length and checksum.
func (w *snapWriter) seal() (n int, crc uint32) {
	w.spill()
	crc = w.crc
	w.b = binary.LittleEndian.AppendUint32(w.b, crc)
	return w.n + len(w.b), crc
}

// release passes on what the chunk still holds, returns the chunk to the
// pool and reports dst's first failure.
func (w *snapWriter) release() error {
	w.spill()
	if cap(w.b) == snapChunk {
		*w.chunk = w.b
		snapChunkPool.Put(w.chunk)
	}
	w.b, w.chunk = nil, nil
	return w.err
}

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

// writeSnapshot streams a shard's state to w; the caller seals it. Called
// with the shard mutex held, so sketches, trackers and WAL record counts are
// one consistent cut. Map iteration order is canonicalised, making snapshot
// bytes deterministic for a given state: rollups go in (start, key) order —
// the keys sorted once and their windows swept by start (inStartOrder) —
// and the other sections are sorted.
//
// The state is never materialised: each item is encoded into w's chunk and
// the chunk passed on when full, so a checkpoint of any size allocates the
// sorted key slices and nothing in proportion to its payload.
func writeSnapshot(w *snapWriter, s *shard, cfg Config) {
	series := make([]*keySeries, 0, len(s.keys))
	rollups := 0
	for _, ks := range s.keys {
		series = append(series, ks)
		rollups += len(ks.wins)
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

	dks := make([]dedupKey, 0, len(s.seen))
	for dk := range s.seen {
		dks = append(dks, dk)
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

	w.raw(snapMagic[:])
	w.u32(uint32(cfg.Shards))
	w.i64(cfg.Window.Milliseconds())

	w.u32(uint32(rollups))
	inStartOrder(wins, func(kw keyWindow) int64 { return kw.start }, func(i int, kw keyWindow) {
		w.i64(kw.start)
		w.key(series[i].key)
		w.sketch(kw.sk)
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
}

// atomicFile is a whole-file replacement in progress, so that a crash at
// any point leaves either the previous file or the new one, never a torn
// mix: beginAtomic opens path+".tmp", the caller streams the content
// through w, and finish fsyncs and closes the temp file and only then
// renames it into place, fsyncing the parent directory after the rename,
// so the replacement survives a power loss once finish returns. Every
// durable file this repo rewrites whole (shard snapshots, the frontend's
// persisted membership) goes through this pair; a checkpoint streams its
// content under the shard lock and finishes outside it.
type atomicFile struct {
	fs   fsys
	path string
	f    file // nil when the open failed: w then only counts
	w    *snapWriter
}

func beginAtomic(fs fsys, path string) *atomicFile {
	a := &atomicFile{fs: fs, path: path, w: newSnapWriter(io.Discard)}
	f, err := fs.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		a.w.err = err
		return a
	}
	a.f, a.w.dst = f, f
	return a
}

// finish completes the replacement, or on any failure removes the temp
// file and leaves the previous one in place.
func (a *atomicFile) finish() error {
	err := a.w.release()
	if a.f == nil {
		return err
	}
	tmp := a.path + ".tmp"
	if err == nil {
		err = a.f.Sync()
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		a.fs.Remove(tmp)
		return err
	}
	if err := a.fs.Rename(tmp, a.path); err != nil {
		return err
	}
	return a.fs.SyncDir(filepath.Dir(a.path))
}

// WriteFileAtomic replaces path with data through the atomicFile pair.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(osFS{}, path, data)
}

func writeFileAtomic(fs fsys, path string, data []byte) error {
	a := beginAtomic(fs, path)
	a.w.raw(data)
	return a.finish()
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
