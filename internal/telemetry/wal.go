package telemetry

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"edgescope/internal/obs"
)

// Write-ahead log. Each ingest shard owns an append-only log of the
// envelopes it folded, framed and checksummed record by record
// (walrecord.go), split into one segment file per rollup window —
// wal-<windowStartMs>.rec under <dir>/shard-<i>/ — so retention eviction can
// unlink a whole window's durability in one operation and recovery can
// replay windows independently. A segment keeps the format it was created
// in: a JSONL segment (wal-<windowStartMs>.jsonl, one Envelope wire line per
// record) that an older build left is replayed, and appended to, as JSONL.
// The worker appends under the shard lock immediately before folding, so
// per-segment record order IS fold order, which is what makes replay
// reconstruct every sketch bit-for-bit.
//
// Durability contract: a record is durable once the shard has fsynced past
// it (every SyncEvery appends, on SyncWAL, and on Close). A crash loses at
// most the unsynced suffix; a torn final record (a write cut mid-record) is
// detected and truncated on recovery, never replayed and never allowed to
// corrupt subsequent appends. Appends go through one write buffer per shard,
// flushed to its segment whenever appends switch segment, at every sync and
// before the segment closes. A sync flushes and fsyncs the segments written
// since the previous one — a clean segment's bytes were made durable by the
// sync that cleaned it — and creating or unlinking a segment fsyncs the shard
// directory, so the file's name is as durable as its records and an evicted
// window cannot come back after a power loss; creating a shard directory
// fsyncs its parent likewise. Every call reaches the disk through fsys
// (fsys.go).

// walPrefix and a suffix name segment files: walSuffix for framed records,
// legacySuffix for the JSONL segments of older builds.
const (
	walPrefix    = "wal-"
	walSuffix    = ".rec"
	legacySuffix = ".jsonl"
)

// maxOpenSegments bounds per-shard file handles. Appends target the current
// window almost always; a late event reopens its older segment on demand.
const maxOpenSegments = 8

// walBufSize is the per-shard write buffer. Large enough that the fsync
// cadence, not buffer pressure, decides when bytes reach the OS.
const walBufSize = 64 * 1024

type walSeg struct {
	start  int64
	f      file
	legacy bool // a JSONL segment: its records are appended as JSONL
	dirty  bool // holds bytes written since its last fsync; listed in shardWAL.dirty
}

// shardWAL is one shard's log. All methods are called with the owning
// shard's mutex held (or before the shard's worker starts), so there is no
// internal locking.
type shardWAL struct {
	fs        fsys
	dir       string
	syncEvery int

	open map[int64]*walSeg // open segment handles by window start
	// bw buffers the appends to cur, the segment written last; it is
	// flushed there before appends switch segment, at every sync and before
	// cur closes. With no cur it is empty, and nil before the first append.
	bw  *bufio.Writer
	cur *walSeg
	// legacy holds the window starts whose segment is JSONL: recovery finds
	// them, and nothing else creates one.
	legacy map[int64]bool
	// dirty lists the open segments written since their last fsync — in
	// steady state the newest window's alone — so a sync costs what was
	// written, not what is open.
	dirty []*walSeg
	// records counts valid records per segment, disk + buffered. Snapshots
	// fsync before encoding these as applied counts, so a snapshot never
	// claims more records on disk than are actually there.
	records map[int64]uint64
	line    []byte // encode scratch

	// The snapshots that may be on disk (the last written, any cut since)
	// by checksum, and the windows they count records of: a segment created
	// anew for one names them in a fresh record (recover.go).
	snaps             []uint32
	claims, cutClaims map[int64]bool

	appended uint64 // records appended this process
	synced   uint64 // value of appended at the last successful fsync
	unsynced int    // appends since the last fsync (drives syncEvery)
	err      error  // sticky write/sync error: shard degrades to memory-only

	// Checkpoint accounting — what a restart would replay right now, and
	// what the next checkpoint has to outweigh (checkpointDue). Records of
	// both kinds count, in write; cutCheckpoint restarts the two since*
	// counters and records the size it cut.
	sinceRecords int    // records appended since the last checkpoint
	sinceBytes   uint64 // their bytes
	snapBytes    uint64 // size of the last checkpoint, 0 before the first

	// Observability instruments (metrics.go bindWAL), updated under the
	// shard lock like everything else here.
	appendedC   *obs.Counter
	fsyncsC     *obs.Counter // sync batches that fsynced at least one file
	fileFsyncsC *obs.Counter // files fsynced, by a batch or the handle cap
	fsyncHist   *obs.Histogram
}

func newShardWAL(fs fsys, dir string, syncEvery int) (*shardWAL, error) {
	if err := mkdirDurable(fs, dir); err != nil {
		return nil, fmt.Errorf("telemetry: wal: %w", err)
	}
	return &shardWAL{
		fs:        fs,
		dir:       dir,
		syncEvery: syncEvery,
		open:      map[int64]*walSeg{},
		records:   map[int64]uint64{},
		claims:    map[int64]bool{},
	}, nil
}

// mkdirDurable creates dir and its missing parents, fsyncing the parent of
// each directory it creates: a power loss may otherwise drop a new shard
// directory whole, with every record acknowledged in it.
func mkdirDurable(fs fsys, dir string) error {
	err := fs.Mkdir(dir)
	if errors.Is(err, os.ErrNotExist) {
		if err = mkdirDurable(fs, filepath.Dir(dir)); err == nil {
			err = fs.Mkdir(dir)
		}
	}
	if errors.Is(err, os.ErrExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(dir))
}

func (w *shardWAL) segPath(start int64) string {
	return segFile(w.dir, start, w.legacy[start])
}

// segFile names the segment of the window at start in dir.
func segFile(dir string, start int64, legacy bool) string {
	suffix := walSuffix
	if legacy {
		suffix = legacySuffix
	}
	return filepath.Join(dir, walPrefix+strconv.FormatInt(start, 10)+suffix)
}

// openSeg returns the segment for a window start, opening (append mode) or
// creating it, and closing the oldest segment past the handle cap. A segment
// it creates has its directory entry fsynced before any record goes in.
func (w *shardWAL) openSeg(start int64) (*walSeg, error) {
	if seg, ok := w.open[start]; ok {
		return seg, nil
	}
	if len(w.open) >= maxOpenSegments {
		oldest := int64(math.MaxInt64)
		for s := range w.open {
			oldest = min(oldest, s)
		}
		// A closed segment is never dirty: fsync the victim first if it was
		// written since the last sync; a clean one only gives up its handle.
		seg := w.open[oldest]
		if seg.dirty {
			if err := w.syncSeg(seg); err != nil {
				w.err = err
			}
			w.undirty(seg)
		}
		w.closeSeg(seg)
	}
	path := w.segPath(start)
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND)
	created := err == nil
	if created {
		if err = w.fs.SyncDir(w.dir); err != nil {
			f.Close()
		}
	} else if errors.Is(err, os.ErrExist) {
		f, err = w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND)
	}
	if err != nil {
		return nil, err
	}
	seg := &walSeg{start: start, f: f, legacy: w.legacy[start]}
	w.open[start] = seg
	if created && w.claims[start] {
		w.appendCtl(start, walCtl{Ctl: ctlFresh, Stale: w.snaps})
		if w.err != nil {
			return nil, w.err
		}
	}
	return seg, nil
}

// cutSnapshot notes a checkpoint cut with checksum crc: until its write
// succeeds, it and the snapshots before it may each be the one on disk.
func (w *shardWAL) cutSnapshot(crc uint32) {
	w.snaps = append(w.snaps, crc)
	w.cutClaims = make(map[int64]bool, len(w.records))
	for start := range w.records {
		w.claims[start], w.cutClaims[start] = true, true
	}
}

// wroteSnapshot notes that the last cut's snapshot is on disk, alone.
func (w *shardWAL) wroteSnapshot() {
	w.snaps, w.claims = w.snaps[len(w.snaps)-1:], w.cutClaims
}

// syncSeg pushes one segment's buffered bytes to the OS and fsyncs the file.
// The segment stays dirty on failure; the caller owns w.err and w.dirty.
func (w *shardWAL) syncSeg(seg *walSeg) error {
	if seg == w.cur {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	if err := seg.f.Sync(); err != nil {
		return err
	}
	seg.dirty = false
	w.fileFsyncsC.Inc()
	return nil
}

// closeSeg closes a segment's handle. Bytes of it still buffered are
// dropped: the caller has flushed them, or is discarding the segment.
func (w *shardWAL) closeSeg(seg *walSeg) {
	if seg == w.cur {
		w.bw.Reset(nil)
		w.cur = nil
	}
	seg.f.Close()
	delete(w.open, seg.start)
}

// undirty takes a segment that is about to be closed off the dirty list.
func (w *shardWAL) undirty(seg *walSeg) {
	if i := slices.Index(w.dirty, seg); i >= 0 {
		w.dirty = slices.Delete(w.dirty, i, i+1)
	}
}

// append logs one envelope to its window's segment. Errors are sticky: the
// first failure degrades the shard to memory-only ingest (reported via
// Health) rather than stalling the pipeline, and every later append is a
// cheap no-op.
func (w *shardWAL) append(e Envelope, start int64) {
	if w.err != nil {
		return
	}
	seg, err := w.openSeg(start)
	if err != nil {
		w.err = err
		return
	}
	if seg.legacy {
		w.line, err = AppendJSONL(w.line[:0], e)
	} else {
		w.line, err = appendEnvelopeRecord(w.line[:0], e)
	}
	if err != nil {
		w.err = err
		return
	}
	w.write(seg, start, w.line)
}

// write puts one encoded record (envelope or control, framed or a JSONL
// line) on its segment and does the accounting every record shares: the
// segment's record count, the durability lag and fsync cadence, and the
// checkpoint trigger's records-and-bytes-since.
func (w *shardWAL) write(seg *walSeg, start int64, line []byte) {
	if seg != w.cur {
		if w.bw == nil {
			w.bw = bufio.NewWriterSize(seg.f, walBufSize)
		} else if err := w.bw.Flush(); err != nil {
			w.err = err
			return
		}
		w.bw.Reset(seg.f)
		w.cur = seg
	}
	// Dirty before the write: a failed one may still have pushed bytes out.
	if !seg.dirty {
		seg.dirty = true
		w.dirty = append(w.dirty, seg)
	}
	if _, err := w.bw.Write(line); err != nil {
		w.err = err
		return
	}
	w.records[start]++
	w.appended++
	w.appendedC.Inc()
	w.sinceRecords++
	w.sinceBytes += uint64(len(line))
	w.unsynced++
	if w.syncEvery > 0 && w.unsynced >= w.syncEvery {
		w.sync()
	}
}

// checkpointDue is the cadence rule: cut a checkpoint only once at least
// floor records have been logged since the last one AND their bytes weigh at
// least what that checkpoint did. The second half is what makes checkpoint
// cost amortised O(1) per logged byte however large the retained state grows:
// each checkpoint is paid for by the WAL written before the next, so the
// cadence never writes more checkpoint bytes than WAL bytes plus the size of
// the latest checkpoint, and the un-checkpointed suffix a restart replays
// holds fewer than floor records or fewer bytes than the checkpoint beside
// it. floor 0 means never (shutdown only); a degraded WAL cannot checkpoint.
func (w *shardWAL) checkpointDue(floor int) bool {
	return floor > 0 && w.err == nil && w.sinceRecords >= floor && w.sinceBytes >= w.snapBytes
}

// sync flushes and fsyncs every segment written since the last sync, in
// ascending window order. On success the durability watermark advances to
// everything appended so far; a failure is sticky and leaves the segment it
// hit, and those after it, dirty. With nothing dirty there is nothing to make
// durable: no syscall, no batch counted, no latency observed.
func (w *shardWAL) sync() error {
	if w.err != nil {
		return w.err
	}
	if len(w.dirty) > 0 {
		began := time.Now()
		slices.SortFunc(w.dirty, func(a, b *walSeg) int { return cmp.Compare(a.start, b.start) })
		var err error
		n := 0
		for n < len(w.dirty) {
			if err = w.syncSeg(w.dirty[n]); err != nil {
				break
			}
			n++
		}
		w.dirty = slices.Delete(w.dirty, 0, n) // zeroes the tail: no stale pointers
		if err != nil {
			w.err = err
			return err
		}
		w.fsyncsC.Inc()
		w.fsyncHist.ObserveDuration(time.Since(began))
	}
	w.synced = w.appended
	w.unsynced = 0
	return nil
}

// dropSegment removes a window's durability when retention evicts it: the
// handle is closed unflushed (the data is being discarded), the file
// unlinked and the unlink fsynced, so no power loss brings the window back
// into a recovery that a DropPartition since left under MaxWindows. A
// segment created for the window again is framed, whatever this one was.
func (w *shardWAL) dropSegment(start int64) {
	if seg, ok := w.open[start]; ok {
		w.undirty(seg)
		w.closeSeg(seg)
	}
	delete(w.records, start)
	path := w.segPath(start)
	delete(w.legacy, start)
	err := w.fs.Remove(path)
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) && w.err == nil {
		w.err = err
	}
}

// closeFiles syncs and closes every open handle (graceful shutdown).
func (w *shardWAL) closeFiles() error {
	err := w.sync()
	w.abort()
	return err
}

// abort closes handles WITHOUT flushing buffered writes — the test double
// for a process crash: bytes not yet pushed to the OS are lost, exactly the
// unsynced suffix the durability contract allows to disappear.
func (w *shardWAL) abort() {
	for _, seg := range w.open {
		w.closeSeg(seg)
	}
	w.dirty = nil
}

// lag reports records appended but not yet fsynced — the data a crash right
// now would lose.
func (w *shardWAL) lag() uint64 { return w.appended - w.synced }

// listSegments returns the window starts of every segment file in the
// shard's directory, ascending, and which of them are JSONL. Unparseable
// names are ignored (they are not WAL segments). A window with a segment of
// each format is an error: this build never creates the second.
func listSegments(fs fsys, dir string) (starts []int64, legacy map[int64]bool, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, ent := range entries {
		num, ok := strings.CutPrefix(ent.Name(), walPrefix)
		if !ok {
			continue
		}
		isLegacy := false
		if num, ok = strings.CutSuffix(num, walSuffix); !ok {
			if num, isLegacy = strings.CutSuffix(num, legacySuffix); !isLegacy {
				continue
			}
		}
		start, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue
		}
		if isLegacy {
			if legacy == nil {
				legacy = map[int64]bool{}
			}
			legacy[start] = true
		}
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 1; i < len(starts); i++ {
		if starts[i] == starts[i-1] {
			return nil, nil, fmt.Errorf("%w: %s holds a framed and a JSONL segment of window %d", errWALCorrupt, dir, starts[i])
		}
	}
	return starts, legacy, nil
}

// errWALCorrupt marks mid-segment corruption (vs a tolerable torn tail).
var errWALCorrupt = errors.New("telemetry: wal segment corrupt")

// readWALSegment replays one segment, calling fn for every valid envelope
// record and ctlFn for every control record (handoff.go: absorbed rollups
// and partition drops), in append order; both kinds count toward records,
// so snapshot applied counts cover them uniformly. The file's suffix picks
// the format: framed records (walrecord.go readRecords) or JSONL. Two
// failure shapes are distinguished:
//
//   - A torn tail — a final record the end of the file cut short, the
//     footprint of a write cut by a crash — is tolerated: replay stops at the
//     last durable record and returns torn=true with validEnd positioned
//     after it, so the caller can truncate before appending again. A record
//     is only ever acknowledged as durable after all of it reached the OS,
//     so nothing acknowledged is ever dropped here.
//   - A complete record that does not check or decode is real corruption: a
//     positioned error wrapping errWALCorrupt, never a silent skip — durable
//     data that cannot be replayed must fail recovery loudly.
func readWALSegment(fs fsys, path string, fn func(Envelope), ctlFn func(walCtl)) (records uint64, validEnd int64, torn bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	if !strings.HasSuffix(path, legacySuffix) {
		return readRecords(f, path, fn, ctlFn)
	}
	// A JSONL record ends at its newline: bytes with none after them are a
	// torn tail, and a newline-terminated line that does not decode is
	// corruption. No cap on a line: an absorb control record is as large as
	// the rollups it carries.
	lr := lineReader{br: bufio.NewReaderSize(f, walBufSize), max: math.MaxInt}
	var tab internTable
	var offset int64
	lineNo := 0
	for {
		line, rerr := lr.next()
		if rerr != nil && rerr != io.EOF {
			return records, validEnd, false, fmt.Errorf("telemetry: wal %s: %w", path, rerr)
		}
		if rerr == io.EOF {
			if len(line) > 0 {
				// No trailing newline: a torn final write. Never durable
				// (acks follow the newline), so truncating it is loss-free.
				return records, validEnd, true, nil
			}
			return records, validEnd, false, nil
		}
		lineNo++
		lineLen := int64(len(line))
		body := line[:len(line)-1] // strip newline
		if len(body) > 0 {
			if bytes.HasPrefix(body, ctlPrefix) {
				c, derr := decodeCtl(body)
				if derr != nil {
					return records, validEnd, false, fmt.Errorf("%w: %s line %d (byte offset %d): %v",
						errWALCorrupt, path, lineNo, offset, derr)
				}
				ctlFn(c)
				records++
			} else {
				e, derr := decodeInterned(body, &tab)
				if derr != nil {
					return records, validEnd, false, fmt.Errorf("%w: %s line %d (byte offset %d): %v",
						errWALCorrupt, path, lineNo, offset, derr)
				}
				fn(e)
				records++
			}
		}
		offset += lineLen
		validEnd = offset
	}
}
