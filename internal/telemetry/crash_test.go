package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// The crash-state checker. A seeded schedule drives a durable ingestor on a
// recording memFS; at a bounded sample of the operation boundaries in its
// log, every crash state memFS.crashStates materialises must recover to an
// answer some durable history explains:
//   - Open succeeds, or fails loudly with a positioned errWALCorrupt;
//   - each segment keeps every record it had fsynced and no record it was
//     never written (fsynced ≤ recovered ≤ appended);
//   - the recovered answers are byte-identical to a fresh memory-only
//     replay of the record prefixes on the crashed disk;
//   - recovering with each shard's snapshot deleted answers the same.
// The method is ALICE's and CrashMonkey's (Pillai et al., OSDI 2014; Mohan
// et al., OSDI 2018), applied to the WAL's and the snapshots' syscalls.

// crashCfg drives the checker: two shards, one-second windows and a
// four-window horizon, an fsync every three records and a checkpoint floor
// of twelve, so a short schedule crosses every durability path.
func crashCfg() Config {
	return Config{Shards: 2, QueueLen: 64, Window: time.Second, Block: true, MaxWindows: 4,
		WAL: WALConfig{Dir: "/data", SyncEvery: 3, SnapshotEvery: 12}}
}

const (
	crashScheduleSteps = 20
	crashPointsPerDisk = 64 // crash points sampled from one disk's log
	crashRandomStates  = 3  // random mixes per crash point, beside the systematic states
)

// crashTally counts what the checker checked.
type crashTally struct {
	points, states, loud int
}

// segmentAt is a WAL segment the log names at a crash point.
type segmentAt struct {
	path              string
	fsynced, appended int // records fsynced, and records written to the file
}

// liveSegments lists the segment files m's namespace holds, by shard then
// path.
func (m *memFS) liveSegments(cfg Config) []segmentAt {
	var segs []segmentAt
	for i := 0; i < cfg.Shards; i++ {
		dir := shardDir(cfg.WAL.Dir, i)
		d := m.dirs[dir]
		if d == nil {
			continue
		}
		names := make([]string, 0, len(d.live))
		for name := range d.live {
			if strings.HasPrefix(name, walPrefix) {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			path, ino := filepath.Join(dir, name), m.inos[d.live[name]]
			segs = append(segs, segmentAt{path: path,
				fsynced: len(recordEnds(path, ino.durable)), appended: len(recordEnds(path, ino.data))})
		}
	}
	return segs
}

// checkCrashPoints checks a sample of the operation boundaries of disk's
// log past its prelude, the last one always among them.
func checkCrashPoints(t *testing.T, cfg Config, disk *memFS, r *rng.Source, tally *crashTally) {
	t.Helper()
	disk.mu.Lock()
	first, last := disk.prelude, len(disk.log)
	disk.mu.Unlock()
	points := make([]int, 0, last-first+1)
	for n := first; n <= last; n++ {
		points = append(points, n)
	}
	if len(points) > crashPointsPerDisk {
		perm := r.Perm(len(points) - 1)[:crashPointsPerDisk-1]
		sampled := []int{last}
		for _, i := range perm {
			sampled = append(sampled, points[i])
		}
		slices.Sort(sampled)
		points = sampled
	}
	refs := map[string][]byte{}
	for _, n := range points {
		checkCrashPoint(t, cfg, memFSAt(disk, n), r, refs, tally)
	}
}

// checkCrashPoint checks every crash state of the disk m at the end of its
// log. refs caches reference answers by the record prefixes they replay.
func checkCrashPoint(t *testing.T, cfg Config, m *memFS, r *rng.Source, refs map[string][]byte, tally *crashTally) {
	t.Helper()
	tally.points++
	pending, dirty, states := m.crashStates(r, crashRandomStates)
	segs := m.liveSegments(cfg)
	for _, c := range states {
		tally.states++
		where := fmt.Sprintf("crash after op %d, state %s", len(m.log), c)
		disk, resurrected, reached := m.materialise(pending, dirty, c)

		for _, seg := range segs {
			b, err := disk.ReadFile(seg.path)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: %v", where, err)
			}
			if n := len(recordEnds(seg.path, b)); n < seg.fsynced || n > seg.appended {
				t.Fatalf("%s: %s holds %d records, fsynced %d, appended %d", where, seg.path, n, seg.fsynced, seg.appended)
			}
		}

		// A segment an undone unlink brought back is part of a history only
		// if nothing written after the unlink survived beside it.
		var skip []string
		for path, at := range resurrected {
			lens := m.lengthsAt(at)
			for _, ino := range reached {
				if len(m.content(ino, dirty, c)) > lens[ino] {
					skip = append(skip, path)
					break
				}
			}
		}
		want, corrupt := referenceAnswers(t, cfg, disk, skip, refs)
		hasSnapshot := snapshotsOn(cfg, disk)
		got, ok := recoveredAnswers(t, cfg, disk, where)
		if !ok || corrupt {
			if ok || !corrupt {
				t.Fatalf("%s: recovery failed loudly %v, a replay of the disk found corruption %v", where, !ok, corrupt)
			}
			tally.loud++
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered answers differ from a replay of the record prefixes on disk (resurrected %v, left out %v)\nrecovered %s\nreplayed  %s",
				where, resurrected, skip, got, want)
		}
		if hasSnapshot {
			walOnly, _, _ := m.materialise(pending, dirty, c)
			for i := 0; i < cfg.Shards; i++ {
				_ = walOnly.Remove(filepath.Join(shardDir(cfg.WAL.Dir, i), snapshotFile))
			}
			if again, ok := recoveredAnswers(t, cfg, walOnly, where+", snapshots deleted"); !ok || !bytes.Equal(again, got) {
				t.Fatalf("%s: recovery from the WAL alone differs from snapshot+WAL\nsnapshot+WAL %s\nWAL only     %s", where, got, again)
			}
		}
	}
}

// snapshotsOn reports whether any shard directory of disk holds a snapshot.
func snapshotsOn(cfg Config, disk *memFS) bool {
	for i := 0; i < cfg.Shards; i++ {
		if _, err := disk.ReadFile(filepath.Join(shardDir(cfg.WAL.Dir, i), snapshotFile)); err == nil {
			return true
		}
	}
	return false
}

// recoveredAnswers opens an ingestor on disk and fingerprints its answers;
// ok is false when Open failed in the documented loud way.
func recoveredAnswers(t *testing.T, cfg Config, disk *memFS, where string) (fp []byte, ok bool) {
	t.Helper()
	ing, _, err := open(cfg, disk)
	if err != nil {
		if errors.Is(err, errWALCorrupt) && strings.Contains(err.Error(), "byte offset") {
			return nil, false
		}
		t.Fatalf("%s: recovery failed: %v", where, err)
	}
	defer ing.Crash()
	return queryFingerprint(t, ing), true
}

// referenceAnswers replays every record on disk's segments, except those of
// the segments in skip, into a memory-only ingestor — segment by segment in
// window order, retention applied once at the end, as recovery replays — and
// fingerprints its answers. corrupt reports a segment that cannot be
// replayed.
func referenceAnswers(t *testing.T, cfg Config, disk *memFS, skip []string, refs map[string][]byte) (fp []byte, corrupt bool) {
	t.Helper()
	type seg struct {
		shard int
		start int64
		path  string
	}
	var segs []seg
	var key strings.Builder
	for i := 0; i < cfg.Shards; i++ {
		dir := shardDir(cfg.WAL.Dir, i)
		starts, legacy, err := listSegments(disk, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range starts {
			path := segFile(dir, start, legacy[start])
			if slices.Contains(skip, path) {
				continue
			}
			data, err := disk.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if ends := recordEnds(path, data); len(ends) > 0 {
				data = data[:ends[len(ends)-1]]
			} else {
				data = nil
			}
			segs = append(segs, seg{i, start, path})
			fmt.Fprintf(&key, "%s %d\n%s", path, len(data), data)
		}
	}
	if fp, ok := refs[key.String()]; ok {
		return fp, false
	}
	mem := cfg
	mem.WAL, mem.Metrics = WALConfig{}, nil
	ref := NewIngestor(mem)
	defer ref.Close()
	for _, sg := range segs {
		s := ref.shards[sg.shard]
		if _, _, _, err := readWALSegment(disk, sg.path, func(e Envelope) { ref.fold(s, e, foldReplay) },
			func(c walCtl) { ref.applyCtl(s, sg.start, c) }); err != nil {
			if errors.Is(err, errWALCorrupt) {
				return nil, true
			}
			t.Fatalf("reference replay of %s: %v", sg.path, err)
		}
	}
	for _, s := range ref.shards {
		s.mu.Lock()
		ref.enforceRetention(s)
		s.mu.Unlock()
	}
	fp = queryFingerprint(t, ref)
	refs[key.String()] = fp
	return fp, false
}

// runCrashSchedule plays a schedule of offers, dense bursts, late and
// duplicate events, absorbed rollups, partition drops, checkpoints and
// crashes — a process crash, or a power cut that continues on one of its
// crash states — and checks the crash states of every disk it used. A step
// is an opcode byte and two argument bytes; a missing byte reads 0, so every
// prefix of a schedule is a schedule.
func runCrashSchedule(t *testing.T, data []byte) crashTally {
	cfg := crashCfg()
	var seed uint64
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	r := rng.New(seed)
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	var tally crashTally

	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	key := func(x int) Key {
		return Key{Metric: []string{MetricRTT, MetricHops}[x%2], Region: fmt.Sprint("r", x/2%3), Net: []string{"wifi", "lte"}[x/6%2]}
	}
	seqs := map[dedupKey]uint64{}
	sequenced := func(ts int64, k Key, user int, v float64) Envelope {
		e := ev(ts, k.Metric, k.Region, k.Net, v)
		e.User = user
		dk := dedupKey{Key: k, User: user}
		seqs[dk]++
		e.Seq = seqs[dk]
		return e
	}
	offer := func(events []Envelope) {
		for _, e := range events {
			if !ing.Offer(e) {
				t.Fatal("offer refused")
			}
		}
		ing.Flush()
	}

	head := int64(100) // the newest window index
	for step := 0; len(data) > 0 && step < crashScheduleSteps; step++ {
		op, a, b := next(), next(), next()
		switch scheduleOp(op) {
		case opDense: // δ or more events of one key in one window; the key's next window seals it by flushing
			k := key(a)
			events := make([]Envelope, int(stats.DefaultCompression)+b%32)
			for i := range events {
				events[i] = sequenced(head*1000+int64((b*37+i*7)%1000), k, 1+i%3, float64((a*7+b+i*13)%97)+0.25)
			}
			head++
			offer(append(events, sequenced(head*1000+int64(a), k, 1, float64(b%41)+0.5)))
		case 0, 1, 2: // a burst in the newest window, sometimes opening the next
			if a%3 == 0 {
				head++
			}
			events := make([]Envelope, 1+b%5)
			for i := range events {
				events[i] = sequenced(head*1000+int64((b*37+i*101)%1000), key(a+5*i), 1+i%2, float64((a*7+b+i*13)%97)+0.25)
			}
			if b%4 == 0 { // a retried send: the first event again
				events = append(events, events[0])
			}
			offer(events)
		case 3: // late events, up to six windows back: past the horizon sometimes
			events := make([]Envelope, 1+b%3)
			for i := range events {
				w := head - 1 - int64((a+i)%6)
				events[i] = sequenced(w*1000+int64(a*11%1000), key(b+3*i), 3, float64(a%53)+0.5)
			}
			offer(events)
		case 4: // raw rollups absorbed onto windows that exist and ones that do not
			k := key(a)
			page := SketchPage{Metric: k.Metric, Compression: stats.DefaultCompression, WindowMs: 1000}
			for i := 0; i < 1+b%2; i++ {
				sk := stats.NewSketch(stats.DefaultCompression)
				for j := 0; j <= (a+i)%5; j++ {
					_ = sk.Add(float64((b+j*17)%61) + 0.125)
				}
				enc, _ := sk.MarshalBinary()
				page.Matches = append(page.Matches, WindowSketch{Start: (head - int64((b+i)%5)) * 1000,
					Region: fmt.Sprint("r", (a/2+i)%3), Net: k.Net, Sketch: enc})
			}
			if _, err := ing.AbsorbPages([]SketchPage{page}); err != nil {
				t.Fatal(err)
			}
		case 5:
			of := 1 + a%3
			if _, err := ing.DropPartition(b%of, of); err != nil {
				t.Fatal(err)
			}
		case 6:
			if err := ing.Snapshot(); err != nil {
				t.Fatal(err)
			}
		case 7:
			ing.Crash()
			if b%2 == 1 { // a power cut: go on from one of its crash states
				checkCrashPoints(t, cfg, disk, r, &tally)
				m := memFSAt(disk, len(disk.log))
				pending, dirty, states := m.crashStates(r, crashRandomStates)
				disk, _, _ = m.materialise(pending, dirty, states[r.IntN(len(states))])
			}
			ing = mustOpen(t, cfg, disk)
		}
	}
	ing.Crash()
	checkCrashPoints(t, cfg, disk, r, &tally)
	return tally
}

// opDense is the schedules' dense-burst opcode: δ or more events of one key
// in one window, the only step that fills a rollup past the point where its
// seal flushes (shard.seal) and a query folds it from its flushed points.
const opDense = 8

// scheduleOp decodes a schedule step's opcode byte: opDense for a byte of 15
// mod 16, else the byte mod 8. Dense bursts so take half the bytes of opcode
// 7, and every schedule (and fuzz corpus entry) without such a byte keeps
// the meaning it had before they existed.
func scheduleOp(op int) int {
	if op%16 == 15 {
		return opDense
	}
	return op % 8
}

// crashSeeds is FuzzCrashStates' seed corpus: seeded random schedules.
func crashSeeds() [][]byte {
	var seeds [][]byte
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		data := make([]byte, 3*crashScheduleSteps)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzCrashStates is the crash-state checker (runCrashSchedule) with the
// fuzz input as its schedule. Its seed corpus runs with every go test; make
// fuzz and make chaos run it longer.
func FuzzCrashStates(f *testing.F) {
	for _, seed := range crashSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tally := runCrashSchedule(t, data)
		t.Logf("%d crash points, %d crash states checked, %d failed loudly", tally.points, tally.states, tally.loud)
	})
}

// checkEveryCrashPoint checks every operation boundary of disk's log past
// its prelude.
func checkEveryCrashPoint(t *testing.T, cfg Config, disk *memFS) crashTally {
	t.Helper()
	var tally crashTally
	refs := map[string][]byte{}
	for n := disk.prelude; n <= len(disk.log); n++ {
		checkCrashPoint(t, cfg, memFSAt(disk, n), rng.New(uint64(n)), refs, &tally)
	}
	return tally
}

// lastOp is the log index of the last operation of kind on path.
func lastOp(t *testing.T, disk *memFS, kind opKind, path string) int {
	t.Helper()
	for i := len(disk.log) - 1; i >= disk.prelude; i-- {
		if op := disk.log[i]; op.kind == kind && op.path == path {
			return i
		}
	}
	t.Fatalf("no operation %d on %s", kind, path)
	return 0
}

// oneShardCfg is crashCfg on one shard with a two-window horizon and an
// fsync per record, checkpointing only when asked.
func oneShardCfg() Config {
	cfg := crashCfg()
	cfg.Shards, cfg.MaxWindows = 1, 2
	cfg.WAL.SyncEvery, cfg.WAL.SnapshotEvery = 1, 0
	return cfg
}

// TestTornTailTruncationNeedsNoFsync: recovery truncates a torn tail and
// resumes appending without fsyncing the truncation first. A power cut
// before the segment's next fsync may undo the truncation and bring the
// torn bytes back; the next recovery finds the same torn tail, truncates it
// again and answers as a replay of the records before it does.
func TestTornTailTruncationNeedsNoFsync(t *testing.T) {
	cfg := oneShardCfg()
	cfg.WAL.SyncEvery = 3
	seg := segFile(shardDir(cfg.WAL.Dir, 0), winStart(0), false)
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	for i := 0; i < 6; i++ {
		offerAll(t, ing, inWindow(0, i))
	}
	ing.Crash()

	// A power cut between the second cadence's write and its fsync, with
	// the write cut mid-record: a torn tail.
	m := memFSAt(disk, lastOp(t, disk, opWrite, seg)+1)
	pending, dirty, _ := m.crashStates(rng.New(1), 0)
	cut := crashState{keep: make([]bool, len(pending)), cut: []int{cutMid}}
	if len(dirty) != 1 || dirty[0].mid == 0 {
		t.Fatalf("want one dirty segment with a mid-record cut, have %+v", dirty)
	}
	torn, _, _ := m.materialise(pending, dirty, cut)
	rec := mustOpen(t, cfg, torn)
	for i := 6; i < 9; i++ {
		offerAll(t, rec, inWindow(0, i))
	}
	rec.Crash()

	// The pinned state: after the truncation and the next cadence's write,
	// before its fsync, everything unsynced lost — the truncation with it.
	m = memFSAt(torn, lastOp(t, torn, opWrite, seg)+1)
	if lastOp(t, m, opTrunc, seg) < m.prelude {
		t.Fatal("recovery did not truncate the torn tail")
	}
	pending, dirty, _ = m.crashStates(rng.New(1), 0)
	undone, _, _ := m.materialise(pending, dirty, crashState{keep: make([]bool, len(pending)), cut: []int{cutDrop}})
	if b, _ := undone.ReadFile(seg); len(b) == 0 || slices.Contains(recordEnds(seg, b), len(b)) {
		t.Fatalf("the undone truncation left %q, want the torn tail back", b)
	}
	tally := checkEveryCrashPoint(t, cfg, torn)
	t.Logf("%d crash points, %d crash states checked", tally.points, tally.states)
}

// TestEvictedSegmentStaysEvicted: retention's unlink of an evicted segment
// is fsynced before anything else is written. Without that, a power cut
// after a DropPartition could undo the unlink but keep the drop records:
// recovery would replay the evicted window, which never received the drop,
// and keep it, because the drop thinned the shard below MaxWindows.
func TestEvictedSegmentStaysEvicted(t *testing.T) {
	cfg := oneShardCfg()
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	offerAll(t, ing, inWindow(0, 0), inWindow(1, 0), inWindow(2, 0)) // window 2 evicts window 0
	if _, err := ing.DropPartition(0, 1); err != nil {
		t.Fatal(err)
	}
	ing.Crash()
	end := memFSAt(disk, len(disk.log))
	for _, at := range end.pendingOps() {
		if end.log[at].kind == opRemove {
			t.Fatalf("the unlink of %s is not durable", end.log[at].path)
		}
	}
	tally := checkEveryCrashPoint(t, cfg, disk)
	t.Logf("%d crash points, %d crash states checked", tally.points, tally.states)
}

// TestSnapshotWindowEvictedSinceTheCutStaysEvicted: a snapshot holds the
// rollups of a window that retention evicted after the cut. Recovery must
// not bring them back, even once a DropPartition has left the shard with
// room under MaxWindows.
func TestSnapshotWindowEvictedSinceTheCutStaysEvicted(t *testing.T) {
	cfg := oneShardCfg()
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	offerAll(t, ing, inWindow(0, 0), inWindow(1, 0))
	if err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	offerAll(t, ing, inWindow(2, 0), inWindow(3, 0)) // evicts windows 0 and 1
	if _, err := ing.DropPartition(0, 1); err != nil {
		t.Fatal(err)
	}
	ing.Crash()
	checkEveryCrashPoint(t, cfg, disk)
}

// TestRecreatedSegmentReplaysWhole: a snapshot counts records of a window
// whose segment retention evicted and a late event then created anew.
// Recovery must replay the new segment whole, and once, not skip the old
// one's count of it on top of the old one's rollups — whether the new
// segment holds fewer records than that count or as many; either way its
// fresh record tells. A crash right after the create leaves it empty, and
// the count alone tells. Replayed twice, its sequenced events would be
// thrown away as duplicates of themselves; replayed against the snapshot's
// dedup tracker, which the eviction had aged out, as duplicates of the
// evicted events they retry.
func TestRecreatedSegmentReplaysWhole(t *testing.T) {
	for _, late := range []int{1, 3} {
		t.Run(fmt.Sprint(late, "-late"), func(t *testing.T) {
			cfg := oneShardCfg()
			disk := newMemFS()
			ing := mustOpen(t, cfg, disk)
			seq := func(i int) Envelope {
				e := inWindow(0, i)
				e.User, e.Seq = 1, uint64(i+1)
				return e
			}
			offerAll(t, ing, seq(0), seq(1), seq(2), inWindow(1, 0))
			if err := ing.Snapshot(); err != nil { // counts 3 records of window 0
				t.Fatal(err)
			}
			offerAll(t, ing, inWindow(2, 0)) // evicts window 0
			if _, err := ing.DropPartition(0, 1); err != nil {
				t.Fatal(err)
			}
			// Window 0 again, with room to stay: retries of its evicted
			// events, folded anew because eviction aged out their tracker.
			for i := 0; i < late; i++ {
				offerAll(t, ing, seq(i))
			}
			live := queryFingerprint(t, ing)
			ing.Crash()

			rec, st, err := open(cfg, disk)
			if err != nil {
				t.Fatal(err)
			}
			got := queryFingerprint(t, rec)
			rec.Crash()
			if !bytes.Equal(got, live) {
				t.Fatalf("recovered answers differ from the live ones\nrecovered %s\nlive      %s", got, live)
			}
			// Window 0 holds a fresh record and the late events, windows 1
			// and 2 an event and a drop record each; the snapshot covers
			// window 1's event alone.
			if st.Snapshots != 1 || st.SegmentsScanned != 3 || st.RecordsSkipped != 1 || st.RecordsReplayed != uint64(late+4) {
				t.Fatalf("recovery stats %+v, want 1 snapshot, 3 segments, 1 record skipped and %d replayed", st, late+4)
			}
			checkEveryCrashPoint(t, cfg, disk)
		})
	}
}
