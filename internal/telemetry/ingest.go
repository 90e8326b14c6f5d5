package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/stats"
)

// Key is the rollup dimension tuple. Every envelope maps to exactly one Key,
// every Key maps to exactly one shard (stable FNV-1a hash), and each shard's
// worker is the only goroutine that ever writes that Key's rollups — the
// single-writer discipline that keeps the hot path lock-cheap and the
// pipeline deterministic for an ordered event stream.
type Key struct {
	Metric string
	Region string
	Net    string
}

// String renders the key as metric/region/net.
func (k Key) String() string { return k.Metric + "/" + k.Region + "/" + k.Net }

// ShardOf returns the shard index for a key under the pipeline's stable
// hash: FNV-1a over the dimension tuple with a 0 byte between fields (so
// ("ab","c") and ("a","bc") differ). The mapping depends only on the key
// and the shard count, never on process state, so replays and multi-process
// deployments agree on placement.
func (k Key) ShardOf(shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	hash := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0
		h *= prime64
	}
	hash(k.Metric)
	hash(k.Region)
	hash(k.Net)
	return int(h % uint64(shards))
}

// WALConfig enables and tunes durability. The zero value disables it
// entirely (process-lifetime state, the historical behaviour).
type WALConfig struct {
	// Dir is the data directory root. Setting it turns on the write-ahead
	// log and snapshots: accepted envelopes are logged per shard (segment
	// per rollup window) before folding, snapshots checkpoint the sketch
	// state, and Open/NewIngestor recover snapshot+WAL on startup.
	Dir string
	// SyncEvery is the fsync cadence in appended records per shard; the
	// durability floor is "everything up to the last fsync". Default 256.
	SyncEvery int
	// SnapshotEvery is the checkpoint floor: at least this many folded
	// records between a shard's checkpoints. Past the floor a checkpoint is
	// cut once the WAL bytes logged since the last one weigh at least what
	// that checkpoint did (shardWAL.checkpointDue), so checkpoint cost
	// follows what changed, not what is retained, and a restart replays a
	// WAL suffix of fewer than SnapshotEvery records or fewer bytes than the
	// checkpoint it loaded. 0 snapshots only at Close.
	SnapshotEvery int
}

// Config sizes an Ingestor. The zero value is usable: every field has a
// documented default.
type Config struct {
	// Shards is the number of single-writer ingest workers. Default 4.
	Shards int
	// QueueLen bounds each shard's queue, in envelopes: what producers have
	// enqueued and the worker has not yet taken. Default 1024.
	QueueLen int
	// Window is the rollup window length. Events are bucketed by
	// ts - ts mod Window. Default 1 minute.
	Window time.Duration
	// Compression is the per-window quantile-sketch δ parameter
	// (stats.NewSketch). Default stats.DefaultCompression.
	Compression float64
	// Block selects backpressure over loss: when true, Offer and OfferAll
	// wait until the shard queue has room instead of dropping. Replay uses
	// this so a deterministic stream is ingested losslessly.
	Block bool
	// MaxWindows caps the distinct time windows retained per shard
	// (independent of how many dimension keys each window holds); when a
	// new window start would exceed it, the shard's oldest window is
	// evicted whole — all its per-key rollups and its WAL segment — and
	// counted once in ShardStats.EvictedWindows. 0 retains everything —
	// right for replay and tests, unbounded for a daemon on an endless
	// stream, so cmd/telemetryd sets a cap.
	MaxWindows int
	// Metrics is the registry the pipeline's instrument families register
	// on (see metrics.go for the catalogue); every shard's accounting is
	// bound to registered series, so a /metrics scrape and Stats()/Health()
	// read the same cells. At most one Ingestor may use a given registry
	// (families register once). nil gets a private registry nothing scrapes.
	Metrics *obs.Registry
	// Node, when set, names this ingestor's place in a telemetry cluster —
	// role, node id and the partitions it owns — and is
	// echoed verbatim by Health(), so a cluster node's /healthz answer is
	// self-describing: an operator (or the front-end's health prober)
	// learns who they are talking to from the answer alone. nil for the
	// single-process deployment.
	Node *NodeInfo
	// WAL configures durability; see WALConfig.
	WAL WALConfig
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Compression <= 0 {
		c.Compression = stats.DefaultCompression
	}
	if c.WAL.Dir != "" && c.WAL.SyncEvery <= 0 {
		c.WAL.SyncEvery = 256
	}
}

// windowKey identifies one rollup: a window start (Unix ms, aligned to the
// configured window length) plus the dimension tuple.
type windowKey struct {
	Start int64
	Key
}

// keySeries is one key's rollups in its shard: one sketch per window the key
// has data in, ascending by window start, beside the key's running event
// count and its memoised query folds (foldmemo.go). Every reader and every
// deletion works key by key — a map lookup, then a binary search into the
// windows — so none of them walks the shard's other (window, key) rollups.
type keySeries struct {
	key   Key
	wins  []keyWindow // ascending by start, starts distinct, never empty
	count float64     // the wins' sketch counts summed: Keys' answer
	memo  keyMemo
}

// keyWindow is one (window, key) rollup: the window start, the sketch, and
// the shard clock value at the rollup's last creation or mutation — what a
// memoised query fold is checked against. Every write to a rollup goes
// through shard.touch.
type keyWindow struct {
	start int64
	stamp uint64
	sk    *stats.Sketch
}

// find returns where the window at start is in ks.wins, or where it would be
// inserted, and whether it is there.
func (ks *keySeries) find(start int64) (int, bool) {
	return slices.BinarySearchFunc(ks.wins, start, func(w keyWindow, start int64) int { return cmp.Compare(w.start, start) })
}

// shard is one single-writer ingest worker: a bounded queue, the rollups it
// alone writes, the idempotency trackers, its WAL, and its accounting.
// The mutex guards the rollup/dedup/WAL state against query-time readers
// and SyncWAL/snapshot callers; the worker takes it once per drained run of
// envelopes, and contends on it solely while one of those is in flight.
type shard struct {
	q  shardQueue
	mu sync.Mutex
	// keys indexes the shard's rollups by key; a key is present while it
	// holds at least one rollup.
	keys map[Key]*keySeries
	// clock is the shard's monotone mutation clock (touch); forgot counts
	// the rollup deletions, which invalidate memoised folds (foldmemo.go).
	clock  uint64
	forgot uint64
	// newest is the latest window start the shard has folded an event
	// into, and prior the newest before that window opened (both 0, which
	// precedes every window, until they are set). A fold that opens a
	// window past newest trims the rollups behind it (rollover).
	newest, prior int64
	// starts indexes windows by start time: start → number of rollup
	// entries in it. Retention counts and evicts *time windows* (distinct
	// starts), never individual (window, key) entries, so a cap smaller
	// than the key cardinality still retains MaxWindows whole windows.
	starts map[int64]int
	// seen dedups sequenced envelopes per (key, user); see dedup.go.
	seen map[dedupKey]*seqTracker
	// wal is the shard's write-ahead log, nil when durability is off.
	wal *shardWAL
	// snapMu serialises whole snapshot writes (encode + tmp file + rename):
	// the worker's periodic checkpoint and the public Snapshot may run
	// concurrently, and two writers on the same tmp path would interleave
	// bytes and rename a corrupt (wasted) checkpoint into place.
	snapMu sync.Mutex

	// Accounting cells (metrics.go): registered series, one atomic op on
	// the hot path, and the single source Stats() and /metrics share.
	accepted    *obs.Counter // enqueued into this shard; added to under q.mu
	dropped     *obs.Counter // rejected at a hard-full queue (only when !Block)
	processed   *obs.Counter // consumed from the queue (folded or deduped); added to under q.mu
	deduped     *obs.Counter // sequenced duplicates folded zero times
	compactions *obs.Counter // dedup tracker sparse-window compactions
	evicted     *obs.Counter // time windows evicted under MaxWindows retention
	sealed      *obs.Counter // closed rollups sealed to their flushed form (seal)

	// Latency instruments.
	walAppendHist *obs.Histogram
	snapshotHist  *obs.Histogram
}

// ShardStats is one shard's accounting snapshot. Windows counts distinct
// time windows (what MaxWindows caps); Rollups counts (window, key)
// sketches, and RollupBytes the bytes their point lists hold — most of a
// node's heap: a closed window's rollup is trimmed to its exact size, an
// open one keeps room to buffer points. The WAL fields are zero when
// durability is off; WALLag is the records appended but not yet fsynced —
// what a crash right now would lose. SnapshotBytes is the size of the
// shard's last checkpoint and WALBytesSinceSnapshot the WAL logged since
// it — together, what a restart right now would load and replay.
type ShardStats struct {
	Accepted         uint64 `json:"accepted"`
	Dropped          uint64 `json:"dropped"`
	Processed        uint64 `json:"processed"`
	Deduped          uint64 `json:"deduped,omitempty"`
	DedupCompactions uint64 `json:"dedup_compactions,omitempty"`
	EvictedWindows   uint64 `json:"evicted_windows"`
	Queued           int    `json:"queued"`
	Windows          int    `json:"windows"`
	Rollups          int    `json:"rollups"`
	RollupBytes      int    `json:"rollup_bytes"`
	WALAppended      uint64 `json:"wal_appended,omitempty"`
	WALLag           uint64 `json:"wal_lag,omitempty"`
	WALError         string `json:"wal_error,omitempty"`

	SnapshotBytes         uint64 `json:"snapshot_bytes,omitempty"`
	WALBytesSinceSnapshot uint64 `json:"wal_bytes_since_snapshot,omitempty"`
}

// Ingestor is the sharded ingest stage. Producers call Offer (or OfferAll);
// each envelope hashes by its dimension Key to one shard, whose worker
// goroutine folds it into the (window, key) quantile sketch — after logging
// it to the shard WAL when durability is on. Close drains and stops the
// workers (then fsyncs and snapshots); Query (query.go) answers over the
// accumulated rollups at any time, including after Close.
type Ingestor struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// offerMu serialises offers against Close and the partition freeze:
	// OfferAll holds the read side across its enqueue, Close takes the write
	// side to flip closed and close the queues, so an offer racing Close
	// returns false instead of enqueueing behind the workers' last run.
	offerMu sync.RWMutex
	closed  bool

	recovery  *RecoveryStats
	closeOnce sync.Once
	closeErr  error

	// node is the live cluster identity, seeded from Config.Node and
	// replaceable at runtime (SetNodeInfo) when an epoch activation
	// reassigns this node's partitions; nodeMu guards it against /healthz
	// readers racing an activation.
	nodeMu sync.Mutex
	node   *NodeInfo

	// frozen marks partitions (under the frozenOf split) refusing ingest
	// while a handoff cuts their pages; guarded by offerMu so the freeze
	// and Offer's enqueue serialize (see FreezePartition).
	frozen   map[int]bool
	frozenOf int

	// foldPool recycles foldKeys' working memory (*foldScratch) across queries.
	foldPool sync.Pool

	// m holds the registered instrument families.
	m *ingestMetrics
}

// NewIngestor starts the shard workers, recovering from Config.WAL.Dir
// first when durability is configured. It panics if recovery fails (corrupt
// mid-WAL data, unreadable directory, mismatched shard layout); use Open to
// handle those errors.
func NewIngestor(cfg Config) *Ingestor {
	ing, _, err := Open(cfg)
	if err != nil {
		panic("telemetry: " + err.Error())
	}
	return ing
}

// Open builds an Ingestor and, when Config.WAL.Dir is set, first recovers
// the rollup state a previous process persisted there: each shard loads its
// snapshot (if any, and falling back to full WAL replay if it is corrupt),
// replays the WAL records the snapshot does not cover, truncates torn
// tails, and reopens its log for appending. The returned stats describe
// that pass; a recovered ingestor answers queries byte-for-byte as the
// previous process would have, for everything durable at its last fsync.
func Open(cfg Config) (*Ingestor, RecoveryStats, error) {
	return open(cfg, osFS{})
}

// open is Open with the filesystem the WAL, snapshots and recovery use.
func open(cfg Config, fs fsys) (*Ingestor, RecoveryStats, error) {
	cfg.fill()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry() // private: nothing scrapes it
	}
	began := time.Now()
	ing := &Ingestor{cfg: cfg, shards: make([]*shard, cfg.Shards), node: cfg.Node, m: newIngestMetrics(cfg.Metrics)}
	var rst RecoveryStats
	for i := range ing.shards {
		s := &shard{
			keys:   make(map[Key]*keySeries),
			starts: make(map[int64]int),
			seen:   make(map[dedupKey]*seqTracker),
		}
		s.q.init(cfg.QueueLen)
		// Bind the accounting cells before recovery: replayed folds count.
		ing.m.bind(s, i)
		ing.shards[i] = s
		if cfg.WAL.Dir != "" {
			wal, err := newShardWAL(fs, shardDir(cfg.WAL.Dir, i), cfg.WAL.SyncEvery)
			if err != nil {
				return nil, rst, err
			}
			s.wal = wal
			ing.m.bindWAL(wal, i)
			if err := ing.recoverShard(s, &rst); err != nil {
				return nil, rst, err
			}
		}
	}
	if cfg.WAL.Dir != "" {
		for _, s := range ing.shards {
			rst.Windows += len(s.starts)
		}
		rst.DurationMs = time.Since(began).Milliseconds()
		ing.recovery = &rst
	}
	ing.installCollectHook()
	if ing.recovery != nil {
		ing.m.recoveryReplayed.Set(float64(rst.RecordsReplayed))
		ing.m.recoverySkipped.Set(float64(rst.RecordsSkipped))
		ing.m.recoveryDuration.Set(float64(rst.DurationMs) / 1e3)
	}
	for i := range ing.shards {
		s := ing.shards[i]
		ing.wg.Add(1)
		go func() {
			defer ing.wg.Done()
			ing.run(s)
		}()
	}
	return ing, rst, nil
}

// windowStart aligns a Unix-ms timestamp down to its window.
func (ing *Ingestor) windowStart(ts int64) int64 {
	w := ing.cfg.Window.Milliseconds()
	return ts - ts%w
}

// shardQueue is a shard's bounded queue. Producers append their share of a
// request under mu (OfferAll); the worker swaps out everything pending in
// one step (take) and hands the buffer it has just folded back as the next
// pending one, so two buffers alternate and a warm queue allocates nothing.
type shardQueue struct {
	mu sync.Mutex
	// ready wakes the worker, its only waiter, when envelopes arrive in an
	// empty queue or the queue closes.
	ready sync.Cond
	// settled is broadcast when the worker takes a run — room for producers
	// that Block — and when it has folded everything it took, which is what
	// Flush waits for.
	settled sync.Cond
	pending []Envelope // enqueued, not yet taken; neither its length nor its capacity passes limit
	limit   int
	closed  bool
}

func (q *shardQueue) init(limit int) {
	q.limit = limit
	q.ready.L = &q.mu
	q.settled.L = &q.mu
}

// len is the number of envelopes waiting for the worker.
func (q *shardQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// close wakes the worker to drain what is pending and exit. Called with
// offerMu write-held, so no producer is mid-enqueue.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.ready.Signal()
	q.mu.Unlock()
}

// take counts the run the worker has just folded (done) as processed and
// waits for the next one: everything pending, swapped out for done's emptied
// buffer. It returns nil once the queue is closed and drained.
func (s *shard) take(done []Envelope) []Envelope {
	q := &s.q
	clear(done) // the emptied buffer must not pin the folded envelopes' strings
	q.mu.Lock()
	defer q.mu.Unlock()
	s.processed.Add(uint64(len(done)))
	for len(q.pending) == 0 {
		q.settled.Broadcast()
		if q.closed {
			return nil
		}
		q.ready.Wait()
	}
	run := q.pending
	q.pending = done[:0]
	q.settled.Broadcast()
	return run
}

// run is one shard worker: the sole writer of its shard's rollups.
func (ing *Ingestor) run(s *shard) {
	var run []Envelope
	for {
		if run = s.take(run); run == nil {
			return
		}
		ing.foldRun(s, run)
	}
}

// foldRun folds one drained run under one s.mu hold, timing its logged fold
// with one pair of clock reads. A run stops at the envelope whose append
// makes the checkpoint due: the checkpoint is cut there, after the same
// record a worker folding one envelope at a time would cut it after, and
// the rest of the run folds under a new hold.
func (ing *Ingestor) foldRun(s *shard, run []Envelope) {
	for len(run) > 0 {
		s.mu.Lock()
		var began time.Time
		if s.wal != nil {
			began = time.Now()
		}
		n, due := 0, false
		for n < len(run) && !due {
			due = ing.fold(s, run[n], foldLive)
			n++
		}
		if s.wal != nil {
			s.walAppendHist.ObserveDuration(time.Since(began))
		}
		s.mu.Unlock()
		if due {
			// A failed checkpoint costs nothing durable: the WAL holds every
			// record, and a sticky WAL error already shows in Health.
			_ = ing.snapshotShard(s, true)
		}
		run = run[n:]
	}
}

// foldMode distinguishes live ingest from recovery replay: replay must not
// re-log events (they came from the WAL) and defers retention to the end of
// the pass (recover.go) so segment replays see every window.
type foldMode int

const (
	foldLive foldMode = iota
	foldReplay
)

// fold applies one envelope to the shard state: dedup sequenced duplicates,
// log to the WAL (live mode), then fold into the (window, key) sketch. WAL
// append precedes the fold and shares its lock hold, so per-segment record
// order is exactly fold order — the invariant recovery replay relies on. An
// event that opens a window newer than every rollup of its key seals the
// key's previous-newest rollup (seal; replay takes the seal from the WAL
// instead). It reports whether this fold's appends made the shard's
// checkpoint due, read under the same lock hold. Called with s.mu held.
func (ing *Ingestor) fold(s *shard, e Envelope, mode foldMode) (due bool) {
	wk := windowKey{Start: ing.windowStart(e.TS), Key: e.Key()}
	if e.Seq > 0 {
		dk := dedupKey{Key: wk.Key, User: e.User}
		t := s.seen[dk]
		if t == nil {
			t = &seqTracker{}
			s.seen[dk] = t
		}
		dup, compacted := t.seen(e.Seq)
		if compacted {
			s.compactions.Inc()
		}
		if dup {
			s.deduped.Inc()
			return false
		}
		// Advance the tracker's retention clock only on folds (duplicates
		// are not WAL-logged; replay must rebuild identical state).
		if wk.Start > t.last {
			t.last = wk.Start
		}
	}
	logged := mode == foldLive && s.wal != nil
	if logged {
		s.wal.append(e, wk.Start)
	}
	ks, i, found := s.lookup(wk.Key, wk.Start)
	newStart := false
	if !found {
		ks, newStart = s.insert(ks, wk.Key, i, wk.Start, stats.NewSketch(ing.cfg.Compression))
		if wk.Start > s.newest {
			s.rollover(wk.Start)
		}
		if mode == foldLive && i > 0 && i == len(ks.wins)-1 && s.seal(ks, i-1) && logged {
			prev := ks.wins[i-1].start
			s.wal.appendCtl(prev, walCtl{Ctl: ctlSeal, Metric: wk.Metric, Region: wk.Region, Net: wk.Net})
		}
	}
	if logged {
		due = s.wal.checkpointDue(ing.cfg.WAL.SnapshotEvery)
	}
	w := &ks.wins[i]
	// Add cannot fail here: Offer validated the envelope, and a finite
	// value is the only thing the sketch requires.
	if w.sk.Add(e.Value) == nil {
		ks.count++
	}
	s.touch(w)
	// Retention runs last: it may delete this very window (a late event
	// past the horizon), which moves ks.wins under w.
	if newStart && mode == foldLive {
		ing.enforceRetention(s)
	}
	return due
}

// lookup returns key's series (nil when the shard holds none of its
// rollups) and the index of its window at start in it — where the window
// is, or where it would be inserted — and whether it is there. The newest
// window, where an in-order stream lands, is checked before any search.
// Called with s.mu held.
func (s *shard) lookup(key Key, start int64) (ks *keySeries, i int, found bool) {
	ks = s.keys[key]
	if ks == nil {
		return nil, 0, false
	}
	if n := len(ks.wins); ks.wins[n-1].start == start {
		return ks, n - 1, true
	}
	i, found = ks.find(start)
	return ks, i, found
}

// insert places sk as key's rollup of the window at start, at index i of
// ks.wins as lookup returned it (ks nil: the key's first rollup), and
// counts it. It returns the key's series and whether start is a window the
// shard held no rollup of. The caller stamps the new rollup (touch) once it
// has written it, and then enforces retention. Called with s.mu held.
func (s *shard) insert(ks *keySeries, key Key, i int, start int64, sk *stats.Sketch) (*keySeries, bool) {
	if ks == nil {
		ks = &keySeries{key: key}
		s.keys[key] = ks
	}
	ks.wins = slices.Insert(ks.wins, i, keyWindow{start: start, sk: sk})
	ks.count += sk.Count()
	s.starts[start]++
	return ks, s.starts[start] == 1
}

// rollover marks start, newer than every window the shard folded into
// before, as the newest and trims the rollups of the windows behind it to
// their exact size (stats.Sketch.Trim): a closed window gains nothing from
// room to buffer more points. A key that keeps advancing has its closed
// rollups sealed (seal) already; this trim is for the keys that stop. Each
// key's walk runs from its newest window back to the window that was newest
// one rollover ago, because a late event may have regrown a rollup the last
// rollover trimmed; the Trim of a rollup within 64 B of its exact size — an
// exact one, or a sparse one of a few points — allocates nothing. A trim writes no content, so no rollup is
// stamped and no memoised fold goes stale. Called with s.mu held.
func (s *shard) rollover(start int64) {
	for _, ks := range s.keys {
		for j := len(ks.wins) - 1; j >= 0 && ks.wins[j].start >= s.prior; j-- {
			if ks.wins[j].start < start {
				ks.wins[j].sk.Trim()
			}
		}
	}
	s.prior, s.newest = s.newest, start
}

// seal compacts rollup j of ks, closed because its key has just folded its
// first event of a newer window: the sketch flushes once it buffers δ or
// more points, and is trimmed (stats.Sketch.Seal). Every fold reads a rollup
// in its flushed form, so a seal writes no content: nothing is stamped and
// no memoised fold goes stale. It reports whether the sketch flushed. The
// live fold logs such a seal to the rollup's own window segment, at its
// place among that window's records, and replay applies it there
// (applyCtl): recovery visits segments one window at a time, so a late event
// the live shard folded into the flushed form is replayed into the flushed
// form too. Called with s.mu held.
func (s *shard) seal(ks *keySeries, j int) bool {
	if !ks.wins[j].sk.Seal() {
		return false
	}
	s.sealed.Inc()
	return true
}

// remove deletes rollup i of ks: its events leave the key's count, its
// window's tally drops, the memoised folds it was part of are forgotten,
// and a key left with no rollup leaves the index. Called with s.mu held.
func (s *shard) remove(ks *keySeries, i int) {
	w := ks.wins[i]
	ks.wins = slices.Delete(ks.wins, i, i+1)
	ks.count -= w.sk.Count()
	ks.memo.forget(w.start)
	s.forgot++
	if s.starts[w.start]--; s.starts[w.start] == 0 {
		delete(s.starts, w.start)
	}
	if len(ks.wins) == 0 {
		delete(s.keys, ks.key)
	}
}

// load inserts decoded snapshot rollups, each stamped as a write;
// decodeSnapshot admits each (window, key) once. Called with s.mu held, or
// before the shard is shared.
func (s *shard) load(rollups []snapRollup) {
	for _, r := range rollups {
		ks, i, _ := s.lookup(r.Key, r.Start)
		ks, _ = s.insert(ks, r.Key, i, r.Start, r.sk)
		s.touch(&ks.wins[i])
	}
}

// rollups counts the shard's (window, key) rollups and the bytes their
// sketches' point lists hold (stats.Sketch.Footprint). Called with s.mu
// held.
func (s *shard) rollups() (n, bytes int) {
	for _, ks := range s.keys {
		n += len(ks.wins)
		for _, w := range ks.wins {
			bytes += w.sk.Footprint()
		}
	}
	return n, bytes
}

// enforceRetention evicts whole oldest time windows while the shard holds
// more distinct window starts than MaxWindows, unlinking their WAL segments
// with them. Called with s.mu held, only when a new *start* appears (not
// per rollup entry or event), so the eviction is paid once per window
// rollover: the oldest start is every holding key's first window, so each
// eviction looks at each key once. A late event older than the retention
// horizon opens a window that is immediately the eviction victim — its data
// is discarded, the standard retention trade.
func (ing *Ingestor) enforceRetention(s *shard) {
	for ing.cfg.MaxWindows > 0 && len(s.starts) > ing.cfg.MaxWindows {
		oldest := int64(math.MaxInt64)
		for start := range s.starts {
			oldest = min(oldest, start)
		}
		for _, ks := range s.keys {
			if ks.wins[0].start == oldest {
				s.remove(ks, 0)
			}
		}
		s.evictedWindow(oldest)
	}
}

// evictedWindow finishes evicting the window at start once its rollups are
// gone. Called with s.mu held.
func (s *shard) evictedWindow(start int64) {
	s.ageTrackers(start)
	if s.wal != nil {
		s.wal.dropSegment(start)
	}
	s.evicted.Inc()
}

// ageTrackers ages out the dedup trackers whose streams went idle at or
// before the evicted window at start: their folds all landed in discarded
// windows, so keeping their receive state would grow s.seen (and every
// snapshot) without bound on a long-running daemon. A stream outliving the
// retention horizon restarts with a fresh tracker — its dedup memory is
// scoped to the data the pipeline still holds. Called with s.mu held.
func (s *shard) ageTrackers(start int64) {
	for dk, t := range s.seen {
		if t.last <= start {
			delete(s.seen, dk)
		}
	}
}

// Offer submits one envelope: OfferAll of a one-element batch. It returns
// false when the shard queue is hard full and the ingestor is not configured
// to Block — counted in the shard's Dropped — when the envelope's partition
// is frozen, or when the ingestor is closed. Invalid envelopes are rejected
// (false) without reaching a queue; use Validate/DecodeLine upstream to
// distinguish.
func (ing *Ingestor) Offer(e Envelope) bool {
	one := [1]Envelope{e}
	return ing.OfferAll(one[:]) == 1
}

// offerStackLen and offerChunk size the stack buffer OfferAll assigns
// shards in: a batch of up to offerStackLen envelopes (an Offer) uses a
// small one, a longer batch is assigned offerChunk envelopes at a time, so a
// request of up to offerChunk envelopes takes each shard's queue lock once.
const (
	offerStackLen = 16
	offerChunk    = 512
)

// OfferAll submits a batch and returns how many envelopes were accepted.
// Each envelope is validated and checked against the partition freeze on
// its own, exactly as Offer would; the accepted ones are grouped by shard,
// keeping their order, and each shard's share is appended to its queue
// under one lock. Without Block, each envelope that finds its queue full is
// dropped and counted in that shard's Dropped; with Block the share waits
// for room.
func (ing *Ingestor) OfferAll(events []Envelope) int {
	if len(events) <= offerStackLen {
		var shardOf [offerStackLen]int32
		return ing.offer(events, shardOf[:len(events)])
	}
	var shardOf [offerChunk]int32
	accepted := 0
	for len(events) > 0 {
		n := min(len(events), offerChunk)
		accepted += ing.offer(events[:n], shardOf[:n])
		events = events[n:]
	}
	return accepted
}

// offer is OfferAll with the buffer it assigns shards in, one entry per
// envelope: shardOf[j] is envelope j's shard, or -1 once it is refused or
// enqueued.
func (ing *Ingestor) offer(events []Envelope, shardOf []int32) int {
	for j, e := range events {
		shardOf[j] = -1
		if e.Validate() == nil {
			shardOf[j] = int32(e.Key().ShardOf(len(ing.shards)))
		}
	}
	ing.offerMu.RLock()
	defer ing.offerMu.RUnlock()
	if ing.closed {
		return 0
	}
	if len(ing.frozen) > 0 {
		for j, e := range events {
			if shardOf[j] >= 0 && ing.frozenFor(e) {
				shardOf[j] = -1
			}
		}
	}
	accepted := 0
	for lo := 0; lo < len(events); lo++ {
		if si := shardOf[lo]; si >= 0 {
			accepted += ing.enqueue(ing.shards[si], si, events[lo:], shardOf[lo:])
		}
	}
	return accepted
}

// enqueue appends shard s's share of a batch — the envelopes whose shardOf
// entry is si, in order — to its queue under one lock, marking each -1, and
// returns how many it accepted. The worker is woken after the lock is
// released, so it does not wake only to wait for it; a Block wait wakes it
// first. Called with offerMu read-held.
func (ing *Ingestor) enqueue(s *shard, si int32, events []Envelope, shardOf []int32) int {
	q := &s.q
	q.mu.Lock()
	accepted, uncounted, dropped := 0, 0, 0
	wake := false // envelopes arrived in an empty queue since the worker was last woken
	for j := range events {
		if shardOf[j] != si {
			continue
		}
		shardOf[j] = -1
		if len(q.pending) >= q.limit {
			if !ing.cfg.Block {
				dropped++
				continue
			}
			// Count what is queued before waiting: the worker may fold it
			// meanwhile, and processed must never pass accepted.
			s.accepted.Add(uint64(uncounted))
			uncounted = 0
			if wake {
				q.ready.Signal()
				wake = false
			}
			for len(q.pending) >= q.limit {
				q.settled.Wait()
			}
		}
		if len(q.pending) == cap(q.pending) {
			// Double, but never past the bound: a queue's buffers grow to
			// what its load needs, and no further than QueueLen.
			grown := make([]Envelope, len(q.pending), min(max(2*len(q.pending), 16), q.limit))
			copy(grown, q.pending)
			q.pending = grown
		}
		wake = wake || len(q.pending) == 0
		q.pending = append(q.pending, events[j])
		accepted++
		uncounted++
	}
	s.accepted.Add(uint64(uncounted))
	q.mu.Unlock()
	s.dropped.Add(uint64(dropped))
	if wake {
		q.ready.Signal()
	}
	return accepted
}

// Flush blocks until every envelope accepted before the call has been folded
// into a rollup: it waits on each shard queue's settled condition until the
// shard's processed count has caught up with its accepted count. It does not
// stop the workers; producers may keep offering afterwards. Flush only
// settles if producers pause — it is a barrier for batch-style use (replay,
// tests, HTTP ingest handlers), not a fence against concurrent writers.
func (ing *Ingestor) Flush() {
	for _, s := range ing.shards {
		s.q.mu.Lock()
		for s.processed.Value() < s.accepted.Value() {
			s.q.settled.Wait()
		}
		s.q.mu.Unlock()
	}
}

// SyncWAL flushes and fsyncs every shard's WAL, advancing the durability
// floor to everything folded so far. A no-op (nil) without durability.
func (ing *Ingestor) SyncWAL() error {
	var first error
	for _, s := range ing.shards {
		if s.wal == nil {
			continue
		}
		s.mu.Lock()
		err := s.wal.sync()
		s.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshotShard checkpoints one shard: the WAL is fsynced and the state
// streamed into the temp file under the shard lock (one consistent cut of
// sketches, dedup trackers and WAL positions), then fsynced and atomically
// renamed outside it; snapMu serialises concurrent checkpointers on the
// shared tmp path.
// With ifDue it is the cadence's checkpoint and does nothing unless the
// trigger still holds once it has the locks — the worker and a handoff
// writer may both have seen it fire, and the first one's cut answers both.
// Snapshot, Close and recovery checkpoint unconditionally.
func (ing *Ingestor) snapshotShard(s *shard, ifDue bool) error {
	began := time.Now()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	if ifDue && !s.wal.checkpointDue(ing.cfg.WAL.SnapshotEvery) {
		s.mu.Unlock()
		return nil
	}
	// A snapshot may only describe fsynced state: its applied counts promise
	// that many records are on disk, and recovery skips exactly that many.
	// Encoding buffered-but-unsynced appends would, across two crashes,
	// make replay skip past records that ARE durable — silent loss. So sync
	// first, and fail the checkpoint if the WAL cannot.
	if err := s.wal.sync(); err != nil {
		s.mu.Unlock()
		return err
	}
	ckpt := beginAtomic(s.wal.fs, filepath.Join(s.wal.dir, snapshotFile))
	ing.cutCheckpoint(s, ckpt.w)
	s.mu.Unlock()
	err := ckpt.finish()
	if err == nil {
		s.mu.Lock()
		s.wal.wroteSnapshot()
		s.mu.Unlock()
		s.snapshotHist.ObserveDuration(time.Since(began))
	}
	return err
}

// cutCheckpoint streams the shard's state to w, sealed, and restarts the
// cadence's accounting from the cut: nothing logged since, and this
// checkpoint's length as the weight the next checkpoint's WAL must reach.
// The counters restart at the cut, not at the rename, so a checkpoint whose
// write fails is retried a floor later rather than on every event. Called
// with s.mu held and the WAL synced (or, in recovery, not yet appended to).
func (ing *Ingestor) cutCheckpoint(s *shard, w *snapWriter) {
	writeSnapshot(w, s, ing.cfg)
	n, crc := w.seal()
	s.wal.sinceRecords, s.wal.sinceBytes, s.wal.snapBytes = 0, 0, uint64(n)
	s.wal.cutSnapshot(crc)
}

// checkpointDueShards is the cadence check for writers other than the shard
// workers (AbsorbPages, DropPartition): their control records count toward
// the trigger like any record, so they evaluate it before returning — a node
// that absorbs a partition and then sees little traffic must not replay the
// whole absorb on every restart. Called after the WAL fsync that makes the
// operation durable, so a failed checkpoint loses nothing and is not the
// caller's error.
func (ing *Ingestor) checkpointDueShards() {
	for _, s := range ing.shards {
		if s.wal != nil {
			_ = ing.snapshotShard(s, true)
		}
	}
}

// Snapshot checkpoints every shard now (Close does this automatically).
func (ing *Ingestor) Snapshot() error {
	var first error
	for _, s := range ing.shards {
		if s.wal == nil {
			continue
		}
		if err := ing.snapshotShard(s, false); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close is idempotent: the first call drains the queues, stops and waits
// for the workers, then — with durability on — fsyncs every WAL and writes
// a final snapshot, so a clean shutdown loses nothing and restarts
// instantly from the checkpoint. Offers during and after Close return
// false; queries keep answering over the final state. Later calls return
// the first call's error.
func (ing *Ingestor) Close() error {
	ing.closeOnce.Do(func() {
		ing.stopWorkers()
		for _, s := range ing.shards {
			if s.wal == nil {
				continue
			}
			if err := ing.snapshotShard(s, false); err != nil && ing.closeErr == nil {
				ing.closeErr = err
			}
			s.mu.Lock()
			if err := s.wal.closeFiles(); err != nil && ing.closeErr == nil {
				ing.closeErr = err
			}
			s.mu.Unlock()
		}
	})
	return ing.closeErr
}

// Crash is the test double for SIGKILL: it stops the workers and closes the
// WAL file handles without flushing buffered writes, final fsync or a
// snapshot, so the on-disk state is exactly what the durability contract
// promises after a hard crash — everything up to the last fsync, plus
// whatever later bytes the OS already had (possibly ending in a torn line).
// Exported for chaos harnesses (the cluster tests hard-kill member nodes
// through it); production shutdown is Close.
func (ing *Ingestor) Crash() {
	ing.closeOnce.Do(func() {
		ing.stopWorkers()
		for _, s := range ing.shards {
			if s.wal != nil {
				s.wal.abort()
			}
			s.mu.Lock()
			s.forgetAll()
			s.mu.Unlock()
		}
	})
}

// stopWorkers refuses further offers, closes the shard queues and waits for
// the workers to fold what the queues held — the shared first half of Close
// and Crash.
func (ing *Ingestor) stopWorkers() {
	ing.offerMu.Lock()
	ing.closed = true
	for _, s := range ing.shards {
		s.q.close()
	}
	ing.offerMu.Unlock()
	ing.wg.Wait()
}

// Stats snapshots per-shard accounting, shard index order.
func (ing *Ingestor) Stats() []ShardStats {
	out := make([]ShardStats, len(ing.shards))
	for i, s := range ing.shards {
		queued := s.q.len()
		s.mu.Lock()
		wins := len(s.starts)
		rollups, rollupBytes := s.rollups()
		var walAppended, walLag, snapBytes, sinceBytes uint64
		var walErr string
		if s.wal != nil {
			walAppended, walLag = s.wal.appended, s.wal.lag()
			snapBytes, sinceBytes = s.wal.snapBytes, s.wal.sinceBytes
			if s.wal.err != nil {
				walErr = s.wal.err.Error()
			}
		}
		s.mu.Unlock()
		out[i] = ShardStats{
			Accepted:         s.accepted.Value(),
			Dropped:          s.dropped.Value(),
			Processed:        s.processed.Value(),
			Deduped:          s.deduped.Value(),
			DedupCompactions: s.compactions.Value(),
			EvictedWindows:   s.evicted.Value(),
			Queued:           queued,
			Windows:          wins,
			Rollups:          rollups,
			RollupBytes:      rollupBytes,
			WALAppended:      walAppended,
			WALLag:           walLag,
			WALError:         walErr,

			SnapshotBytes:         snapBytes,
			WALBytesSinceSnapshot: sinceBytes,
		}
	}
	return out
}

// TotalStats folds Stats into one aggregate.
func (ing *Ingestor) TotalStats() ShardStats {
	var t ShardStats
	for _, s := range ing.Stats() {
		t.Accepted += s.Accepted
		t.Dropped += s.Dropped
		t.Processed += s.Processed
		t.Deduped += s.Deduped
		t.DedupCompactions += s.DedupCompactions
		t.EvictedWindows += s.EvictedWindows
		t.Queued += s.Queued
		t.Windows += s.Windows
		t.Rollups += s.Rollups
		t.RollupBytes += s.RollupBytes
		t.WALAppended += s.WALAppended
		t.WALLag += s.WALLag
		t.SnapshotBytes += s.SnapshotBytes
		t.WALBytesSinceSnapshot += s.WALBytesSinceSnapshot
	}
	return t
}

// NodeInfo identifies an ingestor's place in a telemetry cluster. It is
// descriptive only — the ingestor never routes by it — but surfacing it
// through Health() makes every /healthz answer self-describing.
type NodeInfo struct {
	// Role is "single", "node" or "frontend" (cmd/telemetryd's -role).
	Role string `json:"role"`
	// ID is the node's cluster-wide id (cmd/telemetryd's -node-id).
	ID string `json:"id,omitempty"`
	// Partitions lists the partition indexes this node owns, ascending.
	Partitions []int `json:"partitions,omitempty"`
}

// HealthState is the pipeline's liveness/degradation report, served by
// cmd/telemetryd's /healthz.
type HealthState struct {
	// Status is "ok", or "degraded" when any shard has lost durability (a
	// sticky WAL error) or sits at a hard-full queue.
	Status string `json:"status"`
	// Reasons names each degradation, per shard.
	Reasons []string `json:"reasons,omitempty"`
	// Durable reports whether a WAL is configured at all.
	Durable bool `json:"durable"`
	// Node is the cluster identity (Config.Node), nil for a single process.
	Node   *NodeInfo    `json:"node,omitempty"`
	Shards []ShardStats `json:"shards"`
	Total  ShardStats   `json:"total"`
	// Recovery is the startup recovery pass, when durability is on.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

// Health assembles the current HealthState.
func (ing *Ingestor) Health() HealthState {
	h := HealthState{
		Status:   "ok",
		Durable:  ing.cfg.WAL.Dir != "",
		Node:     ing.nodeInfo(),
		Shards:   ing.Stats(),
		Recovery: ing.recovery,
	}
	for i, s := range h.Shards {
		if s.WALError != "" {
			h.Reasons = append(h.Reasons, fmt.Sprintf("shard %d: wal degraded to memory-only: %s", i, s.WALError))
		}
		if s.Queued >= ing.cfg.QueueLen {
			h.Reasons = append(h.Reasons, fmt.Sprintf("shard %d: queue saturated (%d/%d)", i, s.Queued, ing.cfg.QueueLen))
		}
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	h.Total = ing.TotalStats()
	return h
}

// String summarises the ingestor for logs.
func (ing *Ingestor) String() string {
	t := ing.TotalStats()
	return fmt.Sprintf("telemetry: %d shards, window %v: accepted=%d dropped=%d processed=%d windows=%d",
		len(ing.shards), ing.cfg.Window, t.Accepted, t.Dropped, t.Processed, t.Windows)
}
