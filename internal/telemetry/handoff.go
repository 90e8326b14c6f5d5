package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"edgescope/internal/stats"
)

// Sketch-page handoff. A cluster rebalance moves whole partitions between
// nodes by shipping their rollups in exact binary sketch form — the same
// wire format /sketches serves — and folding them into the gaining node's
// state. Three primitives make that loss-free and crash-safe:
//
//   - PartitionPages exports every rollup of one partition (the stable
//     FNV-1a Key hash modulo the cluster's partition count) as SketchPages.
//   - AbsorbPages folds pages into this ingestor. Each absorbed rollup is
//     logged to the WAL first as a control record, so a crashed gaining
//     node recovers absorbed state exactly like enveloped state.
//   - DropPartition deletes one partition's rollups, WAL-logged the same
//     way, which is what makes a retried handoff idempotent: the
//     coordinator drops, then re-absorbs from a fresh source cut.
//
// Control records ride inside the ordinary per-window WAL segments, at
// their fold position, so per-segment replay order stays exactly fold
// order and the recover(snapshot+WAL) == recover(WAL-only) invariant is
// untouched. A rollup absorbed as a page insert is bit-identical to the
// source's sketch state, which is what keeps post-rebalance cluster
// answers byte-identical to a single node's.

// Control record kinds.
const (
	ctlAbsorb = "absorb"
	ctlDrop   = "drop"
	ctlFresh  = "fresh" // heads a segment re-created after retention evicted its window (wal.go openSeg)
	ctlSeal   = "seal"  // a rollup of the segment's window sealed to its flushed form (ingest.go shard.seal)
)

// walCtl is one WAL control record: an absorbed rollup (with its exact
// binary sketch state), a partition drop, a fresh segment's head or a
// rollup's seal. The window start is implied by the segment the record
// lives in.
type walCtl struct {
	Ctl    string `json:"ctl"`
	Metric string `json:"metric,omitempty"`
	Region string `json:"region,omitempty"`
	Net    string `json:"net,omitempty"`
	Sketch []byte `json:"sketch,omitempty"`
	// Partition/Of scope a drop: delete every rollup whose key hashes to
	// Partition under Of partitions.
	Partition int `json:"partition,omitempty"`
	Of        int `json:"of,omitempty"`
	// Stale names, by checksum, the snapshots that count records of the
	// evicted segment a fresh record's segment replaced.
	Stale []uint32 `json:"stale,omitempty"`

	// sk is the decoded Sketch payload, filled by decodeCtl for absorb
	// records so replay never re-parses and corruption fails loudly at read
	// time.
	sk *stats.Sketch
}

// decodeCtl parses and validates one control line. Any structural problem
// is an error — a durable control record that cannot be applied must fail
// recovery loudly, exactly like a corrupt envelope.
func decodeCtl(body []byte) (walCtl, error) {
	var c walCtl
	if err := json.Unmarshal(body, &c); err != nil {
		return walCtl{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	switch c.Ctl {
	case ctlAbsorb:
		if c.Metric == "" {
			return walCtl{}, fmt.Errorf("%w: absorb record without metric", ErrInvalid)
		}
		c.sk = new(stats.Sketch)
		if err := c.sk.UnmarshalBinary(c.Sketch); err != nil {
			return walCtl{}, fmt.Errorf("%w: absorb sketch: %v", ErrInvalid, err)
		}
	case ctlSeal:
		if c.Metric == "" {
			return walCtl{}, fmt.Errorf("%w: seal record without metric", ErrInvalid)
		}
	case ctlDrop:
		if c.Of <= 0 || c.Partition < 0 || c.Partition >= c.Of {
			return walCtl{}, fmt.Errorf("%w: drop record partition %d of %d", ErrInvalid, c.Partition, c.Of)
		}
	case ctlFresh:
	default:
		return walCtl{}, fmt.Errorf("%w: unknown control record %q", ErrInvalid, c.Ctl)
	}
	return c, nil
}

// appendCtl logs one control record to a window's segment — the control
// twin of append, sharing its sticky-error behaviour and, through write, its
// fsync cadence and checkpoint accounting.
func (w *shardWAL) appendCtl(start int64, c walCtl) {
	if w.err != nil {
		return
	}
	seg, err := w.openSeg(start)
	if err != nil {
		w.err = err
		return
	}
	body, err := json.Marshal(c)
	if err != nil {
		w.err = err
		return
	}
	w.line = appendRecord(w.line[:0], recControl, body)
	w.write(seg, start, w.line)
}

// applyCtl replays one control record into a shard — the recovery twin of
// the live absorb/drop paths, applied at the record's exact fold position.
func (ing *Ingestor) applyCtl(s *shard, start int64, c walCtl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.Ctl {
	case ctlAbsorb:
		ing.absorbLocked(s, Key{Metric: c.Metric, Region: c.Region, Net: c.Net}, start, c.sk, foldReplay)
	case ctlDrop:
		dropWindowLocked(s, start, c.Partition, c.Of)
	case ctlSeal:
		if ks, i, found := s.lookup(Key{Metric: c.Metric, Region: c.Region, Net: c.Net}, start); found {
			s.seal(ks, i)
		}
	}
}

// absorbLocked folds one decoded rollup into the shard state: a pure
// insert of sk when the (window, key) is new — bit-identical to the source,
// the property the byte-identity pins need — or a deterministic sketch merge
// when data already accumulated there (dual-written traffic). Called with
// s.mu held.
func (ing *Ingestor) absorbLocked(s *shard, key Key, start int64, sk *stats.Sketch, mode foldMode) {
	ks, i, found := s.lookup(key, start)
	if found {
		w := &ks.wins[i]
		w.sk.Absorb(sk)
		ks.count += sk.Count()
		s.touch(w)
		return
	}
	ks, newStart := s.insert(ks, key, i, start, sk)
	s.touch(&ks.wins[i])
	if newStart && mode == foldLive {
		ing.enforceRetention(s)
	}
}

// dropWindowLocked deletes one window's rollups in one partition — the
// replay of one drop record: a binary search per key of the partition.
// Dedup trackers are kept: their (key, user, seq) memory is harmless across
// a drop (a re-absorbed partition arrives as sketches, not as sequenced
// envelopes), and keeping them means live drops and segment replay agree
// without cross-segment ordering. Called with s.mu held.
func dropWindowLocked(s *shard, start int64, p, of int) {
	for k, ks := range s.keys {
		if k.ShardOf(of) != p {
			continue
		}
		if i, ok := ks.find(start); ok {
			s.remove(ks, i)
		}
	}
}

// inStartOrder visits every element of runs in (start, run) order: each run
// is one key's rollups ascending by window start, and the runs come in key
// order, so this is the canonical order of raw rollups — by window, then by
// Key.Compare — with one cursor per run and no sort.
func inStartOrder[W any](runs [][]W, start func(W) int64, visit func(run int, w W)) {
	for {
		next, more := int64(math.MaxInt64), false
		for _, r := range runs {
			if len(r) > 0 && start(r[0]) <= next {
				next, more = start(r[0]), true
			}
		}
		if !more {
			return
		}
		for i, r := range runs {
			if len(r) > 0 && start(r[0]) == next {
				visit(i, r[0])
				runs[i] = r[1:]
			}
		}
	}
}

// PartitionPages exports every rollup whose key hashes to partition p of
// `of` as pages of raw rollups (WindowSketch.Windows 0) — one page per
// metric, metrics sorted, matches in (start, region, net) order, each sketch
// in its exact live state. Each shard is locked only while its partition
// keys' rollups are encoded, straight into one exactly-sized buffer per
// shard that the matches slice into — the only copy the sketch bytes take
// between the live rollup and the wire. It is what AbsorbPages places on
// the gaining node; a query's pages (MatchSketches) hold sealed per-key
// folds instead and are refused there.
func (ing *Ingestor) PartitionPages(p, of int) ([]SketchPage, error) {
	if of <= 0 || p < 0 || p >= of {
		return nil, fmt.Errorf("telemetry: partition %d of %d", p, of)
	}
	// keyRun is one partition key's rollups as matches, ascending by start.
	type keyRun struct {
		key     Key
		matches []WindowSketch
	}
	var (
		runs   []keyRun
		picked []*keySeries
	)
	for _, s := range ing.shards {
		picked = picked[:0]
		size := 0
		s.mu.Lock()
		for k, ks := range s.keys {
			if k.ShardOf(of) == p {
				picked = append(picked, ks)
				for _, w := range ks.wins {
					size += w.sk.BinarySize()
				}
			}
		}
		chunk := make([]byte, 0, size)
		for _, ks := range picked {
			run := keyRun{key: ks.key, matches: make([]WindowSketch, len(ks.wins))}
			for i, w := range ks.wins {
				at := len(chunk)
				chunk, _ = w.sk.AppendBinary(chunk) // encoding a live sketch cannot fail
				run.matches[i] = WindowSketch{Start: w.start, Region: ks.key.Region, Net: ks.key.Net, Sketch: chunk[at:len(chunk):len(chunk)]}
			}
			runs = append(runs, run)
		}
		s.mu.Unlock()
	}
	slices.SortFunc(runs, func(a, b keyRun) int { return a.key.Compare(b.key) })
	pages := []SketchPage{} // never nil: an empty partition is `[]` on the JSON surface
	for len(runs) > 0 {
		page := SketchPage{
			Metric:      runs[0].key.Metric,
			Compression: ing.cfg.Compression,
			WindowMs:    ing.cfg.Window.Milliseconds(),
		}
		var group [][]WindowSketch
		n := 0
		for ; len(runs) > 0 && runs[0].key.Metric == page.Metric; runs = runs[1:] {
			group = append(group, runs[0].matches)
			n += len(runs[0].matches)
		}
		page.Matches = make([]WindowSketch, 0, n)
		inStartOrder(group, func(m WindowSketch) int64 { return m.Start }, func(_ int, m WindowSketch) {
			page.Matches = append(page.Matches, m)
		})
		pages = append(pages, page)
	}
	return pages, nil
}

// AbsorbAck acknowledges one AbsorbPages call: what was folded, durably,
// before the ack was produced. The handoff coordinator gates epoch
// activation on it.
type AbsorbAck struct {
	// Pages and Rollups count the absorbed input.
	Pages   int `json:"pages"`
	Rollups int `json:"rollups"`
	// Windows counts the distinct window starts touched.
	Windows int `json:"windows"`
	// Count is the total event weight absorbed.
	Count float64 `json:"count"`
}

// AbsorbPages folds exported pages of raw rollups into this ingestor — the
// gaining side of a partition handoff. Every page is validated and decoded
// before anything is folded, so a malformed transfer — or a query's page of
// per-key folds, which cannot be placed in a window — mutates nothing; each rollup
// is WAL-logged (control record, at its fold position) before folding, and
// the WAL is fsynced before the ack returns, so an acked absorb survives a
// crash. Pages must match this ingestor's compression and window length —
// a cluster must be homogeneously configured.
func (ing *Ingestor) AbsorbPages(pages []SketchPage) (AbsorbAck, error) {
	windowMs := ing.cfg.Window.Milliseconds()
	type pending struct {
		wk windowKey
		sk *stats.Sketch
		ws WindowSketch
	}
	var todo []pending
	for i, p := range pages {
		if p.Metric == "" {
			return AbsorbAck{}, fmt.Errorf("telemetry: absorb page %d without metric", i)
		}
		if p.Compression != ing.cfg.Compression || p.WindowMs != windowMs {
			return AbsorbAck{}, fmt.Errorf(
				"telemetry: absorb page %d is compression %v/window %dms, ingestor configured %v/%dms",
				i, p.Compression, p.WindowMs, ing.cfg.Compression, windowMs)
		}
		for _, m := range p.Matches {
			if m.Start%windowMs != 0 {
				return AbsorbAck{}, fmt.Errorf("telemetry: absorb page %d start %d not window-aligned", i, m.Start)
			}
			if m.Windows != 0 {
				return AbsorbAck{}, fmt.Errorf("telemetry: absorb page %d (start=%d %s/%s) is a fold of %d windows, not a raw rollup",
					i, m.Start, m.Region, m.Net, m.Windows)
			}
			sk := new(stats.Sketch)
			if err := sk.UnmarshalBinary(m.Sketch); err != nil {
				return AbsorbAck{}, fmt.Errorf("telemetry: absorb page %d sketch (start=%d %s/%s): %w",
					i, m.Start, m.Region, m.Net, err)
			}
			todo = append(todo, pending{
				wk: windowKey{Start: m.Start, Key: Key{Metric: p.Metric, Region: m.Region, Net: m.Net}},
				sk: sk,
				ws: m,
			})
		}
	}
	ack := AbsorbAck{Pages: len(pages)}
	starts := map[int64]bool{}
	for _, t := range todo {
		s := ing.shards[t.wk.Key.ShardOf(len(ing.shards))]
		s.mu.Lock()
		if s.wal != nil {
			s.wal.appendCtl(t.wk.Start, walCtl{
				Ctl:    ctlAbsorb,
				Metric: t.wk.Metric,
				Region: t.ws.Region,
				Net:    t.ws.Net,
				Sketch: t.ws.Sketch,
			})
		}
		ack.Count += t.sk.Count() // under the lock: once inserted, t.sk is the shard worker's to write
		ing.absorbLocked(s, t.wk.Key, t.wk.Start, t.sk, foldLive)
		s.mu.Unlock()
		ack.Rollups++
		starts[t.wk.Start] = true
	}
	ack.Windows = len(starts)
	if err := ing.SyncWAL(); err != nil {
		return ack, fmt.Errorf("telemetry: absorb fsync: %w", err)
	}
	ing.checkpointDueShards()
	return ack, nil
}

// DropPartition deletes every rollup whose key hashes to partition p of
// `of`, WAL-logging a drop control record into each affected window's
// segment first (and fsyncing before returning), so recovery replays the
// drop at its exact position. Dedup trackers survive — see
// dropWindowLocked. Each shard deletes its partition keys' series whole, so
// the cost is the partition's rollups, not the shard's per affected window.
// Returns the number of rollups dropped.
func (ing *Ingestor) DropPartition(p, of int) (int, error) {
	if of <= 0 || p < 0 || p >= of {
		return 0, fmt.Errorf("telemetry: partition %d of %d", p, of)
	}
	dropped := 0
	var (
		victims []*keySeries
		starts  []int64
	)
	for _, s := range ing.shards {
		victims, starts = victims[:0], starts[:0]
		s.mu.Lock()
		for k, ks := range s.keys {
			if k.ShardOf(of) == p {
				victims = append(victims, ks)
				for _, w := range ks.wins {
					starts = append(starts, w.start)
				}
			}
		}
		if s.wal != nil {
			slices.Sort(starts)
			for _, start := range slices.Compact(starts) {
				s.wal.appendCtl(start, walCtl{Ctl: ctlDrop, Partition: p, Of: of})
			}
		}
		for _, ks := range victims {
			dropped += len(ks.wins)
			for len(ks.wins) > 0 {
				s.remove(ks, len(ks.wins)-1)
			}
		}
		s.mu.Unlock()
	}
	if err := ing.SyncWAL(); err != nil {
		return dropped, fmt.Errorf("telemetry: drop fsync: %w", err)
	}
	ing.checkpointDueShards()
	return dropped, nil
}

// FreezePartition makes the ingestor refuse envelopes whose key hashes to
// partition p of `of` — the source side of a handoff's exact cut. The
// freeze is installed under the same writer lock Offer holds across its
// enqueue, so when FreezePartition returns, every already-accepted
// envelope is countable by Flush and every later Offer of the partition
// returns false (the routing client's bounded backoff absorbs the pause).
// That ordering is what guarantees an acked envelope is either in the
// flushed page cut or retried into the dual-write phase — never lost
// between them. Only one partition split may be frozen at a time.
func (ing *Ingestor) FreezePartition(p, of int) error {
	if of <= 0 || p < 0 || p >= of {
		return fmt.Errorf("telemetry: partition %d of %d", p, of)
	}
	ing.offerMu.Lock()
	defer ing.offerMu.Unlock()
	if len(ing.frozen) > 0 && ing.frozenOf != of {
		return fmt.Errorf("telemetry: freeze split %d conflicts with active split %d", of, ing.frozenOf)
	}
	if ing.frozen == nil {
		ing.frozen = map[int]bool{}
	}
	ing.frozenOf = of
	ing.frozen[p] = true
	return nil
}

// UnfreezePartition lifts a partition freeze (idempotent).
func (ing *Ingestor) UnfreezePartition(p, of int) {
	ing.offerMu.Lock()
	defer ing.offerMu.Unlock()
	if ing.frozenOf == of {
		delete(ing.frozen, p)
	}
}

// frozenFor reports whether an envelope's partition is frozen. Called with
// offerMu read-held (Offer's existing hold spans the check and the
// enqueue, which is what makes the freeze an exact cut).
func (ing *Ingestor) frozenFor(e Envelope) bool {
	if len(ing.frozen) == 0 {
		return false
	}
	return ing.frozen[e.Key().ShardOf(ing.frozenOf)]
}

// SetNodeInfo replaces the ingestor's cluster identity (Config.Node) —
// called when an epoch activation reassigns this node's partitions, so
// /healthz keeps describing the live layout without a restart.
func (ing *Ingestor) SetNodeInfo(info *NodeInfo) {
	ing.nodeMu.Lock()
	ing.node = info
	ing.nodeMu.Unlock()
}

// nodeInfo returns the current cluster identity.
func (ing *Ingestor) nodeInfo() *NodeInfo {
	ing.nodeMu.Lock()
	defer ing.nodeMu.Unlock()
	return ing.node
}
