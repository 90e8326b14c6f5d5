package telemetry

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
)

// Recovery. Open (and NewIngestor, when Config.WAL.Dir is set) rebuilds
// each shard's rollup state from its snapshot plus the WAL suffix the
// snapshot does not cover, before the shard workers start. Because WAL
// order per segment is fold order and sketch deserialization is exact, a
// recovered ingestor answers every /query byte-for-byte as the crashed
// process would have, for all state up to the last fsync.

// RecoveryStats reports one recovery pass, aggregated over shards.
type RecoveryStats struct {
	// Snapshots counts shards restored from a valid snapshot;
	// SnapshotErrors counts snapshots rejected (corrupt/incompatible) and
	// recovered by full WAL replay instead.
	Snapshots      int `json:"snapshots"`
	SnapshotErrors int `json:"snapshot_errors,omitempty"`
	// SegmentsScanned / RecordsReplayed / RecordsSkipped count WAL work:
	// skipped records were already folded into a snapshot.
	SegmentsScanned int    `json:"segments_scanned"`
	RecordsReplayed uint64 `json:"records_replayed"`
	RecordsSkipped  uint64 `json:"records_skipped"`
	// TornTails counts segments that ended in a truncated (torn) write and
	// were trimmed back to their last durable record.
	TornTails int `json:"torn_tails,omitempty"`
	// Windows is the rollup count after recovery (and after retention).
	Windows int `json:"windows"`
	// DurationMs is the wall time of the whole recovery pass.
	DurationMs int64 `json:"duration_ms"`
}

// shardDir names one shard's data directory under the WAL root. The shard
// count is part of the layout: recovering with a different Shards value
// would scatter keys to the wrong logs, so Open refuses a mismatched
// snapshot rather than mixing placements.
func shardDir(root string, shard int) string {
	return filepath.Join(root, "shard-"+strconv.Itoa(shard))
}

// recoverShard rebuilds one shard from its directory (s.wal must already be
// open on it). Seeds s.wal.records with what each segment holds so future
// snapshots record correct applied counts and appends continue in place.
func (ing *Ingestor) recoverShard(s *shard, st *RecoveryStats) error {
	fs, dir := s.wal.fs, s.wal.dir
	snap, err := loadSnapshot(fs, dir)
	if err != nil {
		// A corrupt snapshot is recoverable: the WAL retains every record
		// of every live window (segments are only unlinked on eviction), so
		// full replay reconstructs the same state the snapshot summarised.
		st.SnapshotErrors++
		snap = nil
	}
	applied := map[int64]uint64{}
	if snap != nil {
		if snap.shards != ing.cfg.Shards || snap.windowMs != ing.cfg.Window.Milliseconds() {
			return fmt.Errorf("telemetry: %s: snapshot is for %d shards / %dms windows, ingestor configured %d / %dms",
				dir, snap.shards, snap.windowMs, ing.cfg.Shards, ing.cfg.Window.Milliseconds())
		}
		s.load(snap.rollups)
		s.seen = snap.seen
		applied = snap.applied
		st.Snapshots++
	}

	starts, err := listSegments(fs, dir)
	if err != nil {
		return err
	}
	for _, start := range starts {
		path := s.wal.segPath(start)
		skip := applied[start]
		replay := func() (uint64, int64, bool, error) {
			// Control records share the per-segment index clock with
			// envelopes, so snapshot applied counts skip both uniformly.
			var idx uint64
			skipped := func() bool {
				if idx++; idx <= skip {
					st.RecordsSkipped++
					return true
				}
				st.RecordsReplayed++
				return false
			}
			return readWALSegment(fs, path, func(e Envelope) {
				if !skipped() {
					s.mu.Lock()
					ing.fold(s, e, foldReplay)
					s.mu.Unlock()
				}
			}, func(c walCtl) {
				if c.Ctl == ctlFresh && skip > 0 && slices.Contains(c.Stale, snap.crc) {
					// This segment replaced the one the snapshot counted:
					// evict the window as the live process did.
					skip = 0
					dropWindowLocked(s, start, 0, 1)
					s.ageTrackers(start)
				}
				if !skipped() {
					ing.applyCtl(s, start, c)
				}
			})
		}
		n, validEnd, torn, err := replay()
		if err == nil && n < skip {
			// The snapshot counts only fsynced records, so it counted an
			// earlier segment of this window, evicted before a late event
			// created this one: its rollups of the window are stale. Every
			// record was skipped (a fresh record would have zeroed skip),
			// so none was folded yet.
			st.RecordsSkipped -= n
			skip = 0
			dropWindowLocked(s, start, 0, 1)
			n, validEnd, torn, err = replay()
		}
		if err != nil {
			return err
		}
		st.SegmentsScanned++
		if torn {
			// Trim the torn write so future appends start on a clean line.
			if err := fs.Truncate(path, validEnd); err != nil {
				return fmt.Errorf("telemetry: wal %s: truncate torn tail: %w", path, err)
			}
			st.TornTails++
		}
		s.wal.records[start] = n
	}

	// Retention is applied once, after every segment is in: replay visits
	// windows in ascending start order, so evicting past the cap here keeps
	// exactly the newest MaxWindows windows — the same set the live path
	// retains for an in-order stream — and unlinks the evicted segments. A
	// window no segment holds came from the snapshot alone, evicted after
	// the cut (a window's segment and its name are durable before its first
	// record): it goes first, as it went live, even when a DropPartition
	// since the cut left the shard under MaxWindows.
	s.mu.Lock()
	for _, start := range slices.Sorted(maps.Keys(s.starts)) {
		if _, ok := slices.BinarySearch(starts, start); !ok {
			dropWindowLocked(s, start, 0, 1) // partition 0 of 1: every key
			s.evictedWindow(start)
		}
	}
	ing.enforceRetention(s)
	s.mu.Unlock()

	// Rewrite the checkpoint so on-disk applied counts describe what
	// recovery actually found — torn tails trimmed, evicted segments gone,
	// any counts a prior-format snapshot over-claimed reset. Without this, a
	// second crash before the next periodic snapshot would replay against
	// the stale snapshot and skip records this generation durably appended
	// below its applied counts. It also seeds the checkpoint cadence: the
	// next worker checkpoint has this one's size to outweigh. Skipped on a
	// pure cold start (nothing to describe yet).
	if snap != nil || len(starts) > 0 {
		ckpt := beginAtomic(fs, filepath.Join(dir, snapshotFile))
		s.mu.Lock()
		ing.cutCheckpoint(s, ckpt.w)
		s.mu.Unlock()
		if err := ckpt.finish(); err != nil {
			return err
		}
	}
	return nil
}
