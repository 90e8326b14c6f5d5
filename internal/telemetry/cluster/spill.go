package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"edgescope/internal/telemetry"
)

// Coordinator-side handoff spills. A partition rebuild is destructive at
// its destination — DropPartition durably deletes whatever the node holds
// before the replacement cut is absorbed — and for a destination that
// already held the partition (a consolidating owner, a promoted replica,
// a catch-up owner) the replacement's only other copy lives in this
// coordinator's memory during that window. When MigratorConfig.SpillDir is
// set, the destination's own pre-handoff cut is persisted here before the
// first drop, and cleared once the staged copy is safe: the epoch
// activated, the catch-up merge became durable, or the restore landed. A
// coordinator that crashes inside the window finds the spill at the next
// boot and RecoverSpills puts the destination back to its pre-handoff
// state — the state consistent with the epoch the cluster resumed at.

// spillRecord is one partition's persisted restore point.
type spillRecord struct {
	// Epoch is the epoch the interrupted transition was migrating TO. A
	// spill found while the map is already at (or past) this epoch is
	// stale — the transition activated, the staged copy is live — and is
	// deleted instead of restored.
	Epoch     uint64
	Partition int
	Of        int
	Dst       string
	// Own is the destination's own pre-handoff page cut; empty when the
	// destination held nothing (a fresh joiner), in which case restoring
	// is just the drop.
	Own []telemetry.SketchPage
}

// A spill file is pages in the one machine form they have everywhere else,
// behind a checksummed header. Layout, all little-endian:
//
//	magic "esspill\x01" | epoch u64 | partition u32 | of u32
//	| dst_len u32 | dst | crc32 (IEEE) of everything before it
//	| page set (telemetry.AppendSketchPages: every page CRC-trailed)
//
// Both checksums are verified before the bytes they cover are acted on, so
// a damaged spill is a named recovery failure, never a restore.
var spillMagic = [8]byte{'e', 's', 's', 'p', 'i', 'l', 'l', 1}

// spillFixedBytes is a spill header up to (not including) dst.
const spillFixedBytes = 8 + 8 + 4 + 4 + 4

func (rec spillRecord) encode() []byte {
	b := append([]byte(nil), spillMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, rec.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(rec.Partition))
	b = binary.LittleEndian.AppendUint32(b, uint32(rec.Of))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.Dst)))
	b = append(b, rec.Dst...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return telemetry.AppendSketchPages(b, rec.Own)
}

func decodeSpill(data []byte) (spillRecord, error) {
	if len(data) < spillFixedBytes+4 || [8]byte(data[:8]) != spillMagic {
		return spillRecord{}, fmt.Errorf("not a spill file (%d bytes, bad magic/version or too short)", len(data))
	}
	end := spillFixedBytes + int(binary.LittleEndian.Uint32(data[spillFixedBytes-4:]))
	if end < spillFixedBytes || end > len(data)-4 {
		return spillRecord{}, fmt.Errorf("spill header: destination id runs past the file")
	}
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return spillRecord{}, fmt.Errorf("spill header: checksum mismatch")
	}
	rec := spillRecord{
		Epoch:     binary.LittleEndian.Uint64(data[8:]),
		Partition: int(binary.LittleEndian.Uint32(data[16:])),
		Of:        int(binary.LittleEndian.Uint32(data[20:])),
		Dst:       string(data[spillFixedBytes:end]),
	}
	var err error
	rec.Own, err = telemetry.DecodeSketchPages(data[end+4:])
	return rec, err
}

// spillPath names one partition's spill file.
func (m *Migrator) spillPath(p int) string {
	return filepath.Join(m.cfg.SpillDir, fmt.Sprintf("spill-p%d.bin", p))
}

// spillEpoch resolves the epoch a spill written right now should record:
// the pending epoch when a migration is in flight, otherwise (catch-up,
// which moves data within an epoch) the first epoch that does not exist
// yet — either way, the smallest epoch whose presence in the map proves
// the spilled rebuild completed.
func (m *Migrator) spillEpoch() uint64 {
	if pend := m.pm.Pending(); pend != nil {
		return pend.Epoch
	}
	return m.pm.Epoch() + 1
}

// writeSpill persists a partition's restore point before its destructive
// rebuild: temp file, fsync, rename — a torn write can only lose the temp.
// A no-op when SpillDir is unset.
func (m *Migrator) writeSpill(pl partPlan, own []telemetry.SketchPage) error {
	if m.cfg.SpillDir == "" {
		return nil
	}
	if err := os.MkdirAll(m.cfg.SpillDir, 0o755); err != nil {
		return err
	}
	rec := spillRecord{
		Epoch:     m.spillEpoch(),
		Partition: pl.p,
		Of:        m.pm.Partitions(),
		Dst:       pl.dst,
		Own:       own,
	}
	return telemetry.WriteFileAtomic(m.spillPath(pl.p), rec.encode())
}

// clearSpill removes a partition's spill once its staged copy is safe.
func (m *Migrator) clearSpill(p int) {
	if m.cfg.SpillDir == "" {
		return
	}
	_ = os.Remove(m.spillPath(p))
}

// RecoverSpills restores the destinations an interrupted coordinator left
// mid-rebuild: for every spill whose transition never activated, the
// destination's copy is dropped and its own pre-handoff cut re-absorbed —
// the state consistent with the epoch the cluster is serving. Stale spills
// (their epoch activated before the crash) are deleted untouched. Returns
// the partitions restored; the error aggregates partitions whose
// destination could not be repaired, their spills kept for a retry.
// Call it at coordinator boot, before serving admin traffic; migrations
// and catch-ups also refuse to start over an unrecoverable spill.
func (m *Migrator) RecoverSpills(ctx context.Context) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoverSpillsList(ctx)
}

// recoverSpills is the callers-hold-m.mu form used by migrate and CatchUp.
func (m *Migrator) recoverSpills(ctx context.Context) error {
	_, err := m.recoverSpillsList(ctx)
	return err
}

func (m *Migrator) recoverSpillsList(ctx context.Context) ([]int, error) {
	if m.cfg.SpillDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(m.cfg.SpillDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var restored []int
	var failures []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "spill-p") || strings.HasSuffix(name, ".tmp") {
			continue // not a spill, or the temp a torn write left behind
		}
		if !strings.HasSuffix(name, ".bin") {
			// e.g. the JSON spill of an older coordinator: a restore point
			// this build cannot read is still a rebuild that never finished.
			failures = append(failures, fmt.Sprintf("%s: not a spill this version writes (a cluster upgrades together)", name))
			continue
		}
		path := filepath.Join(m.cfg.SpillDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		rec, err := decodeSpill(data)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if m.pm.Epoch() >= rec.Epoch {
			// The transition this spill guarded activated: the staged copy
			// is the partition's live truth, the restore point is obsolete.
			_ = os.Remove(path)
			continue
		}
		if rec.Of != m.pm.Partitions() {
			failures = append(failures, fmt.Sprintf("%s: partition split %d does not match map's %d", name, rec.Of, m.pm.Partitions()))
			continue
		}
		pl := partPlan{p: rec.Partition, dst: rec.Dst}
		m.restoreDst(ctx, pl, rec.Own)
		if _, err := os.Stat(m.spillPath(rec.Partition)); err == nil {
			// restoreDst clears the spill only when the repair lands; the
			// file surviving means the destination is still broken.
			failures = append(failures, fmt.Sprintf("partition %d at %q not restored", rec.Partition, rec.Dst))
			continue
		}
		restored = append(restored, rec.Partition)
	}
	sort.Ints(restored)
	if len(failures) > 0 {
		return restored, fmt.Errorf("cluster: spill recovery incomplete: %s", strings.Join(failures, "; "))
	}
	return restored, nil
}
