package telemetry

// The fold memo. A query's per-key fold (foldKeys) is a pure function of the
// key's picked rollups, so each key's series keeps the sealed folds of the
// last few ranges the key was queried over and returns the stored bytes while
// those rollups are unchanged. Unchanged is decided without comparing any
// sketch: every rollup carries the shard clock value of its last write
// (touch), and an entry records how many rollups it folded and the clock when
// they were scanned. An entry answers a later scan iff that scan picks the
// same number of rollups and none of them is stamped past the entry's clock —
// a mutated rollup and a new one are stamped past it, a deleted one lowers
// the count, and a deletion plus a creation still brings a fresh stamp. A hit
// therefore returns exactly the bytes a fresh fold would produce.
//
// The memo lives under the shard lock, in the key's series beside its
// rollups, and is written only by queries and by the paths that delete
// rollups: ingest pays one integer store per event (the stamp), never a memo
// write.

// memoRanges caps the memoised ranges per key: a dashboard's `wide` and
// `narrow` ranges with room to spare. The least recently used range makes
// way for a new one.
const memoRanges = 4

// foldMemo is one memoised fold of a key's rollups over the window range
// [fromMs, toMs).
type foldMemo struct {
	fromMs, toMs int64
	n            int    // rollups folded; 0 marks an empty slot
	clock        uint64 // shard clock when those rollups were scanned
	start        int64  // the earliest folded rollup's window start
	enc          []byte // the sealed fold's exact encoding, shared read-only with every page that returns it
}

// keyMemo holds one key's memoised folds, most recently used first.
type keyMemo [memoRanges]foldMemo

// touch records a write to rollup w: the shard clock ticks and stamps it.
// Called with s.mu held at every site that creates or mutates a rollup.
func (s *shard) touch(w *keyWindow) {
	s.clock++
	w.stamp = s.clock
}

// get returns the memoised fold of [fromMs, toMs) if it is still the fold
// of the n rollups just scanned, the newest of them stamped `stamp`.
func (m *keyMemo) get(fromMs, toMs int64, n int, stamp uint64) (foldMemo, bool) {
	for i, e := range m {
		if e.n == 0 || e.fromMs != fromMs || e.toMs != toMs {
			continue
		}
		if e.n != n || e.clock < stamp {
			return foldMemo{}, false
		}
		copy(m[1:i+1], m[:i])
		m[0] = e
		return e, true
	}
	return foldMemo{}, false
}

// put memoises e, replacing an older fold of the same range, else an empty
// slot, else the least recently used one. A fold of the same range scanned
// at a later clock is kept: a query racing another must not roll it back.
func (m *keyMemo) put(e foldMemo) {
	i := len(m) - 1
	for j := range m {
		if m[j].n > 0 && m[j].fromMs == e.fromMs && m[j].toMs == e.toMs {
			if m[j].clock > e.clock {
				return
			}
			i = j
			break
		}
		if m[j].n == 0 && i == len(m)-1 {
			i = j
		}
	}
	copy(m[1:i+1], m[:i])
	m[0] = e
}

// forget drops the memoised folds whose range covers the window starting at
// start — the folds a deleted rollup of that window was part of.
func (m *keyMemo) forget(start int64) {
	for i := range m {
		if m[i].n > 0 && m[i].fromMs <= start && start < m[i].toMs {
			m[i] = foldMemo{}
		}
	}
}

// forgetAll empties every key's memo. Called with s.mu held.
func (s *shard) forgetAll() {
	s.forgot++
	for _, ks := range s.keys {
		ks.memo = keyMemo{}
	}
}
