package billing

import (
	"cmp"
	"slices"

	"edgescope/internal/timeseries"
)

// bwAccum accumulates bandwidth series grouped by a key (site index for NEP,
// region name for the virtual clouds), recycling its backing arrays across
// groups: over a whole walk it allocates one series per distinct key, not
// one per VM.
//
// Keys returns the keys touched since the last Reset in sorted order, so the
// caller's fold over groups is deterministic: map iteration order must never
// decide the floating-point summation order of a bill.
type bwAccum[K cmp.Ordered] struct {
	entries map[K]*timeseries.Series
	used    []K
}

// Reset starts a new group (a new app), keeping every backing array.
func (a *bwAccum[K]) Reset() { a.used = a.used[:0] }

// Add folds bw into the key's series. The first touch of a key in this group
// reuses the key's retained buffer when shapes match (or clones when the key
// is new); later touches accumulate in place.
func (a *bwAccum[K]) Add(key K, bw *timeseries.Series) {
	if a.entries == nil {
		a.entries = map[K]*timeseries.Series{}
	}
	e, ok := a.entries[key]
	if ok && slices.Contains(a.used, key) {
		e.AddInPlace(bw)
		return
	}
	if ok && len(e.Values) == len(bw.Values) {
		e.Start, e.Interval = bw.Start, bw.Interval
		copy(e.Values, bw.Values)
	} else {
		e = bw.Clone()
		a.entries[key] = e
	}
	a.used = append(a.used, key)
}

// Keys returns the keys of the current group in ascending order. The slice
// is owned by the accumulator and valid until the next Add or Reset.
func (a *bwAccum[K]) Keys() []K {
	slices.Sort(a.used)
	return a.used
}

// Get returns the accumulated series for a key of the current group.
func (a *bwAccum[K]) Get(key K) *timeseries.Series { return a.entries[key] }
