package telemetry

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"edgescope/internal/stats"
)

// QuerySpec selects rollups and the statistics to compute over them.
// Metric is required; empty Region/Net match every value of that dimension.
// The range [From, To) is evaluated at window granularity: every rollup
// window overlapping it is merged whole (From aligns down to its window's
// start, To up to the next boundary), because events inside a window are
// already folded into one sketch and cannot be split. Zero bounds are open.
type QuerySpec struct {
	Metric string    `json:"metric"`
	Region string    `json:"region,omitempty"`
	Net    string    `json:"net,omitempty"`
	From   time.Time `json:"from,omitempty"`
	To     time.Time `json:"to,omitempty"`

	// Quantiles to evaluate, each in [0,1]. Defaults to p50/p95/p99.
	Quantiles []float64 `json:"quantiles,omitempty"`
	// CDFAt lists values at which to evaluate the empirical CDF estimate.
	CDFAt []float64 `json:"cdf_at,omitempty"`
}

// QuantileEstimate is one quantile answer with the sketch's documented
// worst-case rank error at that point (stats.Sketch.RankErrorBound).
type QuantileEstimate struct {
	Q         float64 `json:"q"`
	Value     float64 `json:"value"`
	RankError float64 `json:"rank_error"`
}

// CDFEstimate is one CDF evaluation.
type CDFEstimate struct {
	X float64 `json:"x"`
	P float64 `json:"p"`
}

// QueryResult is the merged answer over every rollup the spec matched.
type QueryResult struct {
	Count     float64            `json:"count"`
	Windows   int                `json:"windows"` // rollups merged
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	Quantiles []QuantileEstimate `json:"quantiles"`
	CDF       []CDFEstimate      `json:"cdf,omitempty"`
}

// DefaultQuantiles are evaluated when a spec names none.
var DefaultQuantiles = []float64{0.5, 0.95, 0.99}

// checkedQuantiles validates the spec's quantiles, substituting
// DefaultQuantiles for an empty list — one shared gate so the single-node
// query and the cluster front-end reject exactly the same specs.
func checkedQuantiles(spec QuerySpec) ([]float64, error) {
	qs := spec.Quantiles
	if len(qs) == 0 {
		qs = DefaultQuantiles
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			return nil, fmt.Errorf("telemetry: quantile %v outside [0,1]", q)
		}
	}
	return qs, nil
}

// ValidateQuerySpec applies the validation every query path shares —
// metric required, quantiles in [0,1] — without touching any rollup state.
// The cluster front-end runs it before fanning a spec out, so a bad spec
// fails fast at the front door with the same error a node would return,
// instead of being mistaken for an unreachable cluster.
func ValidateQuerySpec(spec QuerySpec) error {
	if spec.Metric == "" {
		return fmt.Errorf("telemetry: query needs a metric")
	}
	_, err := checkedQuantiles(spec)
	return err
}

// Compare orders keys by (metric, region, net) — Keys' listing order, and
// the order every query merges its per-key folds in. Every consumer that
// orders or merges folds MUST use this order: with foldKeys it is what makes
// single-node answers, recovered-node answers and the cluster front-end's
// scatter-gather merge byte-identical. Raw rollups have their own canonical
// order, (metric, start, region, net) for a handoff's pages and (start,
// metric, region, net) in a snapshot: inStartOrder walks them by start with
// this order breaking ties.
func (a Key) Compare(b Key) int {
	if c := strings.Compare(a.Metric, b.Metric); c != 0 {
		return c
	}
	if c := strings.Compare(a.Region, b.Region); c != 0 {
		return c
	}
	return strings.Compare(a.Net, b.Net)
}

// windowRange validates a spec's selection and returns the window range
// [fromMs, toMs) its bounds pick rollups from — the range the fold memo is
// keyed on. The bounds are aligned to whole windows: a window is selected
// iff it overlaps [From, To), matching the spec's documented granularity.
func (ing *Ingestor) windowRange(spec QuerySpec) (fromMs, toMs int64, err error) {
	if spec.Metric == "" {
		return 0, 0, fmt.Errorf("telemetry: query needs a metric")
	}
	if !spec.From.IsZero() {
		fromMs = ing.windowStart(spec.From.UnixMilli())
	}
	if spec.To.IsZero() {
		toMs = int64(1) << 62
	} else {
		w := ing.cfg.Window.Milliseconds()
		toMs = ing.windowStart(spec.To.UnixMilli()-1) + w
	}
	return fromMs, toMs, nil
}

// selects reports whether the spec's dimensions pick key k: the metric, and
// the region and net unless left empty.
func (spec *QuerySpec) selects(k Key) bool {
	return k.Metric == spec.Metric &&
		(spec.Region == "" || k.Region == spec.Region) &&
		(spec.Net == "" || k.Net == spec.Net)
}

// foldRun is one picked rollup copied out of its shard: which of the shard's
// missed keys it belongs to, its window, where its points sit in the scratch
// point list, the scalars the points do not carry, and whether fold must
// flush the points to read the rollup's flushed form.
type foldRun struct {
	key                    int32 // index into foldScratch.keys
	at, n                  int32 // its points are pts[at : at+n]
	flush                  bool  // the points are not yet their flushed form (stats.Sketch.Flushed)
	start                  int64
	count, min, max, delta float64
}

// foldScratch is the working memory of one foldKeys call, pooled per
// ingestor so a query allocates neither a point list per shard nor an 8δ
// buffer per key: the series of the shard's keys the memo did not answer,
// their runs and points, and the one sketch every key is folded in, reset
// between keys.
type foldScratch struct {
	keys []*keySeries
	runs []foldRun
	pts  []stats.Centroid
	sk   *stats.Sketch
}

// foldKeys is what every query merges: for each key the spec matches, the
// flushed form of each of the key's picked rollups — the centroids the
// rollup's own flush would leave (stats.Sketch.AbsorbFlushed) — absorbed in
// ascending window start (compaction deferred to 8δ buffered points) into an
// empty sketch at the ingestor's compression, then sealed with one flush.
// Reading every rollup in its flushed form is what makes a rollup's seal
// (shard.seal) a cache: a sealed rollup and its unsealed twin fold to the
// same bytes until another event lands in it. The sealed folds come back in
// wire form — Start the earliest rollup, Windows the number folded, Sketch
// the sealed state's exact encoding — in Key.Compare order. A fold is a pure
// function of its key's rollups, and a key's rollups all live in one shard
// of one ingestor, so a node that holds a key whole exports the very bytes a
// single node holding everything would fold for it: that, and mergeFolds
// being the one merge, is why cluster and single-node answers are
// byte-identical. Empty rollups fold nothing and are not counted.
//
// A key whose picked rollups are unchanged since an earlier query of the
// same window range is not folded again: the key's fold memo
// (foldmemo.go) returns that query's bytes, which are the bytes a fold would
// produce. The returned Sketch bytes may therefore be shared and must not be
// modified.
//
// Each shard is locked only while its selected keys are looked up, each
// one's windows in range found by binary search, the memo consulted and the
// missed keys' points copied out — the price of a consistent cut without
// epoch machinery. That is one map lookup for a fully keyed spec (Region and
// Net both set), in the one shard the key hashes to, and otherwise a pass
// over the shard's keys, never over its (window, key) rollups. Flushing,
// folding, sealing and encoding happen outside every lock, timed with one
// clock pair per shard pass that folds anything; the new folds are memoised
// under a second, short hold.
func (ing *Ingestor) foldKeys(spec QuerySpec) ([]WindowSketch, error) {
	fromMs, toMs, err := ing.windowRange(spec)
	if err != nil {
		return nil, err
	}
	sc, _ := ing.foldPool.Get().(*foldScratch)
	if sc == nil {
		sc = &foldScratch{sk: stats.NewSketch(ing.cfg.Compression)}
	}
	defer ing.foldPool.Put(sc)
	shards, exact := ing.shards, spec.Region != "" && spec.Net != ""
	key := Key{Metric: spec.Metric, Region: spec.Region, Net: spec.Net}
	if exact {
		i := key.ShardOf(len(shards))
		shards = shards[i : i+1]
	}
	folds := []WindowSketch{} // never nil: no match is `[]` on the JSON surface
	var hits, misses, folded int
	for _, s := range shards {
		sc.keys, sc.runs, sc.pts = sc.keys[:0], sc.runs[:0], sc.pts[:0]
		answered := len(folds)
		s.mu.Lock()
		if exact {
			if ks := s.keys[key]; ks != nil {
				folds = sc.pick(ks, fromMs, toMs, folds)
			}
		} else {
			for k, ks := range s.keys {
				if spec.selects(k) {
					folds = sc.pick(ks, fromMs, toMs, folds)
				}
			}
		}
		clock, forgot := s.clock, s.forgot
		s.mu.Unlock()
		hits += len(folds) - answered
		if len(sc.runs) == 0 {
			continue
		}
		fresh := len(folds)
		began := time.Now()
		folds = sc.fold(folds)
		ing.m.fold.ObserveDuration(time.Since(began))
		misses += len(folds) - fresh
		folded += len(sc.runs)
		s.mu.Lock()
		if s.forgot == forgot { // else a deletion since the scan may have removed rollups (or whole series) these folds cover
			for i, f := range folds[fresh:] {
				sc.keys[i].memo.put(foldMemo{fromMs: fromMs, toMs: toMs, n: f.Windows, clock: clock, start: f.Start, enc: f.Sketch})
			}
		}
		s.mu.Unlock()
		clear(sc.keys) // the pool must not pin dropped series
	}
	ing.m.memoHits.Add(uint64(hits))
	ing.m.memoMisses.Add(uint64(misses))
	ing.m.foldedRollups.Add(uint64(folded))
	slices.SortFunc(folds, func(a, b WindowSketch) int { return a.compareKey(&b) })
	return folds, nil
}

// pick selects one key's rollups in [fromMs, toMs) — a binary search for
// each bound in its windows — and either appends the memoised fold that
// still covers them to folds or copies their points out as runs, ascending
// by window start, for fold. Each run records whether its points still need
// the rollup's flush: a rollup with nothing buffered, or a small unit-weight
// one whose flush fuses nothing (stats.Sketch.Flushed), is absorbed as it
// lies. Empty rollups fold nothing and are not counted. Called with the
// key's shard locked.
func (sc *foldScratch) pick(ks *keySeries, fromMs, toMs int64, folds []WindowSketch) []WindowSketch {
	lo, _ := ks.find(fromMs)
	hi, _ := ks.find(toMs)
	if hi <= lo { // nothing in range, or an inverted one
		return folds
	}
	wins := ks.wins[lo:hi]
	n, stamp := 0, uint64(0)
	for _, w := range wins {
		if w.sk.Count() > 0 {
			n++
			stamp = max(stamp, w.stamp)
		}
	}
	if n == 0 {
		return folds
	}
	if e, ok := ks.memo.get(fromMs, toMs, n, stamp); ok {
		return append(folds, WindowSketch{Start: e.start, Windows: e.n, Region: ks.key.Region, Net: ks.key.Net, Sketch: e.enc})
	}
	key := int32(len(sc.keys))
	sc.keys = append(sc.keys, ks)
	for _, w := range wins {
		if w.sk.Count() == 0 {
			continue
		}
		at := len(sc.pts)
		sc.pts = w.sk.AppendPoints(sc.pts)
		sc.runs = append(sc.runs, foldRun{
			key: key, at: int32(at), n: int32(len(sc.pts) - at), flush: !w.sk.Flushed(),
			start: w.start, count: w.sk.Count(), min: w.sk.Min(), max: w.sk.Max(), delta: w.sk.Compression(),
		})
	}
	return folds
}

// fold appends one sealed fold per key of the copied-out runs to folds, in
// sc.keys order (foldKeys sorts across shards): pick leaves each key's runs
// contiguous and ascending by window start, so they fold as they lie, each
// in its rollup's flushed form — flushed here, on the copied-out points,
// where pick marked that the points are not that form already.
func (sc *foldScratch) fold(folds []WindowSketch) []WindowSketch {
	folds = slices.Grow(folds, len(sc.keys))
	for runs := sc.runs; len(runs) > 0; {
		n := 1
		for n < len(runs) && runs[n].key == runs[0].key {
			n++
		}
		sc.sk.Reset()
		for _, r := range runs[:n] {
			if pts := sc.pts[r.at : r.at+r.n]; r.flush {
				sc.sk.AbsorbFlushed(pts, r.count, r.min, r.max, r.delta)
			} else {
				sc.sk.AbsorbPoints(pts, r.count, r.min, r.max)
			}
		}
		sc.sk.Centroids()                                                 // seal: flush what the last absorbs left buffered
		enc, _ := sc.sk.AppendBinary(make([]byte, 0, sc.sk.BinarySize())) // encoding a live sketch cannot fail
		key := sc.keys[runs[0].key].key
		folds = append(folds, WindowSketch{Start: runs[0].start, Windows: n, Region: key.Region, Net: key.Net, Sketch: enc})
		runs = runs[n:]
	}
	return folds
}

// mergeFolds is THE merge: the single-node query and the cluster
// scatter-gather both end here. pages are lists of sealed per-key folds,
// each strictly ascending by key; they are k-way merged by key — the page
// index breaking the tie when one key appears on two pages — and
// every fold's wire bytes are validated and absorbed into one sketch
// (stats.Sketch.AbsorbBinary). The order is verified as each page is
// consumed: a key out of order or repeated inside a page is an error naming
// page and key, never re-sorted, and so is a match that is not a fold (a raw
// rollup, Windows 0) or a fold of nothing. Returns the merged sketch and the
// number of rollups folded into it. The pages are only read.
func mergeFolds(compression float64, pages [][]WindowSketch) (*stats.Sketch, int, error) {
	// cursors holds the pages not yet consumed, in page order, so the first
	// of equal heads is the lowest page. A cluster has a handful of nodes: a
	// scan beats a heap.
	type cursor struct{ page, next int }
	cursors := make([]cursor, 0, len(pages))
	for i, p := range pages {
		if len(p) > 0 {
			cursors = append(cursors, cursor{page: i})
		}
	}
	merged := stats.NewSketch(compression)
	windows := 0
	for len(cursors) > 0 {
		least := 0
		for i := 1; i < len(cursors); i++ {
			a, b := cursors[i], cursors[least]
			if pages[a.page][a.next].compareKey(&pages[b.page][b.next]) < 0 {
				least = i
			}
		}
		c := &cursors[least]
		page := pages[c.page]
		m := &page[c.next]
		if m.Windows < 1 || int64(m.Windows) > math.MaxUint32 {
			return nil, 0, fmt.Errorf("telemetry: page %d match %d (%s/%s): windows=%d is not a fold of 1..2^32-1 rollups",
				c.page, c.next, m.Region, m.Net, m.Windows)
		}
		before := merged.Count()
		if err := merged.AbsorbBinary(m.Sketch); err != nil {
			return nil, 0, fmt.Errorf("telemetry: page %d sketch (%s/%s, %d windows from start=%d): %w",
				c.page, m.Region, m.Net, m.Windows, m.Start, err)
		}
		if merged.Count() == before {
			return nil, 0, fmt.Errorf("telemetry: page %d match %d (%s/%s): an empty sketch claims %d windows",
				c.page, c.next, m.Region, m.Net, m.Windows)
		}
		windows += m.Windows
		if c.next++; c.next == len(page) {
			cursors = slices.Delete(cursors, least, least+1)
			continue
		}
		if next := &page[c.next]; next.compareKey(m) <= 0 {
			return nil, 0, fmt.Errorf("telemetry: page %d out of key order at match %d (%s/%s after %s/%s)",
				c.page, c.next, next.Region, next.Net, m.Region, m.Net)
		}
	}
	return merged, windows, nil
}

// evaluate computes the requested statistics on a merged sketch.
func evaluate(merged *stats.Sketch, windows int, qs, cdfAt []float64) QueryResult {
	res := QueryResult{
		Count:   merged.Count(),
		Windows: windows,
	}
	if merged.Count() > 0 {
		res.Min, res.Max = merged.Min(), merged.Max()
	}
	for _, q := range qs {
		res.Quantiles = append(res.Quantiles, QuantileEstimate{
			Q:         q,
			Value:     merged.Quantile(q),
			RankError: merged.RankErrorBound(q),
		})
	}
	for _, x := range cdfAt {
		res.CDF = append(res.CDF, CDFEstimate{X: x, P: merged.CDFAt(x)})
	}
	return res
}

// Query folds each matching key's rollups — across all shards and the
// requested window range — into one sealed sketch per key (foldKeys), merges
// the folds in key order (mergeFolds) and evaluates the spec's statistics on
// the merged sketch. Both steps are deterministic for a given rollup state.
// Ingestion may continue concurrently; each shard is locked only while its
// matching rollups' points are copied out.
func (ing *Ingestor) Query(spec QuerySpec) (QueryResult, error) {
	began := time.Now()
	defer func() { ing.m.query.ObserveDuration(time.Since(began)) }()
	qs, err := checkedQuantiles(spec)
	if err != nil {
		return QueryResult{}, err
	}
	folds, err := ing.foldKeys(spec)
	if err != nil {
		return QueryResult{}, err
	}
	merged, windows, err := mergeFolds(ing.cfg.Compression, [][]WindowSketch{folds})
	if err != nil {
		return QueryResult{}, err
	}
	return evaluate(merged, windows, qs, spec.CDFAt), nil
}

// WindowSketch is one sketch of a key's rollups in wire form: the key's free
// dimensions (the metric is the page's, not repeated per match) and a
// sketch's exact binary state (stats.Sketch.MarshalBinary — raw in the
// binary page, base64 in JSON). It comes in two kinds, told apart by
// Windows, and every consumer accepts exactly one:
//
//   - Windows == 0: a raw rollup — the (Start, key) window's sketch in its
//     exact live state, buffered points and all. What PartitionPages exports
//     and AbsorbPages places.
//   - Windows >= 1: a sealed fold of that many of the key's rollups, Start
//     the earliest of them (foldKeys). What MatchSketches exports and
//     MergeSketchPages merges. A fold cannot be placed in a window, and a
//     raw rollup is not what a query merges, so each is refused by the
//     other's consumer.
//
// Because the codec round-trips bit-for-bit, a front-end merging decoded
// folds computes exactly what the node itself would.
type WindowSketch struct {
	Start   int64  `json:"start"`
	Windows int    `json:"windows,omitempty"`
	Region  string `json:"region"`
	Net     string `json:"net"`
	Sketch  []byte `json:"sketch"`
}

// compareKey orders two matches of one metric by key: (region, net), the
// tail of Key.Compare.
func (m *WindowSketch) compareKey(o *WindowSketch) int {
	if c := strings.Compare(m.Region, o.Region); c != 0 {
		return c
	}
	return strings.Compare(m.Net, o.Net)
}

// SketchPage is a list of one metric's WindowSketches plus the parameters
// whoever folds them must agree on. A node's answer to a sketch-collection
// request — the scatter half of the cluster's scatter-gather query, which
// cluster.Frontend gathers and merges — is a page of sealed per-key folds,
// strictly ascending by key; a handoff's page (PartitionPages) holds raw
// rollups in (start, region, net) order. On the cluster's internal legs a
// page travels in the binary form of pagecodec.go; the JSON tags serve curl.
type SketchPage struct {
	Metric      string         `json:"metric"`
	Compression float64        `json:"compression"`
	WindowMs    int64          `json:"window_ms"`
	Matches     []WindowSketch `json:"matches"`
}

// MatchSketches folds the spec's matching rollups per key (foldKeys) and
// returns the sealed folds as a page — what a node ships for a query: one
// sketch per key, not one per key × window. The spec is validated exactly as
// Query validates it (so a front-end fanning out a bad spec fails fast at
// every node the same way), but only the selection fields matter —
// quantiles/CDF points are evaluated by whoever merges.
func (ing *Ingestor) MatchSketches(spec QuerySpec) (SketchPage, error) {
	began := time.Now()
	defer func() { ing.m.sketches.ObserveDuration(time.Since(began)) }()
	if _, err := checkedQuantiles(spec); err != nil {
		return SketchPage{}, err
	}
	folds, err := ing.foldKeys(spec)
	if err != nil {
		return SketchPage{}, err
	}
	return SketchPage{
		Metric:      spec.Metric,
		Compression: ing.cfg.Compression,
		WindowMs:    ing.cfg.Window.Milliseconds(),
		Matches:     folds,
	}, nil
}

// MergeSketchPages merges the pages of a scatter-gather fan-out and
// evaluates the spec on the merged sketch — the gather half of a cluster
// query. All pages must agree on metric, compression and window length (a
// cluster must be homogeneously configured; a mismatch is a deployment
// error, reported loudly), and hold sealed per-key folds in ascending key
// order, as MatchSketches exports them; mergeFolds merges them — the very
// function Query ends in. The answer is therefore deterministic and, when
// every matched key's rollups sit on exactly one of the pages' nodes,
// byte-identical to a single node that ingested the whole stream — which
// cluster.Frontend guarantees by keeping only each partition owner's
// matches. A key split across two pages is absorbed fold after fold in
// page order: complete in data, inside the sketch's rank-error bound, not
// byte-identical.
func MergeSketchPages(spec QuerySpec, pages []SketchPage) (QueryResult, error) {
	qs, err := checkedQuantiles(spec)
	if err != nil {
		return QueryResult{}, err
	}
	var (
		compression float64
		windowMs    int64
		folds       = make([][]WindowSketch, len(pages))
	)
	for i, p := range pages {
		if i == 0 {
			compression, windowMs = p.Compression, p.WindowMs
		} else if p.Compression != compression || p.WindowMs != windowMs {
			return QueryResult{}, fmt.Errorf(
				"telemetry: heterogeneous cluster pages: compression %v/window %dms vs %v/%dms",
				compression, windowMs, p.Compression, p.WindowMs)
		}
		if p.Metric != spec.Metric {
			return QueryResult{}, fmt.Errorf("telemetry: page metric %q, want %q", p.Metric, spec.Metric)
		}
		folds[i] = p.Matches
	}
	if compression == 0 {
		compression = stats.DefaultCompression
	}
	merged, windows, err := mergeFolds(compression, folds)
	if err != nil {
		return QueryResult{}, err
	}
	return evaluate(merged, windows, qs, spec.CDFAt), nil
}

// Keys lists every distinct dimension tuple with at least one rollup,
// sorted, with its total event count — the pipeline's "what can I query"
// introspection. It reads each key's running count, so it costs one step
// per key, not per rollup; a key lives in exactly one shard.
func (ing *Ingestor) Keys() []KeyCount {
	n := 0
	for _, s := range ing.shards {
		s.mu.Lock()
		n += len(s.keys)
		s.mu.Unlock()
	}
	out := make([]KeyCount, 0, n)
	for _, s := range ing.shards {
		s.mu.Lock()
		for k, ks := range s.keys {
			out = append(out, KeyCount{Key: k, Count: ks.count})
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b KeyCount) int { return a.Key.Compare(b.Key) })
	return out
}

// KeyCount pairs a dimension tuple with its accumulated event count.
type KeyCount struct {
	Key   Key     `json:"key"`
	Count float64 `json:"count"`
}
