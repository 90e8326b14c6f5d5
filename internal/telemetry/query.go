package telemetry

import (
	"cmp"
	"fmt"
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

// sketchMatch is one matching (window, key) rollup pulled out of a shard.
type sketchMatch struct {
	wk windowKey
	sk *stats.Sketch
}

// compare is the canonical rollup order: (metric, start, region, net). Within
// one query every match shares the metric, so this is the (start, region,
// net) total order — a (window, key) rollup exists exactly once. Every
// consumer that orders or merges matches MUST use this comparator: it is
// what makes single-node answers, recovered-node answers and the cluster
// front-end's scatter-gather merge byte-identical.
func (a windowKey) compare(b windowKey) int {
	if c := strings.Compare(a.Metric, b.Metric); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return a.Key.compare(b.Key)
}

// compare orders keys by (metric, region, net) — Keys' listing order, and
// the tail of the canonical rollup order.
func (a Key) compare(b Key) int {
	if c := strings.Compare(a.Metric, b.Metric); c != 0 {
		return c
	}
	if c := strings.Compare(a.Region, b.Region); c != 0 {
		return c
	}
	return strings.Compare(a.Net, b.Net)
}

// selector turns a spec into the predicate picking its rollups. The bounds
// are aligned to whole windows: a window is selected iff it overlaps
// [From, To), matching the spec's documented granularity.
func (ing *Ingestor) selector(spec QuerySpec) (func(windowKey) bool, error) {
	if spec.Metric == "" {
		return nil, fmt.Errorf("telemetry: query needs a metric")
	}
	var fromMs, toMs int64
	if !spec.From.IsZero() {
		fromMs = ing.windowStart(spec.From.UnixMilli())
	}
	if spec.To.IsZero() {
		toMs = int64(1) << 62
	} else {
		w := ing.cfg.Window.Milliseconds()
		toMs = ing.windowStart(spec.To.UnixMilli()-1) + w
	}
	return func(wk windowKey) bool {
		return wk.Metric == spec.Metric &&
			(spec.Region == "" || wk.Region == spec.Region) &&
			(spec.Net == "" || wk.Net == spec.Net) &&
			wk.Start >= fromMs && wk.Start < toMs
	}, nil
}

// collectMatches clones every (window, key) sketch the spec selects, in
// canonical order. Each shard is locked only while its rollups are scanned
// and the matching sketches copied out — a few KB memcpy per match, the
// price of a consistent cut without epoch machinery; MaxWindows bounds the
// scan length.
func (ing *Ingestor) collectMatches(spec QuerySpec) ([]sketchMatch, error) {
	pick, err := ing.selector(spec)
	if err != nil {
		return nil, err
	}
	var matches []sketchMatch
	for _, s := range ing.shards {
		s.mu.Lock()
		for wk, sk := range s.windows {
			if pick(wk) {
				matches = append(matches, sketchMatch{wk, sk.Clone()})
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(matches, func(a, b sketchMatch) int { return a.wk.compare(b.wk) })
	return matches, nil
}

// evaluate computes the requested statistics on a merged sketch. This is
// THE evaluate path: the single-node query and the cluster scatter-gather
// both end here, having absorbed the same rollups at the same compression
// in the same canonical order, which is why their answers are
// byte-identical.
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

// Query merges every matching (window, key) sketch — across all shards and
// the requested window range — and evaluates the spec's statistics on the
// merged sketch. Merging is ordered (windows sorted by start time then key,
// shards visited in index order), so the answer is deterministic for a
// given rollup state. Ingestion may continue concurrently; each shard is
// locked only while its matching sketches are copied out.
func (ing *Ingestor) Query(spec QuerySpec) (QueryResult, error) {
	if ing.m != nil {
		began := time.Now()
		defer func() { ing.m.query.ObserveDuration(time.Since(began)) }()
	}
	qs, err := checkedQuantiles(spec)
	if err != nil {
		return QueryResult{}, err
	}
	matches, err := ing.collectMatches(spec)
	if err != nil {
		return QueryResult{}, err
	}
	// Absorb defers compaction so merging W windows costs one merge pass
	// per ~8δ absorbed centroids, not one sort per window.
	merged := stats.NewSketch(ing.cfg.Compression)
	for _, m := range matches {
		merged.Absorb(m.sk)
	}
	return evaluate(merged, len(matches), qs, spec.CDFAt), nil
}

// WindowSketch is one matching (window, key) rollup in wire form: the
// window start, the key's free dimensions (the metric is the query's, so it
// is carried on the page, not per match) and the sketch's exact binary
// state (stats.Sketch.MarshalBinary — raw in the binary page, base64 in
// JSON). Because the codec round-trips bit-for-bit, a front-end merging
// decoded WindowSketches computes exactly what the node itself would.
type WindowSketch struct {
	Start  int64  `json:"start"`
	Region string `json:"region"`
	Net    string `json:"net"`
	Sketch []byte `json:"sketch"`
}

// key is the rollup the match carries, under its page's metric.
func (m *WindowSketch) key(metric string) windowKey {
	return windowKey{Start: m.Start, Key: Key{Metric: metric, Region: m.Region, Net: m.Net}}
}

// SketchPage is one node's answer to a sketch-collection request: every
// rollup the spec matched, in the canonical (start, region, net) order,
// plus the parameters a merger must agree on. It is the scatter half of the
// cluster's scatter-gather query (cluster.Frontend gathers and merges). On
// the cluster's internal legs it travels in the binary form of
// pagecodec.go; the JSON tags serve curl and the handoff spill files.
type SketchPage struct {
	Metric      string         `json:"metric"`
	Compression float64        `json:"compression"`
	WindowMs    int64          `json:"window_ms"`
	Matches     []WindowSketch `json:"matches"`
}

// encodedRollup is one picked rollup with its sketch's exact binary state.
type encodedRollup struct {
	wk  windowKey
	enc []byte
}

// encodeRollups encodes every rollup pick selects, once, under its shard's
// lock, straight into one exactly-sized buffer per shard that the returned
// rollups slice into — the only copy the sketch bytes take between the live
// rollup and the wire — and returns them in canonical order. Each shard is
// locked only while its rollups are scanned and encoded, the same
// consistent cut collectMatches takes by cloning.
func (ing *Ingestor) encodeRollups(pick func(windowKey) bool) []encodedRollup {
	var (
		out    []encodedRollup
		picked []sketchMatch
	)
	for _, s := range ing.shards {
		picked = picked[:0]
		size := 0
		s.mu.Lock()
		for wk, sk := range s.windows {
			if pick(wk) {
				picked = append(picked, sketchMatch{wk, sk})
				size += sk.BinarySize()
			}
		}
		chunk := make([]byte, 0, size)
		for _, m := range picked {
			at := len(chunk)
			chunk, _ = m.sk.AppendBinary(chunk) // encoding a live sketch cannot fail
			out = append(out, encodedRollup{m.wk, chunk[at:len(chunk):len(chunk)]})
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b encodedRollup) int { return a.wk.compare(b.wk) })
	return out
}

// pageOf assembles one metric's page over rollups already in canonical
// order and all of that metric.
func (ing *Ingestor) pageOf(metric string, rollups []encodedRollup) SketchPage {
	page := SketchPage{
		Metric:      metric,
		Compression: ing.cfg.Compression,
		WindowMs:    ing.cfg.Window.Milliseconds(),
		Matches:     make([]WindowSketch, len(rollups)),
	}
	for i, r := range rollups {
		page.Matches[i] = WindowSketch{Start: r.wk.Start, Region: r.wk.Region, Net: r.wk.Net, Sketch: r.enc}
	}
	return page
}

// MatchSketches collects the spec's matching rollups in wire form. The spec
// is validated exactly as Query validates it (so a front-end fanning out a
// bad spec fails fast at every node the same way), but only the selection
// fields matter — quantiles/CDF points are evaluated by whoever merges.
func (ing *Ingestor) MatchSketches(spec QuerySpec) (SketchPage, error) {
	if _, err := checkedQuantiles(spec); err != nil {
		return SketchPage{}, err
	}
	pick, err := ing.selector(spec)
	if err != nil {
		return SketchPage{}, err
	}
	return ing.pageOf(spec.Metric, ing.encodeRollups(pick)), nil
}

// MergeSketchPages merges the pages of a scatter-gather fan-out and
// evaluates the spec on the merged sketch — the gather half of a cluster
// query. All pages must agree on metric, compression and window length (a
// cluster must be homogeneously configured; a mismatch is a deployment
// error, reported loudly). Every page arrives in the canonical (start,
// region, net) order its node exported it in, so the pages are k-way merged
// under that comparator — the page index breaking the (cross-node
// duplicate) ties replica failover can create — and the order is verified
// as each page is consumed: a page out of order is an error naming it,
// never re-sorted. The merge is therefore deterministic and, when every
// (window, key) lives on exactly one node, byte-identical to a single node
// that ingested the whole stream. Each match's wire bytes are validated and
// folded straight into the merged sketch (stats.Sketch.AbsorbBinary); the
// pages are only read.
func MergeSketchPages(spec QuerySpec, pages []SketchPage) (QueryResult, error) {
	qs, err := checkedQuantiles(spec)
	if err != nil {
		return QueryResult{}, err
	}
	// pageCursor is one page's read position; head is the key of the match
	// at next.
	type pageCursor struct {
		page, next int
		head       windowKey
	}
	var (
		compression float64
		windowMs    int64
		cursors     = make([]pageCursor, 0, len(pages))
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
		if len(p.Matches) > 0 {
			cursors = append(cursors, pageCursor{page: i, head: p.Matches[0].key(spec.Metric)})
		}
	}
	if compression == 0 {
		compression = stats.DefaultCompression
	}
	merged := stats.NewSketch(compression)
	windows := 0
	for len(cursors) > 0 {
		// cursors stay in page order, so the first of equal heads is the
		// lowest page. A cluster has a handful of nodes: a scan beats a heap.
		least := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].head.compare(cursors[least].head) < 0 {
				least = i
			}
		}
		c := &cursors[least]
		matches := pages[c.page].Matches
		m := &matches[c.next]
		if err := merged.AbsorbBinary(m.Sketch); err != nil {
			return QueryResult{}, fmt.Errorf("telemetry: page %d sketch (start=%d %s/%s): %w",
				c.page, m.Start, m.Region, m.Net, err)
		}
		windows++
		if c.next++; c.next == len(matches) {
			cursors = slices.Delete(cursors, least, least+1)
			continue
		}
		next := matches[c.next].key(spec.Metric)
		if next.compare(c.head) < 0 {
			return QueryResult{}, fmt.Errorf(
				"telemetry: page %d out of canonical order at match %d (start=%d %s/%s after start=%d %s/%s)",
				c.page, c.next, next.Start, next.Region, next.Net, c.head.Start, c.head.Region, c.head.Net)
		}
		c.head = next
	}
	return evaluate(merged, windows, qs, spec.CDFAt), nil
}

// Keys lists every distinct dimension tuple with at least one rollup,
// sorted, with its total event count — the pipeline's "what can I query"
// introspection.
func (ing *Ingestor) Keys() []KeyCount {
	acc := map[Key]float64{}
	for _, s := range ing.shards {
		s.mu.Lock()
		for wk, sk := range s.windows {
			acc[wk.Key] += sk.Count()
		}
		s.mu.Unlock()
	}
	out := make([]KeyCount, 0, len(acc))
	for k, n := range acc {
		out = append(out, KeyCount{Key: k, Count: n})
	}
	slices.SortFunc(out, func(a, b KeyCount) int { return a.Key.compare(b.Key) })
	return out
}

// KeyCount pairs a dimension tuple with its accumulated event count.
type KeyCount struct {
	Key   Key     `json:"key"`
	Count float64 `json:"count"`
}

// WindowRange reports the earliest window start and the end of the latest
// window across all rollups (zero times when empty) — useful for building
// full-range queries.
func (ing *Ingestor) WindowRange() (from, to time.Time) {
	var lo, hi int64
	first := true
	for _, s := range ing.shards {
		s.mu.Lock()
		for wk := range s.windows {
			if first || wk.Start < lo {
				lo = wk.Start
			}
			if first || wk.Start > hi {
				hi = wk.Start
			}
			first = false
		}
		s.mu.Unlock()
	}
	if first {
		return time.Time{}, time.Time{}
	}
	return time.UnixMilli(lo), time.UnixMilli(hi + ing.cfg.Window.Milliseconds())
}
