package telemetry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// sealKey is one of sealStream's keys.
func sealKey(k int) Key {
	return Key{Metric: MetricRTT, Region: fmt.Sprint("region-", k/2), Net: []string{"WiFi", "LTE"}[k%2]}
}

// sealStream is a seeded stream over keys × windows one-second windows
// (winStart's): each (key, window) rollup takes lo..hi events, drawn per
// rollup, and the keys interleave in random runs while each key walks its
// windows in order, so a key's first event of a window seals its previous
// one. With late > 0, each
// event of a key past its first window is followed with that probability by
// a late event into one of the key's earlier windows — into a rollup that
// may already be sealed.
func sealStream(seed uint64, keys, windows, lo, hi int, late float64) []Envelope {
	r := rng.New(seed)
	type cursor struct{ w, left int }
	at := make([]cursor, keys)
	for k := range at {
		at[k] = cursor{0, lo + r.IntN(hi-lo+1)}
	}
	event := func(k, w int) Envelope {
		key := sealKey(k)
		return ev(winStart(w)+int64(r.IntN(1000)), key.Metric, key.Region, key.Net, r.LogNormal(3+0.02*float64(w), 0.6))
	}
	var out []Envelope
	for {
		live := []int{}
		for k, c := range at {
			if c.w < windows {
				live = append(live, k)
			}
		}
		if len(live) == 0 {
			return out
		}
		k := live[r.IntN(len(live))]
		for run := 1 + r.IntN(40); run > 0 && at[k].w < windows; run-- {
			c := &at[k]
			out = append(out, event(k, c.w))
			if c.w > 0 && r.Float64() < late {
				out = append(out, event(k, r.IntN(c.w)))
			}
			if c.left--; c.left == 0 {
				c.w++
				c.left = lo + r.IntN(hi-lo+1)
			}
		}
	}
}

// sealSpecs are the selections the seal tests compare: everything, a
// window range, one net across regions, and one key over a range.
func sealSpecs() []QuerySpec {
	ms := func(w int) time.Time { return time.UnixMilli(winStart(w)) }
	return []QuerySpec{
		{Metric: MetricRTT, CDFAt: []float64{10, 20, 40}},
		{Metric: MetricRTT, From: ms(3), To: ms(9)},
		{Metric: MetricRTT, Net: "LTE", Quantiles: []float64{0.01, 0.5, 0.99}},
		{Metric: MetricRTT, Region: "region-1", Net: "WiFi", From: ms(2), To: ms(11)},
	}
}

// liveRollups copies every rollup the ingestor holds.
func liveRollups(ing *Ingestor) map[windowKey]*stats.Sketch {
	out := map[windowKey]*stats.Sketch{}
	for _, s := range ing.shards {
		s.mu.Lock()
		for k, ks := range s.keys {
			for _, w := range ks.wins {
				out[windowKey{Start: w.start, Key: k}] = w.sk.Clone()
			}
		}
		s.mu.Unlock()
	}
	return out
}

// sealsFlushed sums the shards' sealed counters.
func sealsFlushed(ing *Ingestor) uint64 {
	var n uint64
	for _, s := range ing.shards {
		n += s.sealed.Value()
	}
	return n
}

// requireReferenceAnswers checks the ingestor's page and query answer for
// every seal spec against the canonical fold of rollups as the scan oracle
// computes it: each rollup flushed on a copy, with no pass-through and no
// memo.
func requireReferenceAnswers(t *testing.T, ing *Ingestor, rollups map[windowKey]*stats.Sketch, where string) {
	t.Helper()
	for _, spec := range sealSpecs() {
		got, err := ing.MatchSketches(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := (&scanOracle{cfg: ing.cfg, windows: rollups}).match(spec)
		if !bytes.Equal(mustEncode(got), mustEncode(want)) {
			t.Fatalf("%s: spec %+v: the page differs from the reference fold", where, spec)
		}
		res, err := ing.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := MergeSketchPages(spec, []SketchPage{want})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(res)
		b, _ := json.Marshal(ref)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: spec %+v: Query answered %s, the reference %s", where, spec, a, b)
		}
	}
}

// TestSealIsACacheOfTheFold is the seal's property pin: an ingestor whose
// rollups seal where their keys advance, and at random further points —
// always on rollups no later event lands in — answers every page and query,
// at every point of the stream, byte for byte as the canonical fold of
// rollups that never sealed. Queries between the seals also check that a
// seal leaves memoised folds valid.
func TestSealIsACacheOfTheFold(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		events := sealStream(seed, 6, 12, 1, 400, 0)
		ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true})
		never := map[windowKey]*stats.Sketch{}
		last := map[windowKey]int{}
		for i, e := range events {
			last[windowKey{Start: ing.windowStart(e.TS), Key: e.Key()}] = i
		}
		closed := slices.SortedFunc(maps.Keys(last), func(a, b windowKey) int { return cmp.Or(a.Key.Compare(b.Key), cmp.Compare(a.Start, b.Start)) })
		r := rng.New(seed * 7)
		for at := 0; at < len(events); {
			chunk := events[at:min(at+1+r.IntN(600), len(events))]
			offerAllFlush(t, ing, chunk)
			for _, e := range chunk {
				wk := windowKey{Start: ing.windowStart(e.TS), Key: e.Key()}
				if never[wk] == nil {
					never[wk] = stats.NewSketch(ing.cfg.Compression)
				}
				_ = never[wk].Add(e.Value)
			}
			at += len(chunk)
			for _, wk := range closed {
				if last[wk] >= at || r.IntN(3) > 0 {
					continue
				}
				s := ing.shards[wk.ShardOf(len(ing.shards))]
				s.mu.Lock()
				if ks, i, found := s.lookup(wk.Key, wk.Start); found {
					s.seal(ks, i)
				}
				s.mu.Unlock()
			}
			requireReferenceAnswers(t, ing, never, fmt.Sprintf("seed %d, %d of %d events", seed, at, len(events)))
		}
		if sealsFlushed(ing) == 0 {
			t.Fatalf("seed %d: no seal flushed: the stream does not exercise the seal", seed)
		}
		ing.Close()
	}
}

// TestPassThroughMatchesFlushingEveryRollup is the pass-through's
// differential pin: over rollups of 1–200 events, with late events into
// sealed ones, the fold — which absorbs a small unit-weight rollup's raw
// points — answers exactly as a fold that flushes every rollup.
func TestPassThroughMatchesFlushingEveryRollup(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true})
		offerAllFlush(t, ing, sealStream(seed, 6, 12, 1, 200, 0.03))
		rollups := liveRollups(ing)
		var raw, flush int
		for _, sk := range rollups {
			if !sk.Flushed() {
				flush++
			} else if sk.Count() < 2*ing.cfg.Compression/math.Pi {
				raw++
			}
		}
		if raw == 0 || flush == 0 || sealsFlushed(ing) == 0 {
			t.Fatalf("seed %d: %d rollups pass through, %d flush, %d seals flushed: the stream must exercise all three",
				seed, raw, flush, sealsFlushed(ing))
		}
		requireReferenceAnswers(t, ing, rollups, fmt.Sprint("seed ", seed))
		ing.Close()
	}
}

// TestSealedRecoveryMatchesLive: a durable node whose rollups sealed —
// before its checkpoint and inside the WAL span after it, with late events
// folded into sealed rollups on both sides of the cut — recovers from
// snapshot+WAL and from the WAL alone to the answers it gave live. Replay
// visits one window's segment at a time, so it sees a late event before
// the next window's first event; only the seal records logged in the
// windows' own segments put the seals back where they were. The crash
// states of that disk are checked as FuzzCrashStates checks its own.
func TestSealedRecoveryMatchesLive(t *testing.T) {
	cfg := Config{Shards: 2, QueueLen: 64, Window: time.Second, Block: true,
		WAL: WALConfig{Dir: "/data", SyncEvery: 64}}
	events := sealStream(5, 3, 6, 100, 200, 0.02)
	disk := newMemFS()
	ing := mustOpen(t, cfg, disk)
	half := len(events) / 2
	offerAllFlush(t, ing, events[:half])
	if err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := sealsFlushed(ing)
	offerAllFlush(t, ing, events[half:])
	if before == 0 || sealsFlushed(ing) == before {
		t.Fatalf("seals flushed: %d before the checkpoint, %d after: both spans must hold seals", before, sealsFlushed(ing)-before)
	}
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	live := queryFingerprint(t, ing)
	livePage, _ := ing.MatchSketches(QuerySpec{Metric: MetricRTT})
	ing.Crash()

	for _, walOnly := range []bool{false, true} {
		if walOnly {
			for i := 0; i < cfg.Shards; i++ {
				if err := disk.Remove(filepath.Join(shardDir(cfg.WAL.Dir, i), snapshotFile)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rec, st, err := open(cfg, disk)
		if err != nil {
			t.Fatal(err)
		}
		page, _ := rec.MatchSketches(QuerySpec{Metric: MetricRTT})
		if got := queryFingerprint(t, rec); !bytes.Equal(got, live) || !bytes.Equal(mustEncode(page), mustEncode(livePage)) {
			t.Fatalf("WAL only %v: recovered answers differ from the live ones\nrecovered %s\nlive      %s", walOnly, got, live)
		}
		if walOnly && sealsFlushed(rec) != sealsFlushed(ing) {
			t.Fatalf("a WAL-only replay applied %d seals, the live node %d", sealsFlushed(rec), sealsFlushed(ing))
		}
		if !walOnly && st.RecordsSkipped == 0 {
			t.Fatal("recovery skipped no record: the snapshot did not count")
		}
		rec.Crash()
	}
	// The crash states of the same history, seal records among the
	// unsynced writes, recover to replays of what is on disk.
	var tally crashTally
	checkCrashPoints(t, cfg, disk, rng.New(5), &tally)
	t.Logf("%d crash points, %d crash states checked", tally.points, tally.states)
}

// TestSealedHandoffMatchesSingleNode: partitions handed off with sealed
// rollups answer, on the gaining node, the bytes a single node that took
// the whole stream answers — after the gaining node has gone on folding
// events that seal the absorbed rollups and late events into sealed ones.
func TestSealedHandoffMatchesSingleNode(t *testing.T) {
	const parts = 4
	cfg := Config{Shards: 3, Window: time.Second, Block: true}
	events := sealStream(9, 6, 10, 60, 240, 0.02)
	single := NewIngestor(cfg)
	defer single.Close()
	offerAllFlush(t, single, events)

	src, dst := NewIngestor(cfg), NewIngestor(cfg)
	defer src.Close()
	defer dst.Close()
	half := len(events) / 2
	offerAllFlush(t, src, events[:half])
	if sealsFlushed(src) == 0 {
		t.Fatal("the source sealed nothing before the handoff")
	}
	moved := func(e Envelope) bool { return e.Key().ShardOf(parts) < parts/2 }
	for p := 0; p < parts/2; p++ {
		pages, err := src.PartitionPages(p, parts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.AbsorbPages(pages); err != nil {
			t.Fatal(err)
		}
		if _, err := src.DropPartition(p, parts); err != nil {
			t.Fatal(err)
		}
	}
	var toSrc, toDst []Envelope
	for _, e := range events[half:] {
		if moved(e) {
			toDst = append(toDst, e)
		} else {
			toSrc = append(toSrc, e)
		}
	}
	offerAllFlush(t, src, toSrc)
	offerAllFlush(t, dst, toDst)
	if sealsFlushed(dst) == 0 {
		t.Fatal("the gaining node sealed no absorbed rollup")
	}
	for _, spec := range sealSpecs() {
		want, err := single.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		var pages []SketchPage
		for _, ing := range []*Ingestor{src, dst} {
			p, err := ing.MatchSketches(spec)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, p)
		}
		got, err := MergeSketchPages(spec, pages)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("spec %+v: after the handoff %s, the single node %s", spec, a, b)
		}
	}
}

// TestFoldRankErrorWithinBound is the streamed quantiles' accuracy pin under
// the canonical fold: at 13, 65, 195 and 1 340 events per rollup — raw
// pass-through, a flush per rollup, sealed rollups and self-flushed ones —
// every p50/p95/p99 of a multi-window fold lies within twice the merged
// sketch's rank-error bound of the exact batch distribution.
func TestFoldRankErrorWithinBound(t *testing.T) {
	const keys, windows = 4, 16
	ms := func(w int) time.Time { return time.UnixMilli(winStart(w)) }
	for _, per := range []int{13, 65, 195, 1340} {
		ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true})
		r := rng.New(uint64(per))
		values := map[windowKey][]float64{}
		var events []Envelope
		for w := 0; w < windows; w++ {
			for i := 0; i < per; i++ {
				for k := 0; k < keys; k++ {
					key := sealKey(k)
					e := ev(winStart(w)+int64(i%1000), key.Metric, key.Region, key.Net, r.LogNormal(3+0.03*float64(w)+0.2*float64(k), 0.6))
					events = append(events, e)
					wk := windowKey{Start: winStart(w), Key: key}
					values[wk] = append(values[wk], e.Value)
				}
			}
		}
		offerAllFlush(t, ing, events)
		for _, spec := range []QuerySpec{
			{Metric: MetricRTT},
			{Metric: MetricRTT, Net: "LTE", From: ms(3), To: ms(11)},
			{Metric: MetricRTT, Region: "region-0", Net: "WiFi", From: ms(5), To: ms(15)},
		} {
			spec.Quantiles = []float64{0.5, 0.95, 0.99}
			var exact []float64
			for wk, vs := range values {
				if spec.selects(wk.Key) && (spec.From.IsZero() || wk.Start >= spec.From.UnixMilli()) && (spec.To.IsZero() || wk.Start < spec.To.UnixMilli()) {
					exact = append(exact, vs...)
				}
			}
			batch := stats.Summarize(exact)
			res, err := ing.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != float64(len(exact)) {
				t.Fatalf("%d per rollup, spec %+v: count %v, want %d", per, spec, res.Count, len(exact))
			}
			for _, qe := range res.Quantiles {
				if got := math.Abs(batch.CDFAt(qe.Value) - qe.Q); got > 2*qe.RankError {
					t.Errorf("%d per rollup, spec %+v: p%g rank error %.5f exceeds 2×bound %.5f", per, spec, qe.Q*100, got, 2*qe.RankError)
				}
			}
		}
		ing.Close()
	}
}

// TestSealAndFoldStageObserved: /metrics counts, per shard, the seals that
// flushed, and observes the fold stage once per shard pass that folds any
// rollup — both shards for a metric-wide query, none for its repeat (every
// key a memo hit), one for a keyed query over a new range.
func TestSealAndFoldStageObserved(t *testing.T) {
	reg := obs.NewRegistry()
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true, Metrics: reg})
	defer ing.Close()
	offerAllFlush(t, ing, sealStream(3, 6, 6, 100, 300, 0))
	samples := reg.Snapshot()
	for i, s := range ing.shards {
		got, ok := obs.Find(samples, "telemetry_shard_rollups_sealed_total", "shard", strconv.Itoa(i))
		if !ok || got.Value != float64(s.sealed.Value()) || len(s.keys) == 0 {
			t.Fatalf("shard %d: sealed_total %v (found %v), shard count %d, %d keys", i, got.Value, ok, s.sealed.Value(), len(s.keys))
		}
	}
	if sealsFlushed(ing) == 0 {
		t.Fatal("no seal flushed")
	}
	folds := func() float64 {
		s, _ := obs.Find(reg.Snapshot(), "telemetry_fold_seconds_count")
		return s.Value
	}
	for _, c := range []struct {
		spec QuerySpec
		want float64
	}{
		{QuerySpec{Metric: MetricRTT}, 2},
		{QuerySpec{Metric: MetricRTT}, 0},
		{QuerySpec{Metric: MetricRTT, Region: "region-0", Net: "WiFi", From: time.UnixMilli(winStart(1))}, 1},
	} {
		before := folds()
		if _, err := ing.MatchSketches(c.spec); err != nil {
			t.Fatal(err)
		}
		if got := folds() - before; got != c.want {
			t.Fatalf("spec %+v: the fold stage was observed %v times, want %v", c.spec, got, c.want)
		}
	}
}

// TestFoldScratchHoldsOneRollup pins a wide query's working memory: after
// an all-keys fold of a shard whose rollups range from points a fold
// absorbs as they lie to raw points past δ, the fold scratch holds no more
// than the largest key's points — it is filled one rollup at a time, never
// with a whole shard's. The query runs on one P with the collector off, so
// the scratch it takes from the pool is the one put there — but the race
// detector makes sync.Pool drop a random quarter of Puts, so the round (every
// memo emptied, so every key folds again) repeats until the scratch comes
// back.
func TestFoldScratchHoldsOneRollup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true})
	defer ing.Close()
	offerAllFlush(t, ing, sealStream(5, 12, 10, 40, 300, 0))
	largestKey, shardPts, copied := 0, 0, 0
	for _, s := range ing.shards {
		pts := 0
		for _, ks := range s.keys {
			n := 0
			for _, w := range ks.wins {
				k := len(w.sk.AppendPoints(nil))
				n += k
				if !w.sk.Flushed() {
					copied = max(copied, k)
				}
			}
			largestKey, pts = max(largestKey, n), pts+n
		}
		shardPts = max(shardPts, pts)
	}
	if copied == 0 {
		t.Fatal("every rollup folds as it lies: the fixture copies nothing")
	}
	var sc *foldScratch
	for round := 0; ; round++ {
		if round == 32 {
			t.Fatal("the query did not return the pooled fold scratch in 32 rounds")
		}
		for _, s := range ing.shards {
			s.mu.Lock()
			s.forgetAll()
			s.mu.Unlock()
		}
		sc = &foldScratch{sk: stats.NewSketch(ing.cfg.Compression)}
		ing.foldPool.Put(sc)
		if _, err := ing.MatchSketches(QuerySpec{Metric: MetricRTT}); err != nil {
			t.Fatal(err)
		}
		if got, _ := ing.foldPool.Get().(*foldScratch); got == sc {
			break
		}
	}
	t.Logf("scratch capacity %d points: largest copied rollup %d, largest key %d, largest shard %d", cap(sc.pts), copied, largestKey, shardPts)
	if c := cap(sc.pts); c < copied || c > largestKey {
		t.Fatalf("fold scratch holds %d points, want between the largest copied rollup's %d and the largest key's %d", c, copied, largestKey)
	}
}
