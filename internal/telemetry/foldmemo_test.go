package telemetry

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// forgetMemos empties every shard's fold memo, so the ingestor's next answer
// is a fresh fold of its rollups.
func forgetMemos(ing *Ingestor) {
	for _, s := range ing.shards {
		s.mu.Lock()
		s.forgetAll()
		s.mu.Unlock()
	}
}

// memoEntries counts one shard's memoised folds and the distinct keys its
// rollups hold.
func memoEntries(s *shard) (entries, keys int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ks := range s.keys {
		for _, e := range ks.memo {
			if e.n > 0 {
				entries++
			}
		}
	}
	return entries, len(s.keys)
}

// requireFreshAnswers checks that memo answers spec — MatchSketches page
// bytes and Query result — exactly as fresh does with its memo emptied first.
func requireFreshAnswers(t *testing.T, memo, fresh *Ingestor, spec QuerySpec) {
	t.Helper()
	got, gerr := memo.MatchSketches(spec)
	forgetMemos(fresh)
	want, werr := fresh.MatchSketches(spec)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%+v: MatchSketches error %v, fresh fold %v", spec, gerr, werr)
	}
	gb, _ := got.AppendBinary(nil)
	wb, _ := want.AppendBinary(nil)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%+v: MatchSketches page differs from a fresh fold (%d vs %d matches)", spec, len(got.Matches), len(want.Matches))
	}
	gq, gerr := memo.Query(spec)
	forgetMemos(fresh)
	wq, werr := fresh.Query(spec)
	if g, w := fmt.Sprintf("%+v %v", gq, gerr), fmt.Sprintf("%+v %v", wq, werr); g != w {
		t.Fatalf("%+v: Query answered\n%s\nfresh fold\n%s", spec, g, w)
	}
}

// TestFoldMemoMatchesFreshFolds is the memo's differential pin: a seeded
// random interleaving of offers (in order and late), absorbs onto new and
// existing windows, partition drops, MaxWindows evictions and queries over
// random window ranges and region/net filters, applied to two ingestors.
// One answers every query with its memo; the other has its memo emptied
// before every answer, so each of its answers is a fresh fold. Every page
// and every result must be byte-identical.
func TestFoldMemoMatchesFreshFolds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{Shards: 2, Window: time.Second, Block: true, MaxWindows: 8}
			fresh := NewIngestor(cfg)
			defer fresh.Close()
			cfg.Metrics = reg
			memo := NewIngestor(cfg)
			defer memo.Close()

			r := rng.New(seed)
			metrics := []string{MetricRTT, "loss_pct"}
			regions := []string{"", "Beijing", "Wuhan", "Chengdu"}
			nets := []string{"", "WiFi", "LTE"}
			pickDim := func(dims []string, any bool) string {
				if any {
					return dims[r.IntN(len(dims))]
				}
				return dims[1+r.IntN(len(dims)-1)]
			}
			head := int64(1000) // the newest window index
			for step := 0; step < 1500; step++ {
				switch op := r.IntN(20); {
				case op < 6: // one event or a burst, up to five windows late
					n := 1
					if r.IntN(3) == 0 {
						n += r.IntN(40)
					}
					evs := make([]Envelope, n)
					for i := range evs {
						w := head - int64(r.IntN(6))
						evs[i] = Envelope{V: SchemaVersion, TS: w*1000 + int64(r.IntN(1000)), Kind: KindPing,
							Metric: metrics[r.IntN(2)], Region: pickDim(regions, false), Net: pickDim(nets, false),
							Value: r.LogNormal(3, 0.5)}
					}
					if r.IntN(3) == 0 {
						head++
					}
					for _, ing := range []*Ingestor{memo, fresh} {
						ing.OfferAll(evs)
						ing.Flush()
					}
				case op < 8: // raw rollups absorbed onto new and existing windows
					page := SketchPage{Metric: metrics[r.IntN(2)], Compression: stats.DefaultCompression, WindowMs: 1000}
					for i := 1 + r.IntN(2); i > 0; i-- {
						sk := stats.NewSketch(stats.DefaultCompression)
						for j := 1 + r.IntN(30); j > 0; j-- {
							_ = sk.Add(r.LogNormal(3, 0.5))
						}
						enc, _ := sk.MarshalBinary()
						page.Matches = append(page.Matches, WindowSketch{
							Start: (head - 7 + int64(r.IntN(9))) * 1000, Region: pickDim(regions, false), Net: pickDim(nets, false), Sketch: enc,
						})
					}
					for _, ing := range []*Ingestor{memo, fresh} {
						if _, err := ing.AbsorbPages([]SketchPage{page}); err != nil {
							t.Fatal(err)
						}
					}
				case op < 9:
					of := 2 + r.IntN(4)
					p := r.IntN(of)
					for _, ing := range []*Ingestor{memo, fresh} {
						if _, err := ing.DropPartition(p, of); err != nil {
							t.Fatal(err)
						}
					}
				default: // queries over a few recurring ranges, so the memo answers some
					for q := 1 + r.IntN(2); q > 0; q-- {
						spec := QuerySpec{Metric: metrics[r.IntN(2)], Region: pickDim(regions, true), Net: pickDim(nets, true), CDFAt: []float64{10, 30}}
						if r.IntN(3) > 0 {
							spec.From = time.UnixMilli((head-int64(r.IntN(6)))*1000 + int64(r.IntN(1000)))
						}
						if r.IntN(3) > 0 {
							spec.To = time.UnixMilli((head-int64(r.IntN(3)))*1000 + 1 + int64(r.IntN(1000)))
						}
						requireFreshAnswers(t, memo, fresh, spec)
					}
				}
			}
			samples := reg.Snapshot()
			hits, _ := obs.Find(samples, "telemetry_sketches_memo_hits_total")
			misses, _ := obs.Find(samples, "telemetry_sketches_memo_misses_total")
			if hits.Value == 0 || misses.Value == 0 {
				t.Fatalf("the schedule never exercised both paths: %v hits, %v misses", hits.Value, misses.Value)
			}
			t.Logf("%v memo hits, %v misses", hits.Value, misses.Value)
		})
	}
}

// TestFoldMemoBounded pins the memo's size: a sweep over hundreds of
// distinct ranges keeps at most memoRanges folds per key the shard holds,
// and the memo dies with the rollups it folded — on a partition drop, on a
// retention eviction and on Crash.
func TestFoldMemoBounded(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true})
	defer ing.Close()
	for w := int64(1); w <= 40; w++ {
		for k := 0; k < 6; k++ {
			ing.Offer(Envelope{V: SchemaVersion, TS: w*1000 + int64(k), Metric: MetricRTT, Region: fmt.Sprint("r", k), Net: "WiFi", Value: float64(w + int64(k))})
		}
	}
	ing.Flush()
	ranges := 0
	for from := int64(1); from <= 40; from++ {
		for to := from + 1; to <= 41 && ranges < 300; to++ {
			spec := QuerySpec{Metric: MetricRTT, From: time.UnixMilli(from * 1000), To: time.UnixMilli(to * 1000)}
			if _, err := ing.MatchSketches(spec); err != nil {
				t.Fatal(err)
			}
			ranges++
		}
	}
	total := 0
	for i, s := range ing.shards {
		entries, keys := memoEntries(s)
		if entries > memoRanges*keys {
			t.Errorf("shard %d: %d memoised folds after %d ranges, cap %d × %d keys", i, entries, ranges, memoRanges, keys)
		}
		total += entries
	}
	if total == 0 {
		t.Fatal("the sweep memoised nothing")
	}
	if _, err := ing.DropPartition(0, 1); err != nil {
		t.Fatal(err)
	}
	for i, s := range ing.shards {
		if entries, _ := memoEntries(s); entries != 0 {
			t.Errorf("shard %d keeps %d memoised folds after its rollups were dropped", i, entries)
		}
	}

	// Eviction: a fold covering the evicted window goes with it; a fold of
	// the windows that remain stays.
	ev := NewIngestor(Config{Shards: 1, Window: time.Second, Block: true, MaxWindows: 3})
	offer := func(w int64) {
		ev.Offer(Envelope{V: SchemaVersion, TS: w * 1000, Metric: MetricRTT, Region: "r", Net: "WiFi", Value: float64(w)})
		ev.Flush()
	}
	for w := int64(1); w <= 3; w++ {
		offer(w)
	}
	for _, from := range []int64{1, 2} {
		if _, err := ev.MatchSketches(QuerySpec{Metric: MetricRTT, From: time.UnixMilli(from * 1000), To: time.UnixMilli(4000)}); err != nil {
			t.Fatal(err)
		}
	}
	offer(4) // evicts window 1
	if entries, _ := memoEntries(ev.shards[0]); entries != 1 {
		t.Errorf("after evicting window 1: %d memoised folds, want 1 (the fold of windows 2..3)", entries)
	}
	ev.Crash()
	if entries, _ := memoEntries(ev.shards[0]); entries != 0 {
		t.Errorf("a crashed ingestor keeps %d memoised folds", entries)
	}
}

// TestFoldMemoCounters pins the fold counters: a repeated query folds its
// rollups once, and the memo answers every key the second time.
func TestFoldMemoCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true, Metrics: reg})
	defer ing.Close()
	for w := int64(1); w <= 5; w++ {
		for k := 0; k < 4; k++ {
			ing.Offer(Envelope{V: SchemaVersion, TS: w * 1000, Metric: MetricRTT, Region: fmt.Sprint("r", k), Net: "WiFi", Value: float64(w)})
		}
	}
	ing.Flush()
	spec := QuerySpec{Metric: MetricRTT}
	for i := 0; i < 2; i++ {
		if _, err := ing.MatchSketches(spec); err != nil {
			t.Fatal(err)
		}
	}
	samples := reg.Snapshot()
	for name, want := range map[string]float64{
		"telemetry_sketches_folded_rollups_total": 20,
		"telemetry_sketches_memo_misses_total":    4,
		"telemetry_sketches_memo_hits_total":      4,
	} {
		if s, ok := obs.Find(samples, name); !ok || s.Value != want {
			t.Errorf("%s = %+v (ok=%v), want %v", name, s, ok, want)
		}
	}
}

// TestFoldMemoUnderConcurrentIngest queries while a shard worker folds (run
// it under -race): memo reads, writes and rollup stamps share the shard lock,
// and once ingest stops the memo answers exactly as a fresh fold.
func TestFoldMemoUnderConcurrentIngest(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, Window: time.Second, Block: true, MaxWindows: 4})
	defer ing.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ing.Offer(Envelope{V: SchemaVersion, TS: 1000 + int64(i)*5, Metric: MetricRTT,
				Region: fmt.Sprint("r", i%5), Net: "WiFi", Value: float64(i % 97)})
		}
	}()
	specs := []QuerySpec{{Metric: MetricRTT}, {Metric: MetricRTT, Region: "r1"}}
	for q := 0; q < 200; q++ {
		for _, spec := range specs {
			if _, err := ing.MatchSketches(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := ing.Query(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-done
	ing.Flush()
	for _, spec := range specs {
		got, _ := ing.MatchSketches(spec)
		gb, _ := got.AppendBinary(nil)
		forgetMemos(ing)
		want, _ := ing.MatchSketches(spec)
		wb, _ := want.AppendBinary(nil)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%+v: after concurrent ingest the memo answers differently from a fresh fold", spec)
		}
	}
}
