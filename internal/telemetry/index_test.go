package telemetry

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// scanOracle is the rollup state as one flat (window, key) → sketch map, with
// the semantics the per-key index must keep: every answer is recomputed from
// it by a brute-force scan of every rollup.
type scanOracle struct {
	cfg     Config
	windows map[windowKey]*stats.Sketch
}

func (o *scanOracle) shardOf(k Key) int { return k.ShardOf(o.cfg.Shards) }

// starts returns shard i's window starts → rollups in them.
func (o *scanOracle) starts(i int) map[int64]int {
	out := map[int64]int{}
	for wk := range o.windows {
		if o.shardOf(wk.Key) == i {
			out[wk.Start]++
		}
	}
	return out
}

// place stores sk as wk's rollup — merging into one already there — and
// evicts the shard's oldest whole windows past MaxWindows.
func (o *scanOracle) place(wk windowKey, sk *stats.Sketch) {
	if have := o.windows[wk]; have != nil {
		have.Absorb(sk)
		return
	}
	o.windows[wk] = sk
	for starts := o.starts(o.shardOf(wk.Key)); o.cfg.MaxWindows > 0 && len(starts) > o.cfg.MaxWindows; {
		oldest := slices.Min(slices.Collect(maps.Keys(starts)))
		for k := range o.windows {
			if k.Start == oldest && o.shardOf(k.Key) == o.shardOf(wk.Key) {
				delete(o.windows, k)
			}
		}
		delete(starts, oldest)
	}
}

// offer folds one event: its window's rollup is created (and retention
// enforced) before the value lands, so a window born past the horizon takes
// the value with it. A rollup created newer than every other of its key's
// seals the key's previous-newest one.
func (o *scanOracle) offer(e Envelope) {
	w := o.cfg.Window.Milliseconds()
	wk := windowKey{Start: e.TS - e.TS%w, Key: e.Key()}
	sk := o.windows[wk]
	if sk == nil {
		prev, newest := windowKey{Start: -1}, true
		for have := range o.windows {
			if have.Key == wk.Key {
				newest = newest && have.Start < wk.Start
				if have.Start < wk.Start && have.Start > prev.Start {
					prev = have
				}
			}
		}
		sk = stats.NewSketch(o.cfg.Compression)
		o.place(wk, sk)
		if sealed := o.windows[prev]; newest && sealed != nil {
			sealed.Seal()
		}
	}
	_ = sk.Add(e.Value)
}

func (o *scanOracle) drop(p, of int) {
	for wk := range o.windows {
		if wk.Key.ShardOf(of) == p {
			delete(o.windows, wk)
		}
	}
}

// sorted returns the rollups pick selects, ordered by cmpWK.
func (o *scanOracle) sorted(pick func(windowKey) bool, cmpWK func(a, b windowKey) int) []windowKey {
	var out []windowKey
	for wk := range o.windows {
		if pick(wk) {
			out = append(out, wk)
		}
	}
	slices.SortFunc(out, cmpWK)
	return out
}

func (o *scanOracle) keys() []KeyCount {
	acc := map[Key]float64{}
	for wk, sk := range o.windows {
		acc[wk.Key] += sk.Count()
	}
	out := []KeyCount{}
	for k, n := range acc {
		out = append(out, KeyCount{Key: k, Count: n})
	}
	slices.SortFunc(out, func(a, b KeyCount) int { return a.Key.Compare(b.Key) })
	return out
}

// match is MatchSketches by brute force: each selected key's non-empty
// rollups in the spec's window range, ascending by start, each flushed on
// a copy and absorbed into a fresh sketch, which is then sealed.
func (o *scanOracle) match(spec QuerySpec) SketchPage {
	w := o.cfg.Window.Milliseconds()
	from, to := int64(0), int64(1)<<62
	if !spec.From.IsZero() {
		from = spec.From.UnixMilli() - spec.From.UnixMilli()%w
	}
	if !spec.To.IsZero() {
		last := spec.To.UnixMilli() - 1
		to = last - last%w + w
	}
	byKeyStart := func(a, b windowKey) int {
		return cmp.Or(a.Key.Compare(b.Key), cmp.Compare(a.Start, b.Start))
	}
	picked := o.sorted(func(wk windowKey) bool {
		return spec.selects(wk.Key) && wk.Start >= from && wk.Start < to && o.windows[wk].Count() > 0
	}, byKeyStart)
	page := SketchPage{Metric: spec.Metric, Compression: o.cfg.Compression, WindowMs: w, Matches: []WindowSketch{}}
	for len(picked) > 0 {
		n := 1
		for n < len(picked) && picked[n].Key == picked[0].Key {
			n++
		}
		fold := stats.NewSketch(o.cfg.Compression)
		for _, wk := range picked[:n] {
			flushed := o.windows[wk].Clone()
			flushed.Centroids()
			fold.Absorb(flushed)
		}
		fold.Centroids()
		enc, _ := fold.MarshalBinary()
		page.Matches = append(page.Matches, WindowSketch{Start: picked[0].Start, Windows: n, Region: picked[0].Region, Net: picked[0].Net, Sketch: enc})
		picked = picked[n:]
	}
	return page
}

// partition is PartitionPages by brute force: the partition's rollups sorted
// by (metric, start, region, net), one page per metric.
func (o *scanOracle) partition(p, of int) []SketchPage {
	picked := o.sorted(func(wk windowKey) bool { return wk.Key.ShardOf(of) == p }, func(a, b windowKey) int {
		return cmp.Or(cmp.Compare(a.Metric, b.Metric), cmp.Compare(a.Start, b.Start), a.Key.Compare(b.Key))
	})
	pages := []SketchPage{}
	for _, wk := range picked {
		if len(pages) == 0 || pages[len(pages)-1].Metric != wk.Metric {
			pages = append(pages, SketchPage{Metric: wk.Metric, Compression: o.cfg.Compression, WindowMs: o.cfg.Window.Milliseconds()})
		}
		enc, _ := o.windows[wk].MarshalBinary()
		pg := &pages[len(pages)-1]
		pg.Matches = append(pg.Matches, WindowSketch{Start: wk.Start, Region: wk.Region, Net: wk.Net, Sketch: enc})
	}
	return pages
}

// snapshotRollups is shard i's snapshot up to the end of its rollup section:
// the header, then every rollup in (start, metric, region, net) order.
func (o *scanOracle) snapshotRollups(i int) []byte {
	picked := o.sorted(func(wk windowKey) bool { return o.shardOf(wk.Key) == i }, func(a, b windowKey) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), a.Key.Compare(b.Key))
	})
	w := &snapWriter{b: append([]byte{}, snapMagic[:]...)}
	w.u32(uint32(o.cfg.Shards))
	w.i64(o.cfg.Window.Milliseconds())
	w.u32(uint32(len(picked)))
	for _, wk := range picked {
		w.i64(wk.Start)
		w.key(wk.Key)
		enc, _ := o.windows[wk].MarshalBinary()
		w.u32(uint32(len(enc)))
		w.b = append(w.b, enc...)
	}
	return w.b
}

// pagesBytes is a page list in its binary form, for byte comparisons.
func pagesBytes(pages []SketchPage) []byte {
	var b []byte
	for _, p := range pages {
		b, _ = p.AppendBinary(b)
	}
	return b
}

// check compares every answer the index gives against the oracle's scan.
func (o *scanOracle) check(t *testing.T, ing *Ingestor, step int, head int64) {
	t.Helper()
	if got, want := ing.Keys(), o.keys(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Keys\n got %v\nwant %v", step, got, want)
	}
	regions, nets := []string{"r0", "r1", "r2"}, []string{"wifi", "lte"}
	region, net := regions[step%len(regions)], nets[step%len(nets)]
	for _, metric := range []string{MetricRTT, "loss_pct"} {
		for _, dims := range [][2]string{{"", ""}, {region, ""}, {"", net}, {region, net}} {
			for _, bounded := range []bool{false, true} {
				spec := QuerySpec{Metric: metric, Region: dims[0], Net: dims[1]}
				if bounded {
					spec.From, spec.To = time.UnixMilli((head-3)*1000+400), time.UnixMilli(head*1000)
				}
				got, err := ing.MatchSketches(spec)
				if err != nil {
					t.Fatal(err)
				}
				if gb, wb := pagesBytes([]SketchPage{got}), pagesBytes([]SketchPage{o.match(spec)}); !bytes.Equal(gb, wb) {
					t.Fatalf("step %d: MatchSketches(%+v) differs from the scan: %d matches, want %d", step, spec, len(got.Matches), len(o.match(spec).Matches))
				}
			}
		}
	}
	for _, of := range []int{1, 3} {
		p := step % of
		got, err := ing.PartitionPages(p, of)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pagesBytes(got), pagesBytes(o.partition(p, of))) {
			t.Fatalf("step %d: PartitionPages(%d, %d) differs from the scan", step, p, of)
		}
	}
	for i, st := range ing.Stats() {
		starts := o.starts(i)
		rollups := 0
		for _, n := range starts {
			rollups += n
		}
		if st.Windows != len(starts) || st.Rollups != rollups {
			t.Fatalf("step %d: shard %d holds %d windows / %d rollups, want %d / %d", step, i, st.Windows, st.Rollups, len(starts), rollups)
		}
		s := ing.shards[i]
		s.mu.Lock()
		snap := encodeSnapshot(s, ing.cfg)
		s.mu.Unlock()
		if want := o.snapshotRollups(i); !bytes.HasPrefix(snap, want) {
			t.Fatalf("step %d: shard %d snapshot's rollup section differs from the scan's", step, i)
		}
	}
}

// indexScheduleSteps bounds one schedule, so a fuzz input stays cheap.
const indexScheduleSteps = 96

// runIndexSchedule drives a durable ingestor and a scanOracle through the
// steps data picks — in-order and late events, dense bursts that seal by
// flushing, MaxWindows eviction, absorbs
// into new and existing windows, partition drops, crash and reopen from the
// snapshot or from the WAL alone — and checks every answer after every step.
// A step is an opcode byte and two argument bytes; a missing byte reads 0,
// so every prefix of a schedule is a schedule, which is what shrinking a
// failure by truncation (or the fuzzer's minimiser) needs.
func runIndexSchedule(t *testing.T, data []byte) {
	dir := t.TempDir()
	// Reopening syncs first, so the fsync cadence would only cost time.
	cfg := Config{Shards: 2, Window: time.Second, Block: true, MaxWindows: 5, WAL: WALConfig{Dir: dir, SyncEvery: 1024}}
	ing := NewIngestor(cfg)
	defer func() { ing.Close() }()
	cfg.fill()
	o := &scanOracle{cfg: cfg, windows: map[windowKey]*stats.Sketch{}}

	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	key := func(x int) Key {
		return Key{Metric: []string{MetricRTT, "loss_pct"}[x%2], Region: fmt.Sprint("r", x/2%3), Net: []string{"wifi", "lte"}[x/6%2]}
	}
	offer := func(events []Envelope) {
		if n := ing.OfferAll(events); n != len(events) {
			t.Fatalf("offered %d of %d", n, len(events))
		}
		ing.Flush()
		for _, e := range events {
			o.offer(e)
		}
	}
	reopen := func(fromSnapshot bool) {
		if fromSnapshot {
			if err := ing.Snapshot(); err != nil {
				t.Fatal(err)
			}
		} else if err := ing.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		ing.Crash()
		if !fromSnapshot {
			for i := 0; i < cfg.Shards; i++ {
				if err := os.Remove(filepath.Join(shardDir(dir, i), snapshotFile)); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			}
		}
		var err error
		if ing, _, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	}

	head := int64(100) // the newest window index
	for step := 0; len(data) > 0 && step < indexScheduleSteps; step++ {
		op, a, b := next(), next(), next()
		switch scheduleOp(op) {
		case opDense: // δ or more events of one key in one window; the key's next window seals it by flushing
			k := key(a)
			events := make([]Envelope, int(cfg.Compression)+b%32)
			for i := range events {
				events[i] = ev(head*1000+int64((b*37+i*7)%1000), k.Metric, k.Region, k.Net, float64((a*7+b+i*13)%97)+0.25)
			}
			head++
			offer(append(events, ev(head*1000+int64(a), k.Metric, k.Region, k.Net, float64(b%41)+0.5)))
		case 0, 1, 2: // a burst in the newest window, sometimes opening the next
			if a%4 == 0 {
				head++
			}
			events := make([]Envelope, 1+b%6)
			for i := range events {
				k := key(a + 5*i)
				events[i] = ev(head*1000+int64((b*37+i*101)%1000), k.Metric, k.Region, k.Net, float64((a*7+b+i*13)%97)+0.25)
			}
			offer(events)
		case 3: // late events, up to 7 windows back: past the 5-window horizon sometimes
			events := make([]Envelope, 1+b%3)
			for i := range events {
				k := key(b + 3*i)
				w := head - 1 - int64((a+i)%7)
				events[i] = ev(w*1000+int64(a*11%1000), k.Metric, k.Region, k.Net, float64(a%53)+0.5)
			}
			offer(events)
		case 4: // raw rollups absorbed onto windows that exist and ones that do not
			k := key(a)
			page := SketchPage{Metric: k.Metric, Compression: cfg.Compression, WindowMs: 1000}
			for i := 0; i < 1+b%2; i++ {
				sk := stats.NewSketch(cfg.Compression)
				for j := 0; j <= (a+i)%9; j++ {
					_ = sk.Add(float64((b+j*17)%61) + 0.125)
				}
				enc, _ := sk.MarshalBinary()
				region := fmt.Sprint("r", (a/2+i)%3)
				page.Matches = append(page.Matches, WindowSketch{Start: (head - int64((b+i)%6)) * 1000, Region: region, Net: k.Net, Sketch: enc})
			}
			if _, err := ing.AbsorbPages([]SketchPage{page}); err != nil {
				t.Fatal(err)
			}
			for _, m := range page.Matches {
				sk := new(stats.Sketch)
				if err := sk.UnmarshalBinary(m.Sketch); err != nil {
					t.Fatal(err)
				}
				o.place(windowKey{Start: m.Start, Key: Key{Metric: page.Metric, Region: m.Region, Net: m.Net}}, sk)
			}
		case 5:
			of := 2 + a%3
			p := b % of
			if _, err := ing.DropPartition(p, of); err != nil {
				t.Fatal(err)
			}
			o.drop(p, of)
		case 6:
			reopen(true)
		case 7:
			reopen(false)
		}
		o.check(t, ing, step, head)
	}
}

// TestShardIndexMatchesScan is the per-key index's differential pin: seeded
// random schedules (runIndexSchedule) whose every Keys, MatchSketches,
// PartitionPages, Stats and snapshot answer must equal a brute-force scan
// of a flat (window, key) map. A failing seed's bytes shrink by truncation.
func TestShardIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			r := rng.New(seed)
			data := make([]byte, 3*indexScheduleSteps)
			for i := range data {
				data[i] = byte(r.Uint64())
			}
			runIndexSchedule(t, data)
		})
	}
}

// FuzzShardIndexMatchesScan runs the same schedule with the fuzz input as
// its steps.
func FuzzShardIndexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 4, 3, 3, 9, 1, 4, 2, 1, 5, 0, 1, 6, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 5, 3, 6, 2, 7, 0, 0})
	f.Add([]byte{4, 1, 0, 4, 2, 1, 0, 3, 2, 5, 1, 1, 7, 0, 0, 3, 2, 2})
	f.Add([]byte{15, 3, 7, 0, 1, 2, 15, 3, 30, 3, 1, 3, 6, 0, 0, 15, 4, 9, 7, 0, 0})
	f.Fuzz(runIndexSchedule)
}
