package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"edgescope/internal/crowd"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/stats"
)

func ev(ts int64, metric, region, net string, v float64) Envelope {
	return Envelope{V: SchemaVersion, TS: ts, Kind: KindPing, Metric: metric,
		Region: region, Net: net, Value: v}
}

// --- Envelope / JSONL ---

func TestEnvelopeRoundTrip(t *testing.T) {
	events := []Envelope{
		{V: 1, TS: 1633046400000, Kind: "ping", Metric: "rtt_ms", User: 7,
			Region: "Beijing", Net: "WiFi", Target: "nearest-edge", Value: 12.25},
		{V: 1, TS: 1633046400250, Kind: "iperf", Metric: "tput_mbps", User: 9,
			Region: "downlink", Net: "LTE", Value: 87.5},
		{V: 1, TS: 1633046400500, Kind: "ping", Metric: "hop_count", User: 0,
			Region: "Wuhan", Net: "5G", Value: 11},
	}
	var buf bytes.Buffer
	for _, e := range events {
		line, err := AppendJSONL(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(events) {
		t.Fatalf("lines = %d, want %d", got, len(events))
	}
	var back []Envelope
	st, err := ReadJSONL(&buf, func(e Envelope) { back = append(back, e) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 || st.Decoded != len(events) {
		t.Fatalf("stats = %+v", st)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip changed events:\n in: %+v\nout: %+v", events, back)
	}
}

func TestDecodeLineRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
		want error
	}{
		{"empty-object", `{}`, ErrVersion},
		{"future-version", `{"v":99,"ts":1,"metric":"m","value":1}`, ErrVersion},
		{"no-metric", `{"v":1,"ts":1,"value":1}`, ErrInvalid},
		{"zero-ts", `{"v":1,"ts":0,"metric":"m","value":1}`, ErrInvalid},
		{"negative-ts", `{"v":1,"ts":-5,"metric":"m","value":1}`, ErrInvalid},
		{"not-json", `not json at all`, ErrInvalid},
		{"wrong-type", `{"v":1,"ts":"yesterday","metric":"m","value":1}`, ErrInvalid},
		{"truncated", `{"v":1,"ts":1,"metric":"m","va`, ErrInvalid},
	}
	for _, tc := range cases {
		if _, err := DecodeLine([]byte(tc.line)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Unknown fields are forward-compatible, not errors.
	e, err := DecodeLine([]byte(`{"v":1,"ts":1,"metric":"m","value":2,"extra":"ok"}`))
	if err != nil || e.Value != 2 {
		t.Errorf("unknown field rejected: %v %+v", err, e)
	}
}

func TestAppendJSONLRejectsNonFinite(t *testing.T) {
	e := ev(1, "m", "r", "n", math.NaN())
	if _, err := AppendJSONL(nil, e); !errors.Is(err, ErrInvalid) {
		t.Fatalf("NaN encode err = %v, want ErrInvalid", err)
	}
}

func TestReadJSONLSkipsMalformedLines(t *testing.T) {
	in := `{"v":1,"ts":1,"metric":"m","value":1}
garbage line
{"v":1,"ts":2,"metric":"m","value":2}

{"v":2,"ts":3,"metric":"m","value":3}
`
	var got []float64
	st, err := ReadJSONL(strings.NewReader(in), func(e Envelope) { got = append(got, e.Value) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Decoded != 2 || st.Malformed != 2 {
		t.Fatalf("stats = %+v, want 2 decoded / 2 malformed", st)
	}
	if !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("values = %v", got)
	}
}

// TestReadJSONLSkipsOversizeLine: a line over the 1 MiB cap is one malformed
// line, skipped to its newline without being buffered — not a failed pass
// that strands the lines behind it. The cap itself is inclusive, CRLF line
// ends are stripped, and an oversize line cut off by EOF counts the same.
func TestReadJSONLSkipsOversizeLine(t *testing.T) {
	good := `{"v":1,"ts":1,"metric":"m","value":1}`
	huge := strings.Repeat("x", 2*maxLineBytes)
	// A valid envelope whose line, newline included, is exactly the cap.
	atCap := `{"v":1,"ts":1,"metric":"m","value":1,"target":"` + strings.Repeat("t", maxLineBytes-len(good)-len(`,"target":""`)-1) + `"}`
	for _, c := range []struct {
		name, in           string
		decoded, malformed int
	}{
		{"between good lines", good + "\n" + huge + "\n" + good + "\n", 2, 1},
		{"first and last", huge + "\n" + good + "\n" + huge + "\n", 1, 2},
		{"cut off by EOF", good + "\n" + huge, 1, 1},
		{"exactly the cap", atCap + "\n" + good + "\n", 2, 0},
		{"one byte over", atCap + " \n" + good + "\n", 1, 1},
		{"CRLF and blank lines", good + "\r\n\r\n\n" + good + "\r\n", 2, 0},
	} {
		st, err := ReadJSONL(strings.NewReader(c.in), func(Envelope) {})
		if err != nil || st.Decoded != c.decoded || st.Malformed != c.malformed {
			t.Errorf("%s: ReadJSONL = %+v, %v; want %d decoded, %d malformed",
				c.name, st, err, c.decoded, c.malformed)
		}
	}

	// Bounded memory: a 64 MiB line costs a pass what growing a spill to the
	// cap costs, not the line.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ReadJSONL(io.MultiReader(strings.NewReader(good+"\n"), io.LimitReader(xReader{}, 64<<20),
		strings.NewReader("\n"+good+"\n")), func(Envelope) {})
	runtime.ReadMemStats(&after)
	if err != nil || st.Decoded != 2 || st.Malformed != 1 {
		t.Fatalf("64 MiB line: ReadJSONL = %+v, %v", st, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxLineBytes {
		t.Fatalf("skipping a 64 MiB line allocated %d bytes", grew)
	}

	// A real I/O error still ends the pass, after the lines before it.
	boom := errors.New("boom")
	st, err = ReadJSONL(io.MultiReader(strings.NewReader(good+"\n"+good), iotest.ErrReader(boom)), func(Envelope) {})
	if !errors.Is(err, boom) || st.Decoded != 2 {
		t.Fatalf("I/O error: ReadJSONL = %+v, %v; want 2 decoded and the error", st, err)
	}
}

// xReader yields 'x' bytes forever.
type xReader struct{}

func (xReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// --- sharding ---

func TestShardOfStableAndInRange(t *testing.T) {
	k := Key{Metric: "rtt_ms", Region: "Beijing", Net: "WiFi"}
	first := k.ShardOf(8)
	for i := 0; i < 10; i++ {
		if got := k.ShardOf(8); got != first {
			t.Fatal("ShardOf not stable")
		}
	}
	// Field-boundary confusion must not collapse distinct tuples.
	a := Key{Metric: "ab", Region: "c", Net: ""}.ShardOf(1 << 16)
	b := Key{Metric: "a", Region: "bc", Net: ""}.ShardOf(1 << 16)
	if a == b {
		t.Error("field boundaries not separated in shard hash")
	}
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		k := Key{Metric: "m", Region: string(rune('a' + r.IntN(26))), Net: string(rune('A' + r.IntN(26)))}
		for _, n := range []int{1, 2, 7, 16} {
			if s := k.ShardOf(n); s < 0 || s >= n {
				t.Fatalf("ShardOf(%d) = %d out of range", n, s)
			}
		}
	}
}

// --- ingest + query ---

func TestIngestQueryMatchesBatchSummary(t *testing.T) {
	ing := NewIngestor(Config{Shards: 4, Window: time.Minute, Block: true})
	defer ing.Close()

	r := rng.New(21)
	const n = 8000
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	xs := make([]float64, n)
	regions := []string{"Beijing", "Shanghai", "Wuhan"}
	nets := []string{"WiFi", "LTE"}
	for i := range xs {
		xs[i] = r.LogNormal(3, 0.6)
		ok := ing.Offer(ev(base+int64(i)*100, MetricRTT,
			regions[i%len(regions)], nets[i%len(nets)], xs[i]))
		if !ok {
			t.Fatal("blocking offer refused")
		}
	}
	ing.Flush()

	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n {
		t.Fatalf("Count = %v, want %d", res.Count, n)
	}
	sum := stats.Summarize(xs)
	if res.Min != sum.Min() || res.Max != sum.Max() {
		t.Errorf("Min/Max = %v/%v, want %v/%v", res.Min, res.Max, sum.Min(), sum.Max())
	}
	for _, qe := range res.Quantiles {
		if got := math.Abs(sum.CDFAt(qe.Value) - qe.Q); got > 2*qe.RankError {
			t.Errorf("q=%v: rank error %.5f exceeds 2×bound %.5f", qe.Q, got, 2*qe.RankError)
		}
	}

	// Dimension filter: only Beijing/WiFi events (i ≡ 0 mod 6).
	var filtered []float64
	for i := 0; i < n; i += 6 {
		filtered = append(filtered, xs[i])
	}
	fres, err := ing.Query(QuerySpec{Metric: MetricRTT, Region: "Beijing", Net: "WiFi"})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Count != float64(len(filtered)) {
		t.Fatalf("filtered Count = %v, want %d", fres.Count, len(filtered))
	}

	// Unknown metric: empty result, not an error.
	empty, err := ing.Query(QuerySpec{Metric: "nope"})
	if err != nil || empty.Count != 0 || empty.Windows != 0 {
		t.Fatalf("unknown metric: %+v err=%v", empty, err)
	}
	if _, err := ing.Query(QuerySpec{}); err == nil {
		t.Fatal("metric-less query accepted")
	}
	if _, err := ing.Query(QuerySpec{Metric: "m", Quantiles: []float64{1.5}}); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
}

func TestWindowRangeQueries(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, Window: time.Minute, Block: true})
	defer ing.Close()

	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)
	// 10 events per minute for 10 minutes, value = minute index.
	for m := 0; m < 10; m++ {
		for i := 0; i < 10; i++ {
			ing.Offer(ev(base.Add(time.Duration(m)*time.Minute+time.Duration(i)*time.Second).UnixMilli(),
				MetricRTT, "r", "n", float64(m)))
		}
	}
	ing.Flush()

	full, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count != 100 || full.Windows != 10 {
		t.Fatalf("full query = count %v windows %d, want 100/10", full.Count, full.Windows)
	}

	// Only minutes [3,7).
	part, err := ing.Query(QuerySpec{
		Metric: MetricRTT,
		From:   base.Add(3 * time.Minute),
		To:     base.Add(7 * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if part.Count != 40 || part.Windows != 4 {
		t.Fatalf("range query = count %v windows %d, want 40/4", part.Count, part.Windows)
	}
	if part.Min != 3 || part.Max != 6 {
		t.Fatalf("range Min/Max = %v/%v, want 3/6", part.Min, part.Max)
	}

	// Unaligned bounds select every overlapping window whole: [3m30s, 6m30s)
	// overlaps windows 3,4,5,6 exactly like the aligned [3m, 7m).
	unaligned, err := ing.Query(QuerySpec{
		Metric: MetricRTT,
		From:   base.Add(3*time.Minute + 30*time.Second),
		To:     base.Add(6*time.Minute + 30*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if unaligned.Count != 40 || unaligned.Windows != 4 {
		t.Fatalf("unaligned range = count %v windows %d, want 40/4", unaligned.Count, unaligned.Windows)
	}
	// A To on an exact boundary stays exclusive of the window it starts.
	excl, err := ing.Query(QuerySpec{Metric: MetricRTT, To: base.Add(1 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if excl.Windows != 1 || excl.Max != 0 {
		t.Fatalf("boundary To = windows %d max %v, want 1 window of minute 0", excl.Windows, excl.Max)
	}

	keys := ing.Keys()
	if len(keys) != 1 || keys[0].Key != (Key{Metric: MetricRTT, Region: "r", Net: "n"}) || keys[0].Count != 100 {
		t.Fatalf("Keys = %+v", keys)
	}
}

// TestIngestDropAccounting fills a tiny queue with no consumer progress
// guaranteed and checks accepted+dropped always equals offered, and that a
// blocking ingestor never drops.
func TestIngestDropAccounting(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, QueueLen: 8})
	const offered = 5000
	accepted := 0
	for i := 0; i < offered; i++ {
		if ing.Offer(ev(int64(i+1), MetricRTT, "r", "n", 1)) {
			accepted++
		}
	}
	ing.Flush()
	st := ing.TotalStats()
	ing.Close()
	if int(st.Accepted) != accepted {
		t.Errorf("Accepted = %d, want %d", st.Accepted, accepted)
	}
	if st.Accepted+st.Dropped != offered {
		t.Errorf("accepted(%d) + dropped(%d) != offered(%d)", st.Accepted, st.Dropped, offered)
	}
	if st.Processed != st.Accepted {
		t.Errorf("Processed = %d, want %d after Flush", st.Processed, st.Accepted)
	}

	// Invalid envelopes are refused before any queue.
	ing2 := NewIngestor(Config{Shards: 1, Block: true})
	defer ing2.Close()
	if ing2.Offer(Envelope{V: 99, TS: 1, Metric: "m", Value: 1}) {
		t.Error("invalid envelope accepted")
	}
	if ing2.Offer(ev(1, "m", "r", "n", math.Inf(1))) {
		t.Error("non-finite value accepted")
	}
	if st := ing2.TotalStats(); st.Accepted != 0 {
		t.Errorf("invalid envelopes counted as accepted: %+v", st)
	}
}

// TestWindowRetention pins the MaxWindows memory contract: on an endless
// stream each shard keeps at most the cap, evicting whole oldest windows
// with the evictions counted.
func TestWindowRetention(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, Window: time.Minute, Block: true, MaxWindows: 3})
	defer ing.Close()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)
	const minutes = 10
	for m := 0; m < minutes; m++ {
		for i := 0; i < 5; i++ {
			ing.Offer(ev(base.Add(time.Duration(m)*time.Minute+time.Duration(i)*time.Second).UnixMilli(),
				MetricRTT, "r", "n", float64(m)))
		}
	}
	ing.Flush()
	st := ing.TotalStats()
	if st.Windows != 3 {
		t.Fatalf("retained windows = %d, want 3", st.Windows)
	}
	if st.EvictedWindows != minutes-3 {
		t.Fatalf("evicted = %d, want %d", st.EvictedWindows, minutes-3)
	}
	// Only the newest three minutes remain queryable.
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 15 || res.Min != minutes-3 || res.Max != minutes-1 {
		t.Fatalf("after eviction: count %v min %v max %v, want 15/%d/%d",
			res.Count, res.Min, res.Max, minutes-3, minutes-1)
	}
}

// TestWindowRetentionManyKeys pins that the cap counts time windows, not
// (window, key) rollup entries: with more dimension keys per window than
// MaxWindows, whole recent windows — every key — must survive.
func TestWindowRetentionManyKeys(t *testing.T) {
	const maxWin, keys, minutes = 3, 5, 8
	ing := NewIngestor(Config{Shards: 1, Window: time.Minute, Block: true, MaxWindows: maxWin})
	defer ing.Close()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"Beijing", "Shanghai", "Wuhan", "Chengdu", "Xian"}
	for m := 0; m < minutes; m++ {
		for k := 0; k < keys; k++ {
			ing.Offer(ev(base.Add(time.Duration(m)*time.Minute).UnixMilli()+int64(k),
				MetricRTT, regions[k], "WiFi", float64(m)))
		}
	}
	ing.Flush()
	st := ing.TotalStats()
	if st.Windows != maxWin || st.Rollups != maxWin*keys {
		t.Fatalf("windows/rollups = %d/%d, want %d/%d", st.Windows, st.Rollups, maxWin, maxWin*keys)
	}
	if st.EvictedWindows != minutes-maxWin {
		t.Fatalf("evicted = %d, want %d windows", st.EvictedWindows, minutes-maxWin)
	}
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	// The newest cap windows survive in full: every key, every event.
	if res.Count != float64(maxWin*keys) || res.Min != minutes-maxWin || res.Max != minutes-1 {
		t.Fatalf("after eviction: count %v min %v max %v, want %d/%d/%d",
			res.Count, res.Min, res.Max, maxWin*keys, minutes-maxWin, minutes-1)
	}
	for _, reg := range regions {
		pr, err := ing.Query(QuerySpec{Metric: MetricRTT, Region: reg})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Count != maxWin {
			t.Fatalf("region %s count = %v, want %d", reg, pr.Count, maxWin)
		}
	}
}

// TestIngestDeterministicForFixedShardCount pins the replay determinism
// contract: same event stream + same shard count ⇒ identical query answers,
// run to run.
func TestIngestDeterministicForFixedShardCount(t *testing.T) {
	events := campaignEvents(t)
	answer := func() []QuantileEstimate {
		ing := NewIngestor(Config{Shards: 4, Window: time.Minute, Block: true})
		defer ing.Close()
		Replay(ing, events)
		res, err := ing.Query(QuerySpec{Metric: MetricRTT})
		if err != nil {
			t.Fatal(err)
		}
		return res.Quantiles
	}
	first := answer()
	for i := 0; i < 3; i++ {
		if got := answer(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got, first)
		}
	}
}

// --- replay cross-check (acceptance criterion) ---

func campaignEvents(t *testing.T) []Envelope {
	t.Helper()
	r := rng.New(1)
	c := crowd.NewCampaign(r.Fork("campaign"), scenario.CrowdSpec{Users: 40, Repeats: 8})
	return LatencyEvents(crowd.NewObservationStore(c, r.Fork("latency")))
}

// TestReplayMatchesBatchSummary is the PR's acceptance pin: streaming
// p50/p95/p99 over the replayed campaign latency match the exact batch
// stats.Summary within twice the sketch's documented rank-error bound.
func TestReplayMatchesBatchSummary(t *testing.T) {
	r := rng.New(1)
	c := crowd.NewCampaign(r.Fork("campaign"), scenario.CrowdSpec{Users: 60, Repeats: 10})
	obs := crowd.NewObservationStore(c, r.Fork("latency"))
	events := LatencyEvents(obs)

	ing := NewIngestor(Config{Shards: 4, Window: time.Minute, Block: true})
	defer ing.Close()
	st := Replay(ing, events)
	if st.Dropped != 0 || st.Accepted != len(events) {
		t.Fatalf("lossless replay violated: %+v", st)
	}

	batch := stats.Summarize(obs.AppendMedianRTTs(nil, 0, true))

	res, err := ing.Query(QuerySpec{Metric: MetricRTT, Quantiles: []float64{0.5, 0.95, 0.99}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != float64(obs.Len()) {
		t.Fatalf("streamed count %v != batch %d", res.Count, obs.Len())
	}
	for _, qe := range res.Quantiles {
		rankErr := math.Abs(batch.CDFAt(qe.Value) - qe.Q)
		if rankErr > 2*qe.RankError {
			t.Errorf("p%g: streaming=%.3f batch=%.3f rank error %.5f exceeds 2×bound %.5f",
				qe.Q*100, qe.Value, batch.Percentile(qe.Q*100), rankErr, 2*qe.RankError)
		}
	}

	// Per-dimension cross-check: each access network separately.
	for _, net := range []string{"WiFi", "LTE"} {
		var sub []float64
		for i := 0; i < obs.Len(); i++ {
			if o := obs.Row(i); o.Access.String() == net {
				sub = append(sub, o.MedianRTTMs)
			}
		}
		if len(sub) == 0 {
			continue
		}
		bsum := stats.Summarize(sub)
		nres, err := ing.Query(QuerySpec{Metric: MetricRTT, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		if nres.Count != float64(len(sub)) {
			t.Fatalf("%s count %v != %d", net, nres.Count, len(sub))
		}
		for _, qe := range nres.Quantiles {
			if got := math.Abs(bsum.CDFAt(qe.Value) - qe.Q); got > 2*qe.RankError {
				t.Errorf("%s p%g: rank error %.5f exceeds 2×bound %.5f", net, qe.Q*100, got, 2*qe.RankError)
			}
		}
	}
}

// TestQueryDuringIngest exercises the live path: queries racing a producer
// — and each other — must observe a consistent (locked) rollup state. Run
// under -race this also proves the ingest/query locking and that concurrent
// queries share no fold scratch: once the stream has settled, every reader
// gives the same bytes.
func TestQueryDuringIngest(t *testing.T) {
	ing := NewIngestor(Config{Shards: 4, Window: time.Minute, Block: true})
	defer ing.Close()
	spec := QuerySpec{Metric: MetricRTT}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			ing.Offer(ev(int64(i+1)*50, MetricRTT, "r"+strconv.Itoa(i%7), "n", float64(i%100)))
		}
	}()
	read := func() string {
		res, err := ing.Query(spec)
		if err != nil {
			t.Error(err)
		}
		page, err := ing.MatchSketches(spec)
		if err != nil {
			t.Error(err)
		}
		merged, err := MergeSketchPages(spec, []SketchPage{page})
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprintf("%+v | %+v", res, merged)
	}
	readers := func(n, rounds int) []string {
		out := make([]string, n)
		var wg sync.WaitGroup
		for r := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					out[r] = read()
					ing.Keys()
					ing.Stats()
				}
			}()
		}
		wg.Wait()
		return out
	}
	readers(4, 25)
	<-done
	ing.Flush()
	res, err := ing.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4000 {
		t.Fatalf("final count = %v, want 4000", res.Count)
	}
	want := fmt.Sprintf("%+v | %+v", res, res)
	for r, got := range readers(4, 5) {
		if got != want {
			t.Fatalf("settled reader %d:\n got %s\nwant %s", r, got, want)
		}
	}
}
