package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
)

// TestIngestorExposesMetrics pins the pipeline's exposition contract: after a
// workload exercising ingest, dedup, WAL, eviction and a query, /metrics-style
// output covers every subsystem, lints clean, and agrees with Stats().
func TestIngestorExposesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ing := NewIngestor(Config{
		Shards:   2,
		Window:   time.Minute,
		Block:    true,
		Metrics:  reg,
		WAL:      WALConfig{Dir: t.TempDir(), SyncEvery: 4},
		QueueLen: 64,
	})
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := 0; i < 50; i++ {
		if i == 25 {
			// A checkpoint mid-stream, so both halves of "what would a
			// restart load and replay" read nonzero below.
			ing.Flush()
			if err := ing.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		e := Envelope{V: SchemaVersion, TS: base + int64(i)*1000, Metric: MetricRTT, Region: "Beijing", Net: "WiFi", User: 1, Seq: uint64(i + 1), Value: float64(i)}
		if !ing.Offer(e) {
			t.Fatalf("offer %d refused", i)
		}
	}
	// A duplicate for the dedup counter.
	dup := Envelope{V: SchemaVersion, TS: base, Metric: MetricRTT, Region: "Beijing", Net: "WiFi", User: 1, Seq: 1, Value: 0}
	ing.Offer(dup)
	ing.Flush()
	if err := ing.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Query(QuerySpec{Metric: MetricRTT}); err != nil {
		t.Fatal(err)
	}
	page, err := ing.MatchSketches(QuerySpec{Metric: MetricRTT})
	if err != nil || len(page.Matches) != 1 || page.Matches[0].Windows != 1 {
		t.Fatalf("sketch page = %+v, err %v: want the one key's one window folded", page.Matches, err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"telemetry_ingest_accepted_total",
		"telemetry_ingest_processed_total",
		"telemetry_ingest_deduped_total",
		"telemetry_wal_appended_total",
		"telemetry_wal_fsyncs_total",
		"telemetry_wal_lag_records",
		"telemetry_snapshot_bytes",
		"telemetry_wal_bytes_since_snapshot",
		"telemetry_shard_queue_depth",
		"telemetry_shard_rollup_windows",
		"telemetry_query_seconds_count",
		"telemetry_sketches_seconds_count",
		"telemetry_sketches_folded_rollups_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	samples := reg.Snapshot()
	total := ing.TotalStats()
	var accepted, deduped, walAppended, snapBytes, sinceBytes float64
	for _, s := range samples {
		switch s.Name {
		case "telemetry_ingest_accepted_total":
			accepted += s.Value
		case "telemetry_ingest_deduped_total":
			deduped += s.Value
		case "telemetry_wal_appended_total":
			walAppended += s.Value
		case "telemetry_snapshot_bytes":
			snapBytes += s.Value
		case "telemetry_wal_bytes_since_snapshot":
			sinceBytes += s.Value
		}
	}
	if uint64(accepted) != total.Accepted {
		t.Errorf("metrics accepted = %v, Stats = %d", accepted, total.Accepted)
	}
	if uint64(deduped) != total.Deduped || deduped == 0 {
		t.Errorf("metrics deduped = %v, Stats = %d (want nonzero)", deduped, total.Deduped)
	}
	if uint64(walAppended) != total.WALAppended {
		t.Errorf("metrics wal appended = %v, Stats = %d", walAppended, total.WALAppended)
	}
	if uint64(snapBytes) != total.SnapshotBytes || snapBytes == 0 {
		t.Errorf("metrics snapshot bytes = %v, Stats = %d (want nonzero)", snapBytes, total.SnapshotBytes)
	}
	if uint64(sinceBytes) != total.WALBytesSinceSnapshot || sinceBytes == 0 {
		t.Errorf("metrics wal bytes since snapshot = %v, Stats = %d (want nonzero)", sinceBytes, total.WALBytesSinceSnapshot)
	}
	if s, ok := obs.Find(samples, "telemetry_query_seconds_count"); !ok || s.Value != 1 {
		t.Errorf("query latency count = %+v ok=%v, want 1", s, ok)
	}
	// Only MatchSketches moves the /sketches families; Query has its own.
	if s, ok := obs.Find(samples, "telemetry_sketches_seconds_count"); !ok || s.Value != 1 {
		t.Errorf("sketches latency count = %+v ok=%v, want 1", s, ok)
	}
	if s, ok := obs.Find(samples, "telemetry_sketches_folded_rollups_total"); !ok || s.Value != 1 {
		t.Errorf("folded rollups = %+v ok=%v, want 1", s, ok)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDropCounterExposed covers the drop counter: a full queue with a parked
// worker drops the envelope that finds it full into
// telemetry_ingest_dropped_total.
func TestDropCounterExposed(t *testing.T) {
	reg := obs.NewRegistry()
	ing := NewIngestor(Config{Shards: 1, QueueLen: 8, Metrics: reg})
	defer ing.Close()
	s := ing.shards[0]
	s.mu.Lock()
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := 0; ; i++ {
		if !ing.Offer(Envelope{V: SchemaVersion, TS: base + int64(i), Metric: MetricRTT, Region: "Beijing", Net: "WiFi", Value: 1}) {
			break
		}
	}
	s.mu.Unlock()
	if smp, ok := obs.Find(reg.Snapshot(), "telemetry_ingest_dropped_total", "shard", "0"); !ok || smp.Value != 1 {
		t.Fatalf("drop counter = %+v ok=%v, want 1", smp, ok)
	}
}

// TestRetryClientStatsRaceFree is the -race pin for the Stats data race: a
// monitor goroutine polls Stats while SendAll retries against a flaky
// transport. Before the counters became atomics this was a write/read race
// on plain uint64 fields.
func TestRetryClientStatsRaceFree(t *testing.T) {
	reg := obs.NewRegistry()
	flip := false
	transport := func(Envelope) bool { flip = !flip; return flip }
	c := NewRetryClient(transport, rng.New(7).Fork("client-race"), RetryConfig{
		Sleep:   func(time.Duration) {},
		Metrics: reg,
	})
	base := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	events := make([]Envelope, 200)
	for i := range events {
		events[i] = Envelope{V: SchemaVersion, TS: base + int64(i), Metric: MetricRTT, Region: "Beijing", Net: "WiFi", User: 1, Value: 1}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Stats()
				reg.Snapshot()
			}
		}
	}()
	if n := c.SendAll(events); n != len(events) {
		t.Fatalf("acknowledged %d of %d", n, len(events))
	}
	close(done)
	wg.Wait()
	st := c.Stats()
	if st.Sent != 200 || st.Retries == 0 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 200 sent, some retries, 0 failed", st)
	}
	if s, ok := obs.Find(reg.Snapshot(), "telemetry_client_retries_total"); !ok || uint64(s.Value) != st.Retries {
		t.Fatalf("registry retries = %+v ok=%v, stats %d", s, ok, st.Retries)
	}
	if s, ok := obs.Find(reg.Snapshot(), "telemetry_client_backoff_seconds_count"); !ok || uint64(s.Value) != st.Retries {
		t.Fatalf("backoff observations = %+v ok=%v, want %d", s, ok, st.Retries)
	}
}
