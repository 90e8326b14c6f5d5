package telemetry

import (
	"strconv"

	"edgescope/internal/obs"
)

// Self-observability wiring. The ingestor registers its instrument families
// on Config.Metrics — a private registry nothing scrapes when the caller
// names none — and binds every shard's accounting cells to registered
// series: the same cells Stats()/Health() read, so /metrics and /healthz can
// never disagree.
//
// Hot-path discipline: counters are pre-resolved at Open (no label lookup
// per event), and gauges that mirror live state (queue depth, WAL lag,
// rollup counts) are refreshed by an OnCollect hook only when something
// scrapes.

// ingestMetrics holds the registered families and per-ingestor instruments.
type ingestMetrics struct {
	accepted, dropped, processed, deduped, compactions, evicted *obs.CounterVec
	sealed                                                      *obs.CounterVec
	walAppended, walFsyncs, walFileSync                         *obs.CounterVec
	queueDepth, walLag, windows, rollups, rollupBytes, keys     *obs.GaugeVec
	snapBytes, sinceBytes                                       *obs.GaugeVec
	walAppend, walFsync, snapshot                               *obs.HistogramVec
	query, sketches, fold                                       *obs.Histogram
	foldedRollups, memoHits, memoMisses                         *obs.Counter

	recoveryReplayed, recoverySkipped, recoveryDuration *obs.Gauge
}

// walLatencyBuckets resolve microsecond-scale buffered appends and
// millisecond-scale fsyncs: 1µs..~4s, ×4 per step.
var walLatencyBuckets = obs.ExpBuckets(1e-6, 4, 12)

// newIngestMetrics registers the telemetry families on reg. One Ingestor
// per registry: families are registered once, so a second Ingestor sharing
// the registry would panic on the duplicate.
func newIngestMetrics(reg *obs.Registry) *ingestMetrics {
	return &ingestMetrics{
		accepted:    reg.CounterVec("telemetry_ingest_accepted_total", "envelopes enqueued into the shard", "shard"),
		dropped:     reg.CounterVec("telemetry_ingest_dropped_total", "envelopes rejected at a hard-full queue", "shard"),
		processed:   reg.CounterVec("telemetry_ingest_processed_total", "envelopes consumed from the queue (folded or deduped)", "shard"),
		deduped:     reg.CounterVec("telemetry_ingest_deduped_total", "sequenced duplicates folded zero times", "shard"),
		compactions: reg.CounterVec("telemetry_dedup_compactions_total", "dedup tracker sparse-window compactions (floor advanced over a gap)", "shard"),
		evicted:     reg.CounterVec("telemetry_windows_evicted_total", "time windows evicted under MaxWindows retention", "shard"),
		sealed:      reg.CounterVec("telemetry_shard_rollups_sealed_total", "closed rollups sealed to their flushed form: a key's previous-newest rollup holding at least δ buffered points when the key folds its first event of a newer window", "shard"),
		walAppended: reg.CounterVec("telemetry_wal_appended_total", "records appended to the write-ahead log", "shard"),
		walFsyncs:   reg.CounterVec("telemetry_wal_fsyncs_total", "WAL fsync batches completed (syncs that found a segment written since the last)", "shard"),
		walFileSync: reg.CounterVec("telemetry_wal_file_fsyncs_total", "WAL segment files fsynced, by a batch or by handle-cap eviction (directory fsyncs excluded)", "shard"),
		queueDepth:  reg.GaugeVec("telemetry_shard_queue_depth", "envelopes waiting in the shard's bounded queue", "shard"),
		walLag:      reg.GaugeVec("telemetry_wal_lag_records", "records appended but not yet fsynced (lost if the process crashes now)", "shard"),
		windows:     reg.GaugeVec("telemetry_shard_rollup_windows", "distinct time windows held by the shard", "shard"),
		rollups:     reg.GaugeVec("telemetry_shard_rollups", "(window, key) sketches held by the shard", "shard"),
		rollupBytes: reg.GaugeVec("telemetry_shard_rollup_bytes", "bytes held by the point lists of the shard's rollup sketches, by capacity: 16 B a centroid, 8 B a unit-weight buffered point, 16 B once a sketch buffers another weight (closed windows are trimmed to their exact size)", "shard"),
		keys:        reg.GaugeVec("telemetry_shard_keys", "distinct (metric, region, net) keys held by the shard", "shard"),
		snapBytes:   reg.GaugeVec("telemetry_snapshot_bytes", "size of the shard's last checkpoint (what a restart loads)", "shard"),
		sinceBytes:  reg.GaugeVec("telemetry_wal_bytes_since_snapshot", "WAL bytes logged since the shard's last checkpoint (what a restart replays)", "shard"),
		walAppend:   reg.HistogramVec("telemetry_wal_append_seconds", "logged fold latency, observed once per run of envelopes the shard worker drains from its queue (once per part of a run a checkpoint splits): the run's WAL appends and sketch folds, including the fsync when an append crosses the SyncEvery cadence", walLatencyBuckets, "shard"),
		walFsync:    reg.HistogramVec("telemetry_wal_fsync_seconds", "WAL fsync batch latency", walLatencyBuckets, "shard"),
		snapshot:    reg.HistogramVec("telemetry_snapshot_seconds", "shard checkpoint latency (WAL fsync + encode + atomic rename)", nil, "shard"),
		query:       reg.Histogram("telemetry_query_seconds", "Query latency: shard scan, per-key fold, key-ordered merge of the folds and evaluation", nil),
		sketches:    reg.Histogram("telemetry_sketches_seconds", "MatchSketches latency per /sketches request (the node's share of a cluster query): shard scan, per-key fold, seal and sketch encode", nil),
		fold:        reg.Histogram("telemetry_fold_seconds", "fold stage of a query, observed once per shard pass that folds any rollup (a pass the fold memo answers whole is not observed): flush of each copied-out rollup to its flushed form, per-key absorb, seal and encode, outside the shard lock", nil),

		foldedRollups: reg.Counter("telemetry_sketches_folded_rollups_total", "(window, key) rollups folded by queries into per-key sketches (a fold memo hit folds none)"),
		memoHits:      reg.Counter("telemetry_sketches_memo_hits_total", "per-key query folds answered from the fold memo (the key's picked rollups unchanged since)"),
		memoMisses:    reg.Counter("telemetry_sketches_memo_misses_total", "per-key query folds computed from the rollups (and memoised)"),

		recoveryReplayed: reg.Gauge("telemetry_recovery_records_replayed", "WAL records replayed by the startup recovery pass"),
		recoverySkipped:  reg.Gauge("telemetry_recovery_records_skipped", "WAL records skipped at recovery (already in the snapshot)"),
		recoveryDuration: reg.Gauge("telemetry_recovery_duration_seconds", "wall time of the startup recovery pass"),
	}
}

// bind points one shard's accounting cells at the registered series.
func (m *ingestMetrics) bind(s *shard, i int) {
	l := strconv.Itoa(i)
	s.accepted = m.accepted.With(l)
	s.dropped = m.dropped.With(l)
	s.processed = m.processed.With(l)
	s.deduped = m.deduped.With(l)
	s.compactions = m.compactions.With(l)
	s.evicted = m.evicted.With(l)
	s.sealed = m.sealed.With(l)
	s.walAppendHist = m.walAppend.With(l)
	s.snapshotHist = m.snapshot.With(l)
}

// bindWAL points one shard WAL's instruments at the registered series.
func (m *ingestMetrics) bindWAL(w *shardWAL, i int) {
	l := strconv.Itoa(i)
	w.appendedC = m.walAppended.With(l)
	w.fsyncsC = m.walFsyncs.With(l)
	w.fileFsyncsC = m.walFileSync.With(l)
	w.fsyncHist = m.walFsync.With(l)
}

// installCollectHook registers the scrape-time gauge refresh: queue depth,
// WAL lag, rollup population and bytes, key population and checkpoint
// accounting per shard, read under each shard's lock only when something
// actually collects. The gauge series are resolved in the hook, so an Open
// whose registry nothing scrapes (a nil Config.Metrics) never builds them.
func (ing *Ingestor) installCollectHook() {
	m := ing.m
	ing.cfg.Metrics.OnCollect(func() {
		for i, s := range ing.shards {
			l := strconv.Itoa(i)
			lag, snapBytes, sinceBytes := m.walLag.With(l), m.snapBytes.With(l), m.sinceBytes.With(l)
			m.queueDepth.With(l).Set(float64(s.q.len()))
			s.mu.Lock()
			m.windows.With(l).Set(float64(len(s.starts)))
			rollups, bytes := s.rollups()
			m.rollups.With(l).Set(float64(rollups))
			m.rollupBytes.With(l).Set(float64(bytes))
			m.keys.With(l).Set(float64(len(s.keys)))
			if s.wal != nil {
				lag.Set(float64(s.wal.lag()))
				snapBytes.Set(float64(s.wal.snapBytes))
				sinceBytes.Set(float64(s.wal.sinceBytes))
			}
			s.mu.Unlock()
		}
	})
}
