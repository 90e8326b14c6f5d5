package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"edgescope/internal/obs"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (tele metryd) x)) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 567 0 0 20 0 9 0 100 200 300\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(1234+567) * 10 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 telemetryd S 1")); err == nil {
		t.Error("a stat line without a command field parsed")
	}
	if _, err := parseStatCPU([]byte("4242 (telemetryd) S 1 2 3")); err == nil {
		t.Error("a truncated stat line parsed")
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\ttelemetryd\nVmPeak:\t 1240000 kB\nVmHWM:\t   53212 kB\nVmRSS:\t   50000 kB\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 53212 {
		t.Errorf("VmHWM = %d kB, want 53212", got)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("a missing field parsed")
	}
}

func TestParseHostCPU(t *testing.T) {
	a, err := parseHostCPU([]byte("cpu  1000 10 500 8000 40 0 50 400 0 0\ncpu0 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 10000 || a.steal != 400 {
		t.Fatalf("parsed %+v, want total 10000 steal 400", a)
	}
	b, err := parseHostCPU([]byte("cpu  1100 10 550 8190 40 0 50 460 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.stolenShare(b); got != 0.15 {
		t.Errorf("stolen share = %v, want 60 of 400 ticks = 0.15", got)
	}
	if got := a.stolenShare(a); got != 0 {
		t.Errorf("stolen share over no time = %v, want 0", got)
	}
	if _, err := parseHostCPU([]byte("cpu0 1 2 3 4 5 6 7 8\n")); err == nil {
		t.Error("a per-CPU line parsed as the aggregate")
	}
}

func TestPrometheusHistogramDelta(t *testing.T) {
	const before = `# HELP telemetry_wal_fsync_seconds WAL fsync batch latency
# TYPE telemetry_wal_fsync_seconds histogram
telemetry_wal_fsync_seconds_bucket{shard="0",le="0.001"} 3
telemetry_wal_fsync_seconds_bucket{shard="0",le="+Inf"} 4
telemetry_wal_fsync_seconds_sum{shard="0"} 0.5
telemetry_wal_fsync_seconds_count{shard="0"} 4
telemetry_wal_fsync_seconds_sum{shard="1"} 0.25
telemetry_wal_fsync_seconds_count{shard="1"} 2
telemetry_wal_fsyncs_total{shard="0"} 4
telemetry_wal_fsyncs_total{shard="1"} 2
telemetry_query_seconds_sum 1.5
`
	const after = `telemetry_wal_fsync_seconds_bucket{shard="0",le="+Inf"} 10
telemetry_wal_fsync_seconds_sum{shard="0"} 1.5
telemetry_wal_fsync_seconds_count{shard="0"} 10
telemetry_wal_fsync_seconds_sum{shard="1"} 1.25
telemetry_wal_fsync_seconds_count{shard="1"} 6
telemetry_wal_fsyncs_total{shard="0"} 10
telemetry_wal_fsyncs_total{shard="1"} 6
telemetry_query_seconds_sum 1.75
telemetry_shard_queue_depth{shard="0"} 7
`
	a, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"telemetry_wal_fsync_seconds_sum":   2.0, // both shards
		"telemetry_wal_fsync_seconds_count": 10,
		"telemetry_wal_fsyncs_total":        10,
		"telemetry_query_seconds_sum":       0.25, // no labels
		"telemetry_shard_queue_depth":       7,    // absent before
		"telemetry_never_exported":          0,
	} {
		if got := b.delta(a, name); got != want {
			t.Errorf("delta(%s) = %v, want %v", name, got, want)
		}
	}
	if _, ok := b["telemetry_wal_fsync_seconds_bucket"]; ok {
		t.Error("bucket samples were kept")
	}
	if _, err := parseProm(strings.NewReader("telemetry_x{shard=\"0\"} not-a-number\n")); err == nil {
		t.Error("a malformed sample parsed")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	now := int64(0)
	tr := obs.NewTracer(func() int64 { return now })
	at := func(ns int64) { now = ns }

	at(0)
	req := tr.Begin("request", 0)
	at(10)
	dec := tr.Begin("envelope.decode", req)
	at(40)
	tr.End(dec)
	at(45)
	off := tr.Begin("ingest.offer", req)
	at(65)
	tr.End(off)
	at(70)
	tr.End(req)
	at(100)
	req2 := tr.Begin("request", 0)
	dec2 := tr.Begin("envelope.decode", req2)
	at(150)
	tr.End(dec2)
	tr.End(req2)

	st := selfTimes(tr.Spans())
	for name, want := range map[string]layerTime{
		"request":         {self: 20, total: 120, count: 2}, // 70 − 30 − 20, and 50 − 50
		"envelope.decode": {self: 80, total: 80, count: 2},
		"ingest.offer":    {self: 20, total: 20, count: 1},
	} {
		if st[name] != want {
			t.Errorf("%s = %+v, want %+v", name, st[name], want)
		}
	}
	if table := layerTable(st, nil); len(table) != 4 || !strings.HasPrefix(table[1], "envelope.decode") {
		t.Errorf("layer table %q, want a header and three layers, envelope.decode first", table)
	}
}

func TestWaitingForAStealPhaseIsBounded(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(workDir, "waited_s")
	calls := 0
	again := func() (float64, error) { calls++; return 0.3, nil }

	// Quiet set-ups: no waiting, nothing recorded.
	if _, err := waitOutSteal(busyStolen, again); err != nil || calls != 0 {
		t.Fatalf("quiet set-ups: err %v, %d more set-ups", err, calls)
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Errorf("quiet set-ups wrote the ledger (%v)", err)
	}

	// Stolen set-ups, but the checkout's allowance is spent: measure now.
	spent := strconv.FormatFloat(maxWaitAll.Seconds(), 'f', 1, 64)
	if err := os.WriteFile(ledger, []byte(spent+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	note, err := waitOutSteal(0.3, again)
	if err != nil || calls != 0 || !strings.Contains(note, "gave up with 30% still stolen") {
		t.Errorf("spent allowance: err %v, %d more set-ups, note %q", err, calls, note)
	}
}
