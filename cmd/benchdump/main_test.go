package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkFigure2aRTT-8  852  1407703 ns/op  288455 B/op  3548 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "Figure2aRTT-8" {
		t.Fatalf("name = %q, want the full name (suffix handling is run-wide)", r.Name)
	}
	if r.Iterations != 852 || r.NsPerOp != 1407703 || r.BytesPerOp != 288455 || r.AllocsPerOp != 3548 {
		t.Fatalf("parsed = %+v", r)
	}
	if _, ok := parseBenchLine("ok  	edgescope	1.2s"); ok {
		t.Fatal("non-bench line parsed")
	}
	if _, ok := parseBenchLine("BenchmarkX-8 notanumber 12 ns/op"); ok {
		t.Fatal("bad iteration count parsed")
	}
}

// TestSubBenchNamesSurviveOnSingleCPU pins the bug this parser used to have:
// on a GOMAXPROCS=1 machine go test appends no suffix, and the old per-line
// `-N` stripping collapsed TelemetryIngest/shards-1 and /shards-4 into one
// duplicated BENCH.json key.
func TestSubBenchNamesSurviveOnSingleCPU(t *testing.T) {
	out := `goos: linux
scenario: small
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTelemetryIngest/shards-1  100  23854 ns/op  1008 B/op  6 allocs/op
BenchmarkTelemetryIngest/shards-4  100  20639 ns/op  1104 B/op  7 allocs/op
BenchmarkSketchAdd  100  661 ns/op  16 B/op  1 allocs/op
`
	var f File
	scenario, _, err := parseStream(strings.NewReader(out), &f)
	if err != nil {
		t.Fatal(err)
	}
	if scenario != "small" {
		t.Fatalf("scenario = %q", scenario)
	}
	if f.CPU == "" {
		t.Fatal("cpu line not captured")
	}
	want := []string{"TelemetryIngest/shards-1", "TelemetryIngest/shards-4", "SketchAdd"}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(f.Benchmarks), len(want))
	}
	for i, w := range want {
		if f.Benchmarks[i].Name != w {
			t.Fatalf("name[%d] = %q, want %q", i, f.Benchmarks[i].Name, w)
		}
	}
}

// TestGOMAXPROCSSuffixStrippedWhenUniform covers the multi-CPU case: every
// name of a run carries the same -N suffix, which is metadata, not identity.
func TestGOMAXPROCSSuffixStrippedWhenUniform(t *testing.T) {
	out := `BenchmarkTelemetryIngest/shards-1-8  100  23854 ns/op
BenchmarkTelemetryIngest/shards-4-8  100  20639 ns/op
BenchmarkSketchAdd-8  100  661 ns/op
`
	var f File
	if _, _, err := parseStream(strings.NewReader(out), &f); err != nil {
		t.Fatal(err)
	}
	want := []string{"TelemetryIngest/shards-1", "TelemetryIngest/shards-4", "SketchAdd"}
	for i, w := range want {
		if f.Benchmarks[i].Name != w {
			t.Fatalf("name[%d] = %q, want %q", i, f.Benchmarks[i].Name, w)
		}
	}
}

// TestMixedCPUSweepKeepsSuffixes: a -cpu 1,2 sweep has non-uniform suffixes,
// all of which are identity and must survive.
func TestMixedCPUSweepKeepsSuffixes(t *testing.T) {
	out := `BenchmarkSketchAdd  100  661 ns/op
BenchmarkSketchAdd-2  100  400 ns/op
`
	var f File
	if _, _, err := parseStream(strings.NewReader(out), &f); err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks[0].Name != "SketchAdd" || f.Benchmarks[1].Name != "SketchAdd-2" {
		t.Fatalf("names = %q, %q", f.Benchmarks[0].Name, f.Benchmarks[1].Name)
	}
}

// TestSingleBenchmarkRunKeptVerbatim: with one benchmark there is no
// run-wide evidence that a trailing -N is the GOMAXPROCS suffix (a filtered
// `-bench 'shards-4$'` run on a 1-CPU machine ends in a legit -4), so the
// name is recorded as printed.
func TestSingleBenchmarkRunKeptVerbatim(t *testing.T) {
	var f File
	if _, _, err := parseStream(strings.NewReader("BenchmarkTelemetryIngest/shards-4  100  20639 ns/op\n"), &f); err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks[0].Name != "TelemetryIngest/shards-4" {
		t.Fatalf("name = %q, want verbatim", f.Benchmarks[0].Name)
	}
}

func TestCompareGate(t *testing.T) {
	base := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 50},
		{Name: "Steady", NsPerOp: 10, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "Removed", NsPerOp: 5, BytesPerOp: 5, AllocsPerOp: 1},
	}}
	cur := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", NsPerOp: 900, BytesPerOp: 1200, AllocsPerOp: 50}, // +20% B/op
		{Name: "Steady", NsPerOp: 11, BytesPerOp: 110, AllocsPerOp: 11},         // +10% — inside tolerance
		{Name: "Added", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1},
	}}
	var sb strings.Builder
	failures := compareFiles(&sb, base, cur, []string{"RunAllSerial", "Steady"}, 0.15, false, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "RunAllSerial") {
		t.Fatalf("failures = %v, want one RunAllSerial regression", failures)
	}
	tbl := sb.String()
	for _, want := range []string{"RunAllSerial", "Steady", "Removed", "Added", "+20.0%"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("delta table missing %q:\n%s", want, tbl)
		}
	}

	// A gated benchmark missing from the new snapshot must fail, not pass
	// silently.
	failures = compareFiles(&strings.Builder{}, base, cur, []string{"Removed"}, 0.15, false, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "Removed") {
		t.Fatalf("failures = %v, want missing-gate failure", failures)
	}

	// A gated name in NEITHER file (rename, gate-list typo) must also fail —
	// it never enters the name loop, which is how it could silently disarm
	// the gate.
	failures = compareFiles(&strings.Builder{}, base, cur, []string{"Tyop"}, 0.15, false, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "Tyop") {
		t.Fatalf("failures = %v, want missing-from-both failure", failures)
	}

	// Improvements and within-tolerance drift pass.
	failures = compareFiles(&strings.Builder{}, base, cur, nil, 0.15, false, 0.30)
	if len(failures) != 0 {
		t.Fatalf("ungated compare returned failures: %v", failures)
	}

	// allocs/op is gated independently of B/op: a swarm of tiny allocations
	// (allocs 100×, bytes flat) must trip the gate.
	tiny := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 5000},
	}}
	failures = compareFiles(&strings.Builder{}, base, tiny, []string{"RunAllSerial"}, 0.15, false, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("failures = %v, want one allocs/op regression", failures)
	}
}

func TestRegressed(t *testing.T) {
	if regressed(100, 110, 0.15) {
		t.Fatal("+10% inside a 15% budget flagged")
	}
	if !regressed(100, 120, 0.15) {
		t.Fatal("+20% outside a 15% budget not flagged")
	}
	if regressed(100, 50, 0.15) {
		t.Fatal("improvement flagged")
	}
	if !regressed(0, 1, 0.15) {
		t.Fatal("zero baseline must only accept zero")
	}
}

// TestNsGateOptIn covers the opt-in wall-time gate: off by default, its own
// wider tolerance when on, and 1-iteration entries advisory-only.
func TestNsGateOptIn(t *testing.T) {
	base := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 1, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "SampleRTTBatch", Iterations: 5000, NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
	}}
	cur := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 1, NsPerOp: 2000, BytesPerOp: 100, AllocsPerOp: 10},  // +100% ns, 1 iter
		{Name: "SampleRTTBatch", Iterations: 5000, NsPerOp: 150, BytesPerOp: 0, AllocsPerOp: 0}, // +50% ns
	}}
	gates := []string{"RunAllSerial", "SampleRTTBatch"}

	// Default: ns/op not gated at all — both regressions pass.
	if failures := compareFiles(&strings.Builder{}, base, cur, gates, 0.15, false, 0.30); len(failures) != 0 {
		t.Fatalf("ns regressions failed the gate without -gate-ns: %v", failures)
	}

	// Opted in: the multi-iteration regression fails, the 1-iteration one is
	// advisory only.
	var sb strings.Builder
	failures := compareFiles(&sb, base, cur, gates, 0.15, true, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "SampleRTTBatch") || !strings.Contains(failures[0], "ns/op") {
		t.Fatalf("failures = %v, want one SampleRTTBatch ns/op failure", failures)
	}
	if out := sb.String(); !strings.Contains(out, "advisory") || !strings.Contains(out, "RunAllSerial") {
		t.Fatalf("1-iteration ns regression not reported as advisory:\n%s", out)
	}

	// Inside the wider ns budget: passes.
	curOK := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 2, NsPerOp: 1100, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "SampleRTTBatch", Iterations: 5000, NsPerOp: 120, BytesPerOp: 0, AllocsPerOp: 0},
	}}
	if failures := compareFiles(&strings.Builder{}, base, curOK, gates, 0.15, true, 0.30); len(failures) != 0 {
		t.Fatalf("within-ns-budget drift failed: %v", failures)
	}
}

// TestGatedNewBenchmarkIsAdvisory: a gated benchmark added in the same
// change as its gate entry (present only in NEW) must not fail the compare —
// there is no baseline to regress against.
func TestGatedNewBenchmarkIsAdvisory(t *testing.T) {
	base := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 2, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
	}}
	cur := &File{Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 2, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "ObserveWalk", Iterations: 50, NsPerOp: 7, BytesPerOp: 7, AllocsPerOp: 7},
	}}
	var sb strings.Builder
	failures := compareFiles(&sb, base, cur, []string{"RunAllSerial", "ObserveWalk"}, 0.15, false, 0.30)
	if len(failures) != 0 {
		t.Fatalf("new gated benchmark failed the compare: %v", failures)
	}
	if out := sb.String(); !strings.Contains(out, "advisory") || !strings.Contains(out, "ObserveWalk") {
		t.Fatalf("new gated benchmark not noted as advisory:\n%s", out)
	}
}

// TestCheckRatio covers the multi-core scaling pin: gating only when the
// snapshot was recorded on >=4 CPUs, advisory otherwise, and loud failure
// when either half of the RunAll pair is missing.
func TestCheckRatio(t *testing.T) {
	pair := func(serialNs, parallelNs float64, cpus int) *File {
		return &File{NumCPU: cpus, Benchmarks: []Result{
			{Name: "RunAllSerial", Iterations: 2, NsPerOp: serialNs},
			{Name: "RunAllParallel", Iterations: 2, NsPerOp: parallelNs},
		}}
	}

	// Scaling snapshot on a multi-core host: passes.
	var sb strings.Builder
	if err := checkRatio(&sb, pair(1000, 400, 8), 0.9); err != nil {
		t.Fatalf("scaling 8-CPU snapshot failed: %v", err)
	}
	if !strings.Contains(sb.String(), "0.400") {
		t.Fatalf("ratio not reported:\n%s", sb.String())
	}

	// Non-scaling snapshot on a multi-core host: gates.
	if err := checkRatio(&strings.Builder{}, pair(1000, 980, 8), 0.9); err == nil {
		t.Fatal("non-scaling 8-CPU snapshot passed the gate")
	}

	// Same numbers recorded on 1 CPU: advisory only — GOMAXPROCS=4 on a
	// single core time-slices, the ratio carries no signal.
	sb.Reset()
	if err := checkRatio(&sb, pair(1000, 1050, 1), 0.9); err != nil {
		t.Fatalf("1-CPU snapshot gated: %v", err)
	}
	if !strings.Contains(sb.String(), "advisory") {
		t.Fatalf("1-CPU over-budget ratio not noted as advisory:\n%s", sb.String())
	}

	// Missing half of the pair: fails loudly regardless of CPU count.
	half := &File{NumCPU: 8, Benchmarks: []Result{
		{Name: "RunAllSerial", Iterations: 2, NsPerOp: 1000},
	}}
	if err := checkRatio(&strings.Builder{}, half, 0.9); err == nil {
		t.Fatal("snapshot missing RunAllParallel passed")
	}
	// Zero serial denominator: fails, no NaN/Inf verdicts.
	if err := checkRatio(&strings.Builder{}, pair(0, 400, 8), 0.9); err == nil {
		t.Fatal("zero-serial snapshot passed")
	}
}

// TestDedupeKeepsMostIterations: ci.sh re-benches the RunAll pair at an
// iteration-count -benchtime after the main sweep; the recorded snapshot
// must carry one entry per name — the higher-iteration measurement.
func TestDedupeKeepsMostIterations(t *testing.T) {
	out := `scenario: small
BenchmarkRunAllSerial  1  2000000000 ns/op  1000 B/op  50 allocs/op
BenchmarkSketchAdd  100  661 ns/op  16 B/op  1 allocs/op
BenchmarkRunAllSerial  2  1900000000 ns/op  1000 B/op  50 allocs/op
`
	var f File
	if _, _, err := parseStream(strings.NewReader(out), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 (deduped)", len(f.Benchmarks))
	}
	if f.Benchmarks[0].Name != "RunAllSerial" || f.Benchmarks[0].Iterations != 2 {
		t.Fatalf("dedupe kept %+v, want the 2-iteration rerun in first-seen position", f.Benchmarks[0])
	}
	if f.Benchmarks[1].Name != "SketchAdd" {
		t.Fatalf("order disturbed: %+v", f.Benchmarks[1])
	}
}

// e2eReport is one bench/e2e run's report as the harness prints it.
func e2eReport(workload string, seed int, ops, rss float64, correct bool) string {
	return fmt.Sprintf(`workload %s seed %d seconds 20 trace false
  ops_per_s     %f 1/s
  attempted 10 failed 0 correct %v
summary {"claim":null,"go":"go1.24.0","nproc":2,"seed":%d,"warnings":0,"workload":%q}
{"correct":%v,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":%v,"unit":"1/s"},"peak_rss_mb":{"value":%v,"unit":"MB"}}}
`, workload, seed, ops, correct, seed, workload, correct, ops, rss)
}

// TestTrajectoryAppendsMedians pins trajectory mode: bench/e2e reports are
// grouped per (workload, seed) into medians, each entry is appended as one
// line, and earlier entries are written back byte for byte.
func TestTrajectoryAppendsMedians(t *testing.T) {
	stream := e2eReport("single-ingest", 1, 500, 130, true) +
		e2eReport("single-ingest", 1, 480, 128, true) +
		e2eReport("batch-paper", 1, 0.4, 34, true) +
		e2eReport("single-ingest", 1, 510, 140, true) +
		e2eReport("single-ingest", 2, 490, 129, true) +
		e2eReport("single-ingest", 2, 470, 131, true)
	var f File
	_, runs, err := parseStream(strings.NewReader(stream), &f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 0 || len(runs) != 6 {
		t.Fatalf("parsed %d benchmarks and %d runs, want 0 and 6", len(f.Benchmarks), len(runs))
	}
	e, err := trajectoryEntry(runs, time.Date(2026, 10, 18, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	want := []e2eWorkload{
		{Workload: "single-ingest", Seed: 1, Runs: 3, Seconds: 20, NProc: 2, Go: "go1.24.0", Medians: map[string]float64{"ops_per_s": 500, "peak_rss_mb": 130}},
		{Workload: "batch-paper", Seed: 1, Runs: 1, Seconds: 20, NProc: 2, Go: "go1.24.0", Medians: map[string]float64{"ops_per_s": 0.4, "peak_rss_mb": 34}},
		{Workload: "single-ingest", Seed: 2, Runs: 2, Seconds: 20, NProc: 2, Go: "go1.24.0", Medians: map[string]float64{"ops_per_s": 480, "peak_rss_mb": 130}},
	}
	if !reflect.DeepEqual(e.Workloads, want) {
		t.Fatalf("entry workloads\n%+v\nwant\n%+v", e.Workloads, want)
	}

	path := filepath.Join(t.TempDir(), "BENCH_E2E.json")
	if err := appendEntry(path, e); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	e.RecordedAt = "later"
	if err := appendEntry(path, e); err != nil {
		t.Fatal(err)
	}
	both, _ := os.ReadFile(path)
	if !bytes.HasPrefix(both, first[:len(first)-len("\n]\n")]) {
		t.Fatalf("the second append rewrote the first entry:\n%s\nthen\n%s", first, both)
	}
	var entries []e2eEntry
	if err := json.Unmarshal(both, &entries); err != nil || len(entries) != 2 || entries[1].RecordedAt != "later" {
		t.Fatalf("trajectory after two appends: %d entries, err %v:\n%s", len(entries), err, both)
	}
	if n := bytes.Count(both, []byte("\n")); n != 4 {
		t.Fatalf("want one line per entry plus the brackets, got %d lines", n)
	}
}

// TestTrajectoryRefusals: a run that is not correct, a traced run and a
// BENCH.json-shaped target are refused rather than recorded.
func TestTrajectoryRefusals(t *testing.T) {
	for name, stream := range map[string]string{
		"incorrect": e2eReport("single-ingest", 1, 500, 130, false),
		"traced":    strings.Replace(e2eReport("single-ingest", 1, 500, 130, true), "trace false", "trace true", 1),
	} {
		var f File
		_, runs, err := parseStream(strings.NewReader(stream), &f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trajectoryEntry(runs, time.Now()); err == nil {
			t.Errorf("%s run recorded", name)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendEntry(path, e2eEntry{}); err == nil {
		t.Error("appended a trajectory entry to a BENCH.json object")
	}
}
