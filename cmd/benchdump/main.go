// Command benchdump converts `go test -bench` output into a machine-readable
// BENCH.json so successive PRs can track the performance trajectory of the
// paper-artifact benchmarks (ns/op, B/op, allocs/op per benchmark), and
// compares two such snapshots as a delta table with an optional regression
// gate for CI.
//
// Record mode:
//
//	go test -bench . -benchmem -run xxx . | go run ./cmd/benchdump -out BENCH.json
//
// Lines that are not benchmark results (test chatter, pkg headers) are
// ignored; the cpu/scenario context lines are captured when present. Entries
// that ran exactly one iteration are kept but flagged on stderr: a
// 1-iteration number is a single sample, not a statistic — raise -benchtime
// if it matters.
//
// Trajectory mode: when stdin carries `go run ./bench/e2e` reports instead,
// benchdump appends one entry of per-workload medians to -out, a JSON array
// that only grows (BENCH_E2E.json; see trajectory.go):
//
//	cat change-runs/*.txt | go run ./cmd/benchdump -out BENCH_E2E.json
//
// Compare mode:
//
//	go run ./cmd/benchdump -compare \
//	    [-gate RunAllSerial,Table6Cost] [-tolerance 0.15] \
//	    [-gate-ns -ns-tolerance 0.30] BASE.json NEW.json
//
// prints old/new/delta for ns/op, B/op and allocs/op of every benchmark
// present in either file. With -gate, the named benchmarks' B/op and
// allocs/op must not regress by more than -tolerance (fractional, default
// 0.15): any gated benchmark that does — or that is gone from the NEW
// file — fails the run with exit status 1. A gated benchmark present only
// in NEW is advisory (a benchmark added in the same change as its gate
// entry has no baseline yet); one present in neither file still fails
// loudly (renamed benchmark or gate typo). Gates compare the allocation
// metrics by default, not ns/op, on purpose: allocated bytes and counts are
// stable across machines and load, wall time is not.
//
// -gate-ns opts gated benchmarks into wall-time regression gating too, with
// its own (wider) -ns-tolerance — off by default so loaded single-CPU CI
// machines don't flake the build. Entries that ran exactly one iteration on
// either side are exempt from the ns/op gate and reported as advisory: a
// single sample is not a statistic to fail a build on (B/op and allocs/op
// stay hard-gated — allocation counts are exact even at 1 iteration).
//
// Ratio-check mode:
//
//	go run ./cmd/benchdump -ratio-check [-ratio-max 0.9] BENCH_MULTICORE.json
//
// verifies that the snapshot's RunAllParallel wall time is at most
// -ratio-max of RunAllSerial's — the multi-core scaling pin behind `make
// bench-multicore`. The verdict is gating only when the snapshot was
// recorded on a host with >= 4 CPUs (the File carries num_cpu): with
// fewer cores GOMAXPROCS=4 just time-slices one or two ways and the
// ratio hovers around 1.0, so on 1-CPU CI the check prints its verdict
// as advisory and exits 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// File is the BENCH.json schema.
type File struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	CPU         string `json:"cpu,omitempty"`
	// Scenario names the experiment scenario the benchmarks ran (the
	// artifact benchmarks share one suite), so successive BENCH.json
	// snapshots compare like against like.
	Scenario   string   `json:"scenario,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output path (- for stdout)")
	scn := flag.String("scenario", "", "scenario name the benchmarks were sized by (default: the `scenario:` context line the bench suite prints)")
	compare := flag.Bool("compare", false, "compare two BENCH.json files (args: BASE NEW), print a delta table")
	gate := flag.String("gate", "", "comma-separated benchmark names whose B/op must not regress past -tolerance (compare mode)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional B/op regression for gated benchmarks (compare mode)")
	gateNs := flag.Bool("gate-ns", false, "also gate ns/op of the -gate benchmarks (compare mode; 1-iteration entries stay advisory)")
	nsTolerance := flag.Float64("ns-tolerance", 0.30, "allowed fractional ns/op regression for gated benchmarks when -gate-ns is set")
	ratioCheck := flag.Bool("ratio-check", false, "check the RunAllParallel/RunAllSerial ns ratio of one snapshot (arg: FILE.json); gating only when recorded on >=4 CPUs")
	ratioMax := flag.Float64("ratio-max", 0.9, "max allowed parallel/serial ns ratio for -ratio-check on >=4-CPU snapshots")
	flag.Parse()

	if *ratioCheck {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchdump: -ratio-check needs exactly one arg: FILE.json")
			os.Exit(2)
		}
		f, err := readFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdump: %v\n", err)
			os.Exit(2)
		}
		if err := checkRatio(os.Stdout, f, *ratioMax); err != nil {
			fmt.Fprintf(os.Stderr, "benchdump: RATIO FAIL: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchdump: -compare needs exactly two args: BASE.json NEW.json")
			os.Exit(2)
		}
		base, err := readFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdump: %v\n", err)
			os.Exit(2)
		}
		cur, err := readFile(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdump: %v\n", err)
			os.Exit(2)
		}
		var gates []string
		for _, g := range strings.Split(*gate, ",") {
			if g = strings.TrimSpace(g); g != "" {
				gates = append(gates, g)
			}
		}
		failures := compareFiles(os.Stdout, base, cur, gates, *tolerance, *gateNs, *nsTolerance)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchdump: GATE FAIL: %s\n", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		return
	}

	f := File{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Scenario:    *scn,
	}
	scenarioLine, runs, err := parseStream(os.Stdin, &f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdump: read: %v\n", err)
		os.Exit(1)
	}
	if len(runs) > 0 {
		if len(f.Benchmarks) > 0 {
			fmt.Fprintln(os.Stderr, "benchdump: stdin mixes bench/e2e runs with go test benchmark lines; record them separately")
			os.Exit(1)
		}
		e, err := trajectoryEntry(runs, time.Now())
		if err == nil {
			err = appendEntry(*out, e)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdump: trajectory: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchdump: appended %d runs of %d workloads to %s\n", len(runs), len(e.Workloads), *out)
		return
	}
	if f.Scenario == "" {
		f.Scenario = scenarioLine
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchdump: no benchmark lines found on stdin")
		os.Exit(1)
	}
	for _, r := range f.Benchmarks {
		if r.Iterations == 1 {
			fmt.Fprintf(os.Stderr, "benchdump: warning: %s ran 1 iteration — a single sample, not a statistic; raise -benchtime for meaningful numbers\n", r.Name)
		}
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdump: encode: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchdump: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdump: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
}

// parseStream scans bench output into f and returns the `scenario:` context
// line's value (the -scenario flag wins over it at the call site), along
// with the bench/e2e runs the stream carries (trajectory.go).
func parseStream(r io.Reader, f *File) (scenario string, runs []e2eRun, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var e2e e2eScanner
	for sc.Scan() {
		line := sc.Text()
		ok, err := e2e.line(line)
		if err != nil {
			return "", nil, err
		}
		if ok {
			continue
		}
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			f.CPU = strings.TrimSpace(cpu)
			continue
		}
		if s, ok := strings.CutPrefix(line, "scenario: "); ok {
			scenario = strings.TrimSpace(s)
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			f.Benchmarks = append(f.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	f.Benchmarks = stripGOMAXPROCSSuffix(f.Benchmarks)
	f.Benchmarks = dedupeKeepMostIterations(f.Benchmarks)
	return scenario, e2e.runs, nil
}

// dedupeKeepMostIterations collapses duplicate benchmark names to a single
// entry, keeping the measurement with the most iterations. A recorded
// stream may legitimately contain duplicates: ci.sh re-runs the heavyweight
// RunAll pair at an iteration-count -benchtime after the main sweep so the
// snapshot carries a ≥2-iteration ns/op for them, and the higher-iteration
// run is the better statistic. First-seen order is preserved.
func dedupeKeepMostIterations(rs []Result) []Result {
	at := make(map[string]int, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if i, ok := at[r.Name]; ok {
			if r.Iterations > out[i].Iterations {
				out[i] = r
			}
			continue
		}
		at[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFigure2aRTT-8  852  1407703 ns/op  288455 B/op  3548 allocs/op
//
// The name is kept in full (minus the Benchmark prefix): per-line suffix
// stripping cannot tell a GOMAXPROCS suffix from a sub-benchmark name that
// ends in a number (TelemetryIngest/shards-1 vs shards-4 used to collapse
// into one duplicated key). stripGOMAXPROCSSuffix handles the real suffix
// across the whole run.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, seen = v, true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, seen
}

// stripGOMAXPROCSSuffix removes the `-N` GOMAXPROCS suffix go test appends
// to every benchmark of a run (only when GOMAXPROCS != 1). It is a run-wide
// property, so it is stripped only when every name of a multi-benchmark run
// carries the same all-digits suffix — a sub-benchmark that legitimately
// ends in `-1` on a single-CPU machine (where go test appends nothing)
// survives intact, and mixed `-cpu 1,2,4` sweeps keep their distinct names.
// A single-benchmark run is inherently ambiguous (one shared suffix is no
// evidence), so it is recorded verbatim; record full sweeps, not one
// filtered benchmark, when the snapshot feeds compare mode.
func stripGOMAXPROCSSuffix(rs []Result) []Result {
	if len(rs) < 2 {
		return rs
	}
	suffix := ""
	for i, r := range rs {
		cut := strings.LastIndex(r.Name, "-")
		if cut <= 0 {
			return rs
		}
		n := r.Name[cut:]
		if len(n) < 2 {
			return rs
		}
		if _, err := strconv.Atoi(n[1:]); err != nil {
			return rs
		}
		if i == 0 {
			suffix = n
		} else if n != suffix {
			return rs
		}
	}
	for i := range rs {
		rs[i].Name = strings.TrimSuffix(rs[i].Name, suffix)
	}
	return rs
}

func readFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles writes the delta table to w and returns the gate failures.
func compareFiles(w io.Writer, base, cur *File, gates []string, tolerance float64, gateNs bool, nsTolerance float64) []string {
	baseBy := map[string]Result{}
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	curBy := map[string]Result{}
	for _, r := range cur.Benchmarks {
		curBy[r.Name] = r
	}
	names := make([]string, 0, len(baseBy)+len(curBy))
	for n := range baseBy {
		names = append(names, n)
	}
	for n := range curBy {
		if _, ok := baseBy[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	gated := map[string]bool{}
	for _, g := range gates {
		gated[g] = true
	}

	fmt.Fprintf(w, "%-34s %13s %13s %8s %13s %13s %8s %10s %10s %8s\n",
		"benchmark", "ns/op old", "ns/op new", "Δ", "B/op old", "B/op new", "Δ",
		"allocs old", "allocs new", "Δ")
	var failures []string
	for _, n := range names {
		b, hasBase := baseBy[n]
		c, hasCur := curBy[n]
		mark := " "
		if gated[n] {
			mark = "*"
		}
		switch {
		case !hasBase:
			fmt.Fprintf(w, "%s%-33s %13s %13.0f %8s %13s %13.0f %8s %10s %10.0f %8s\n",
				mark, n, "-", c.NsPerOp, "new", "-", c.BytesPerOp, "new", "-", c.AllocsPerOp, "new")
		case !hasCur:
			fmt.Fprintf(w, "%s%-33s %13.0f %13s %8s %13.0f %13s %8s %10.0f %10s %8s\n",
				mark, n, b.NsPerOp, "-", "gone", b.BytesPerOp, "-", "gone", b.AllocsPerOp, "-", "gone")
		default:
			fmt.Fprintf(w, "%s%-33s %13.0f %13.0f %8s %13.0f %13.0f %8s %10.0f %10.0f %8s\n",
				mark, n, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp),
				b.BytesPerOp, c.BytesPerOp, pct(b.BytesPerOp, c.BytesPerOp),
				b.AllocsPerOp, c.AllocsPerOp, pct(b.AllocsPerOp, c.AllocsPerOp))
		}
		if gated[n] {
			switch {
			case !hasBase && hasCur:
				// A gated benchmark that exists only in NEW was added in the
				// same change as its gate entry: there is no baseline to
				// regress against yet, so it is advisory, not a failure —
				// the refreshed snapshot becomes its baseline.
				fmt.Fprintf(w, "(advisory: gated %s is new — no baseline yet)\n", n)
			case !hasCur:
				failures = append(failures, fmt.Sprintf("%s: missing from new file", n))
			default:
				if regressed(b.BytesPerOp, c.BytesPerOp, tolerance) {
					failures = append(failures,
						fmt.Sprintf("%s: B/op %0.f → %0.f (%s), over the %+.0f%% budget",
							n, b.BytesPerOp, c.BytesPerOp, pct(b.BytesPerOp, c.BytesPerOp), tolerance*100))
				}
				// allocs/op is gated too: a swarm of tiny allocations can
				// regress GC pressure 100× while staying inside the B/op
				// budget (the Figure 14 win was an allocs/op win first).
				if regressed(b.AllocsPerOp, c.AllocsPerOp, tolerance) {
					failures = append(failures,
						fmt.Sprintf("%s: allocs/op %0.f → %0.f (%s), over the %+.0f%% budget",
							n, b.AllocsPerOp, c.AllocsPerOp, pct(b.AllocsPerOp, c.AllocsPerOp), tolerance*100))
				}
				if gateNs {
					switch {
					case b.Iterations == 1 || c.Iterations == 1:
						// A 1-iteration wall time is one sample, not a
						// statistic — never fail the build on it.
						if regressed(b.NsPerOp, c.NsPerOp, nsTolerance) {
							fmt.Fprintf(w, "(advisory: %s ns/op %0.f → %0.f (%s) exceeds the ns budget but ran %d/%d iterations — not gated)\n",
								n, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp), b.Iterations, c.Iterations)
						}
					case regressed(b.NsPerOp, c.NsPerOp, nsTolerance):
						failures = append(failures,
							fmt.Sprintf("%s: ns/op %0.f → %0.f (%s), over the %+.0f%% ns budget",
								n, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp), nsTolerance*100))
					}
				}
			}
		}
	}
	// A gated name present in neither file never enters the loop above —
	// a renamed benchmark or a typo in the gate list must fail loudly, not
	// silently disarm the gate.
	for _, g := range gates {
		_, inBase := baseBy[g]
		_, inCur := curBy[g]
		if !inBase && !inCur {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from both files (renamed? typo in -gate?)", g))
		}
	}
	if len(gates) > 0 {
		fmt.Fprintf(w, "(* = gated: B/op and allocs/op may not regress more than %.0f%%)\n", tolerance*100)
		if gateNs {
			fmt.Fprintf(w, "(gated ns/op budget: %.0f%%; 1-iteration entries advisory)\n", nsTolerance*100)
		}
	}
	return failures
}

// checkRatio verifies the multi-core scaling pin of a snapshot: the RunAll
// reproduction at -parallel 0 must actually be faster than the serial run
// when the recording host had cores to scale across. Below 4 recorded CPUs
// the ratio carries no signal (GOMAXPROCS=4 on a 1-CPU box just time-slices,
// and the parallel run's scheduling overhead can even push it past 1.0), so
// the verdict is printed as advisory and nil is returned.
func checkRatio(w io.Writer, f *File, maxRatio float64) error {
	var serial, parallel *Result
	for i := range f.Benchmarks {
		switch f.Benchmarks[i].Name {
		case "RunAllSerial":
			serial = &f.Benchmarks[i]
		case "RunAllParallel":
			parallel = &f.Benchmarks[i]
		}
	}
	if serial == nil || parallel == nil {
		return fmt.Errorf("snapshot must contain both RunAllSerial and RunAllParallel (have serial=%v parallel=%v)",
			serial != nil, parallel != nil)
	}
	if serial.NsPerOp <= 0 {
		return fmt.Errorf("RunAllSerial ns/op is %v — not a usable denominator", serial.NsPerOp)
	}
	ratio := parallel.NsPerOp / serial.NsPerOp
	fmt.Fprintf(w, "parallel/serial ratio: %.3f (RunAllParallel %.0f ns/op / RunAllSerial %.0f ns/op; recorded on %d CPUs, budget %.2f)\n",
		ratio, parallel.NsPerOp, serial.NsPerOp, f.NumCPU, maxRatio)
	if f.NumCPU < 4 {
		if ratio > maxRatio {
			fmt.Fprintf(w, "(advisory: ratio %.3f exceeds the %.2f budget, but the snapshot was recorded on %d CPU(s) — no parallelism to measure, not gated)\n",
				ratio, maxRatio, f.NumCPU)
		}
		return nil
	}
	if ratio > maxRatio {
		return fmt.Errorf("parallel/serial ratio %.3f exceeds the %.2f budget on a %d-CPU snapshot — parallel reproduction is not scaling",
			ratio, maxRatio, f.NumCPU)
	}
	return nil
}

// regressed reports whether new exceeds old by more than the fractional
// tolerance. A zero baseline only passes a zero measurement.
func regressed(old, new, tolerance float64) bool {
	if old == 0 {
		return new > 0
	}
	return (new-old)/old > tolerance
}

func pct(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "0%"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}
