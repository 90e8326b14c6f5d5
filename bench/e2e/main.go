// Command e2e is the repository's end-to-end benchmark. It builds
// cmd/telemetryd and cmd/reproall, boots real daemon subprocesses on
// loopback, drives them over HTTP from this one process with two
// connections, checks every answer, and prints every metric by name with its
// unit. README.md in this directory says what each workload and metric is
// for; BENCHMARK.json at the repository root is the machine-readable
// contract.
//
//	go run ./bench/e2e -workload single-ingest -seed 1 -seconds 20 -trace 0
//	go run ./bench/e2e -workload query-under-ingest -trace 1   # per-layer metrics + Chrome trace
//	go run ./bench/e2e -agree 3                                 # two interleaved sets per workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything the harness writes goes
// under .bench_build/e2e in the working directory, which must be the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadTimeout fails a run whose daemons wedge instead of letting it hang
// the caller.
const workloadTimeout = 170 * time.Second

var workloadNames = []string{"single-ingest", "cluster-ingest", "query-under-ingest", "batch-paper"}

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	setUps  int // how many times the serving workloads set up; setup_s is the median
}

// metricDef is one metric the harness reports.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// result is what one run of one workload found.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string // why the run is not correct
	warnings  []string // why its numbers may be off
	notes     []string
	e2e       map[string]float64
	layers    map[string]float64
	// asMeasured holds the timed end-to-end figures before they were scaled
	// to the reference speed (speed.go): printed beside them, and what the
	// traced replay's own unscaled timings are set against.
	asMeasured map[string]float64
}

func newResult(workload string) *result {
	r := &result{workload: workload, e2e: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range perLayer {
		r.layers[d.name] = 0 // what a workload does not exercise stays 0
	}
	return r
}

func (r *result) fail(msg string) { r.failures = append(r.failures, msg) }

func (r *result) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, then the contract line.
func (r *result) print(opt options) error {
	defs, vals := endToEnd, r.e2e
	if opt.trace {
		defs, vals = perLayer, r.layers
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", r.workload, opt.seed, opt.seconds, opt.trace)
	line := contractLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		if raw, ok := r.asMeasured[d.name]; ok && !opt.trace {
			fmt.Printf("  %-42s %14.4f %-4s (as measured %.4f)\n", d.name, v, d.unit, raw)
		} else {
			fmt.Printf("  %-42s %14.4f %s\n", d.name, v, d.unit)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", r.attempted, r.failed, r.correct())
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, w := range r.warnings {
		fmt.Println("  WARNING:", w)
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	summary, err := json.Marshal(map[string]any{
		"workload": r.workload, "seed": opt.seed, "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"warnings": len(r.warnings), "claim": nil,
	})
	if err != nil {
		return err
	}
	fmt.Printf("summary %s\n", summary)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// runWorkload measures one workload under the hard timeout.
func runWorkload(r *rig, name string, opt options) (*result, error) {
	timer := time.AfterFunc(workloadTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench/e2e: %s exceeded %v; killing its daemons\n", name, workloadTimeout)
		r.dumpStderr(os.Stderr)
		r.close()
		os.Exit(3)
	})
	defer timer.Stop()
	run := func() (*result, error) { return runBatch(r, opt) }
	if name != "batch-paper" {
		i := slices.IndexFunc(servingSpecs, func(s servingSpec) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		run = func() (*result, error) { return runServing(r, newWorld(opt.seed), servingSpecs[i], opt) }
	}
	return run()
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (outside counters + traced in-process replay) instead of the end-to-end ones")
	agree := flag.Int("agree", 0, "run the selected workloads as two interleaved sets of N runs and compare their medians against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench/e2e: bad arguments; see -h")
		os.Exit(2)
	}
	os.Exit(run(*workload, options{seed: *seed, seconds: *seconds, trace: *trace == 1, setUps: 3}, *agree))
}

// run is main without os.Exit, so deferred clean-up always happens.
func run(workload string, opt options, agree int) (code int) {
	if opt.trace {
		opt.setUps = 1 // setup_s is not reported; the time goes to the replay
	}
	names := workloadNames
	if workload != "all" {
		names = []string{workload}
	}
	if err := checkRig(); err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e: refusing to start:", err)
		return 2
	}
	r, err := newRig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e: refusing to start:", err)
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.close()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			r.close()
			panic(p)
		}
		r.close()
	}()
	if agree > 0 {
		return runAgree(r, names, opt, agree)
	}
	for _, name := range names {
		res, err := runWorkload(r, name, opt)
		if err == nil {
			err = res.print(opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench/e2e: %s: %v\n", name, err)
			r.dumpStderr(os.Stderr)
			return 1
		}
	}
	return 0
}

// runAgree runs each workload as two interleaved sets of n runs (A B A B …)
// and compares the sets' medians per end-to-end metric against the bounds in
// BENCHMARK.json. Identical code on both sides: any disagreement is the
// benchmark's own noise, which is what this mode exists to size.
func runAgree(r *rig, names []string, opt options, n int) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e:", err)
		return 2
	}
	opt.trace = false
	bad := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			o := opt
			o.seed = opt.seed + uint64(i)
			res, err := runWorkload(r, name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench/e2e: %s: %v\n", name, err)
				r.dumpStderr(os.Stderr)
				return 1
			}
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "bench/e2e: %s seed %d incorrect: %v\n", name, o.seed, res.failures)
				return 1
			}
			for k, v := range res.e2e {
				sets[i%2][k] = append(sets[i%2][k], v)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > bounds[d.name] {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("agree %-20s %-14s A %12.4f  B %12.4f  diff %5.1f%%  bound %4.0f%%  %s\n",
				name, d.name, a, b, diff*100, bounds[d.name]*100, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// readBounds takes each end-to-end metric's bound from BENCHMARK.json, the
// one place they are fixed.
func readBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json has no bound for %s", d.name)
		}
	}
	return out, nil
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
