// Command reproall regenerates every table and figure of the paper in one
// run and prints them in paper order. Artifacts are built concurrently over
// a dependency-aware worker pool (substrates first, then independent
// artifacts), and an artifact that loops over independent items (users,
// VMs) fans that loop out too; -parallel is the one worker count for both,
// so -parallel 1 is a serial pass. Stdout is byte-identical for a given
// scenario regardless of -parallel (the wall-time report goes to stderr).
// With -csvdir it also exports each artifact as CSV for external plotting.
//
// The experiment sizing comes from the declarative scenario layer:
// -scenario accepts a built-in name (see -list) or a path to a JSON spec
// file (default: small), and -dump-scenario prints a built-in as JSON to
// edit into a custom scenario.
//
// Profiling the reproduction itself is first-class: -cpuprofile and
// -memprofile write pprof profiles of the artifact run (the heap profile is
// taken after a final GC, so it shows what the run retains, and the
// inuse/alloc spaces show where the churn was). This is the profile-first
// workflow the README's Performance section documents.
//
// Observability of the run itself: -trace writes a Chrome trace-event JSON
// timeline of the scheduled DAG — one span per substrate and artifact on the
// track of the worker that ran it, plus the campaign's chunked observation
// fan-out — viewable at ui.perfetto.dev or chrome://tracing. -times-json
// writes the per-artifact wall-time report as machine-readable JSON
// ({"id","kind","wall_ns","worker"} records). Both are observation-only:
// stdout stays byte-identical with or without them.
//
// Usage:
//
//	reproall [-seed N] [-scenario NAME|file.json]
//	         [-parallel N] [-csvdir DIR] [-only id,id,...] [-ext]
//	         [-quiet-times] [-list] [-dump-scenario NAME]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-trace FILE] [-times-json FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"edgescope/internal/core"
	"edgescope/internal/obs"
	"edgescope/internal/par"
	"edgescope/internal/scenario"
)

func main() {
	seed := flag.Uint64("seed", 1, "experiment seed override (same seed → identical outputs; default: the scenario's)")
	scn := flag.String("scenario", "small", "scenario name from the registry, or path to a JSON spec")
	list := flag.Bool("list", false, "print all valid artifact IDs and registered scenario names, then exit")
	dump := flag.String("dump-scenario", "", "print the named scenario spec as JSON (a template for custom scenarios), then exit")
	parallel := flag.Int("parallel", 0, "worker count, for the artifact pool and for the fan-out inside an artifact (0 = one worker per CPU; 1 = a serial pass)")
	csvdir := flag.String("csvdir", "", "directory to export per-artifact CSVs")
	only := flag.String("only", "", "comma-separated artifact IDs to run (default all)")
	ext := flag.Bool("ext", false, "also run the extension experiments (density/migration/scheduling)")
	quietTimes := flag.Bool("quiet-times", false, "suppress the per-artifact wall-time report (stderr)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the artifact run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file after the run")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto)")
	timesJSON := flag.String("times-json", "", "write the per-artifact wall-time report as JSON to this file")
	flag.Parse()

	if *list {
		fmt.Println("artifacts:")
		for _, id := range core.ArtifactIDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("scenarios:")
		for _, name := range scenario.Names() {
			fmt.Printf("  %-14s %s\n", name, scenario.Notes(name))
		}
		return
	}
	if *dump != "" {
		sp, err := scenario.Resolve(*dump)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproall: %v\n", err)
			os.Exit(2)
		}
		if err := scenario.Encode(os.Stdout, sp); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	suite, err := core.SuiteFromFlags(flag.CommandLine, *scn, "seed", *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproall: %v\n", err)
		os.Exit(2)
	}

	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproall: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pf.Close()
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(nil)
		suite.SetTracer(tracer)
	}

	cpu0, cpuOK := processCPU()
	start := time.Now()
	results, err := suite.RunArtifacts(context.Background(), *parallel, ids, *ext)
	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile() // flush the partial profile before exiting
		}
		fmt.Fprintf(os.Stderr, "reproall: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	cpu1, _ := processCPU()

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}

	for _, a := range results {
		if a.Artifact == nil {
			continue
		}
		fmt.Printf("\n# %s — %s\n", a.ID, a.Desc)
		if err := a.Artifact.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: render %s: %v\n", a.ID, err)
			os.Exit(1)
		}
		if *csvdir != "" {
			if err := exportCSV(*csvdir, a); err != nil {
				fmt.Fprintf(os.Stderr, "reproall: %v\n", err)
				os.Exit(1)
			}
		}
	}

	// Timings go to stderr: stdout stays byte-identical for a given scenario
	// regardless of -parallel, so `reproall > out.txt` is diffable.
	if !*quietTimes {
		fmt.Fprintf(os.Stderr, "\n# wall time per artifact (scenario=%s seed=%d workers=%d, total %v)\n",
			suite.Name(), suite.Seed, par.Workers(*parallel), wall.Round(time.Millisecond))
		var sum time.Duration
		for _, a := range results {
			kind := "artifact "
			if a.Artifact == nil {
				kind = "substrate"
			}
			fmt.Fprintf(os.Stderr, "  %s %-26s %10v\n", kind, a.ID, a.Elapsed.Round(time.Microsecond))
			sum += a.Elapsed
		}
		// A node that fans out is on several CPUs for its wall time, so the
		// node-wall sum is neither CPU time nor a speedup; the process's own
		// rusage over the run is.
		fmt.Fprintf(os.Stderr, "  node-wall sum %v\n", sum.Round(time.Millisecond))
		if cpuOK {
			cpu := cpu1 - cpu0
			fmt.Fprintf(os.Stderr, "  process cpu %v user+sys over the run, utilisation ×%.2f (cpu ÷ wall)\n",
				cpu.Round(time.Millisecond), float64(cpu)/float64(wall))
		}
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: trace: %v (results above are complete)\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "reproall: trace written to %s (open at ui.perfetto.dev)\n", *traceFile)
	}
	if *timesJSON != "" {
		if err := writeTimesJSON(*timesJSON, results); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: times-json: %v (results above are complete)\n", err)
			os.Exit(1)
		}
	}

	// The heap profile is written last, after every artifact and CSV is out:
	// the profile is a diagnostic side-channel and must never discard a
	// completed run's results. A write failure still exits non-zero so
	// scripted profiling notices.
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "reproall: memprofile: %v (results above are complete)\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "reproall: heap profile written to %s (go tool pprof -alloc_space %s)\n",
			*memprofile, *memprofile)
	}
}

// writeTrace serializes the recorded span timeline as Chrome trace JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeRecord is one -times-json entry: where one scheduled unit's wall time
// went and which pool slot ran it.
type timeRecord struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // "substrate" or "artifact"
	WallNS int64  `json:"wall_ns"`
	Worker int    `json:"worker"`
}

// writeTimesJSON exports the wall-time report machine-readably, in the same
// order as the stderr table (substrates first, then paper order).
func writeTimesJSON(path string, results []core.ArtifactResult) error {
	recs := make([]timeRecord, 0, len(results))
	for _, a := range results {
		kind := "artifact"
		if a.Artifact == nil {
			kind = "substrate"
		}
		recs = append(recs, timeRecord{ID: a.ID, Kind: kind, WallNS: a.Elapsed.Nanoseconds(), Worker: a.Worker})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile snapshots the heap after a final GC, so the profile
// shows retention (inuse) and the full churn history (alloc) separately.
func writeHeapProfile(path string) error {
	mf, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(mf); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}

func exportCSV(dir string, a core.ArtifactResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, a.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := a.Artifact.WriteCSV(f); err != nil {
		return fmt.Errorf("export %s: %w", a.ID, err)
	}
	return f.Close()
}
