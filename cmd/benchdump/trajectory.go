package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
	"time"
)

// Trajectory mode. When stdin carries bench/e2e runs rather than `go test
// -bench` lines, benchdump appends one entry to the -out file, a JSON array
// kept one entry per line:
//
//	go run ./bench/e2e -workload single-ingest -seed 1 > runs.txt   # repeat per run
//	cat runs.txt | go run ./cmd/benchdump -out BENCH_E2E.json
//
// The entry holds, per (workload, seed), the median of every end-to-end
// metric over the runs read, with the run count, run length, nproc and Go
// version the runs reported. Feed it one side of a parent/change comparison
// (the change's runs), so successive entries are a trajectory no per-change
// bound can hide. Earlier entries are written back byte for byte: the file
// only grows.

// e2eRun is one bench/e2e run as its report prints it: the header line
// (`workload W seed N seconds S trace T`), the `summary {…}` line and the
// contract line that ends it.
type e2eRun struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	NProc    int    `json:"nproc"`
	Go       string `json:"go"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// e2eScanner assembles e2eRuns from a report's lines.
type e2eScanner struct {
	cur  *e2eRun
	runs []e2eRun
}

// line consumes one line and reports whether it belonged to a run.
func (s *e2eScanner) line(line string) (bool, error) {
	if rest, ok := strings.CutPrefix(line, "workload "); ok {
		r := &e2eRun{}
		if _, err := fmt.Sscanf(rest, "%s seed %d seconds %d trace %t", &r.Workload, &r.Seed, &r.Seconds, &r.Trace); err != nil {
			return false, fmt.Errorf("bench/e2e header %q: %v", line, err)
		}
		s.cur = r
		return true, nil
	}
	if s.cur == nil {
		return false, nil
	}
	if sum, ok := strings.CutPrefix(line, "summary "); ok {
		if err := json.Unmarshal([]byte(sum), s.cur); err != nil {
			return false, fmt.Errorf("bench/e2e %s summary line: %v", s.cur.Workload, err)
		}
		return true, nil
	}
	if strings.HasPrefix(line, "{") {
		if err := json.Unmarshal([]byte(line), s.cur); err != nil {
			return false, fmt.Errorf("bench/e2e %s contract line: %v", s.cur.Workload, err)
		}
		s.runs = append(s.runs, *s.cur)
		s.cur = nil
	}
	return true, nil
}

// e2eWorkload is one (workload, seed)'s medians in a trajectory entry.
type e2eWorkload struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Runs     int                `json:"runs"`
	Seconds  int                `json:"seconds"`
	NProc    int                `json:"nproc"`
	Go       string             `json:"go"`
	Medians  map[string]float64 `json:"medians"`
}

// e2eEntry is one appended line of BENCH_E2E.json.
type e2eEntry struct {
	RecordedAt string        `json:"recorded_at"`
	Workloads  []e2eWorkload `json:"workloads"`
}

// trajectoryEntry groups runs by (workload, seed), in first-seen order, and
// takes each metric's median. A traced run (its figures are per-layer), a
// run that is not correct, and a group whose runs disagree on their length,
// nproc or Go version are refused: none of them is a point of the
// trajectory.
func trajectoryEntry(runs []e2eRun, now time.Time) (e2eEntry, error) {
	e := e2eEntry{RecordedAt: now.UTC().Format(time.RFC3339)}
	type group struct {
		workload string
		seed     uint64
	}
	groups := map[group][]e2eRun{}
	var order []group
	for _, r := range runs {
		if r.Trace {
			return e, fmt.Errorf("%s seed %d: a traced run reports per-layer figures, not end-to-end ones", r.Workload, r.Seed)
		}
		if !r.Correct {
			return e, fmt.Errorf("%s seed %d: a run is not correct", r.Workload, r.Seed)
		}
		k := group{r.Workload, r.Seed}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	for _, k := range order {
		g := groups[k]
		w := e2eWorkload{Workload: g[0].Workload, Seed: g[0].Seed, Runs: len(g), Seconds: g[0].Seconds,
			NProc: g[0].NProc, Go: g[0].Go, Medians: map[string]float64{}}
		for _, r := range g {
			if r.Seconds != w.Seconds || r.NProc != w.NProc || r.Go != w.Go {
				return e, fmt.Errorf("%s seed %d: runs differ in length, nproc or Go version", w.Workload, w.Seed)
			}
		}
		for name := range g[0].Metrics {
			vals := make([]float64, 0, len(g))
			for _, r := range g {
				m, ok := r.Metrics[name]
				if !ok {
					return e, fmt.Errorf("%s seed %d: a run lacks metric %s", w.Workload, w.Seed, name)
				}
				vals = append(vals, m.Value)
			}
			w.Medians[name] = median(vals)
		}
		e.Workloads = append(e.Workloads, w)
	}
	return e, nil
}

// median of a non-empty sample; the mean of the middle two for an even
// count. vals is reordered.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// appendEntry appends e to the trajectory at path, creating it if absent.
// The file must already be a JSON array; its entries are written back as
// they were read.
func appendEntry(path string, e e2eEntry) error {
	var entries []json.RawMessage
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(old, &entries); err != nil {
			return fmt.Errorf("%s is not a trajectory (a JSON array of entries): %v", path, err)
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	entries = append(entries, line)
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, raw := range entries {
		buf.Write(raw)
		if i < len(entries)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
