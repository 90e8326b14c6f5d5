package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// minPasses is the least number of measured reproall passes: a median of
// fewer is just a sample.
const minPasses = 3

// pass is one reproall run observed from outside.
type pass struct {
	wall   time.Duration
	stolen float64 // share of the box's CPU time the hypervisor took during the pass
	slow   float64 // the box's slowdown against the reference speed during the pass
	cpu    time.Duration
	rssKB  int64
	hash   [sha256.Size]byte
	times  []unitTime
	nArtif int
}

// unitTime is one record of reproall's -times-json report.
type unitTime struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	WallNS int64  `json:"wall_ns"`
}

// reproPass runs the paper-scale reproduction once. parallel 0 is the
// binary's default, one worker per CPU. The scenario keeps its own seed
// whatever -seed says: what a pass costs depends on the scenario's seed far
// more (peak RSS 570–1140 MB, CPU ±10% across seeds 1–21) than on any change
// this workload exists to detect, and the spread of runs under different
// seeds must show the box's noise, not ten different experiments.
func reproPass(r *rig, probe *speedProbe, parallel int) (pass, error) {
	timesFile := filepath.Join(r.tmp, "times.json")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	host0, err := readHostCPU()
	if err != nil {
		return pass{}, err
	}
	began := time.Now()
	out, st, err := r.runToCompletion(ctx, "reproall",
		"-scenario", "paper", "-ext", "-quiet-times",
		"-parallel", strconv.Itoa(parallel),
		"-times-json", timesFile)
	p := pass{wall: time.Since(began), slow: probe.slowdown(began, time.Now())}
	if err != nil {
		return p, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return p, err
	}
	p.stolen = host0.stolenShare(host1)
	p.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.rssKB = ru.Maxrss
	}
	p.hash = sha256.Sum256(out)
	raw, err := os.ReadFile(timesFile)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(raw, &p.times); err != nil {
		return p, fmt.Errorf("times-json: %w", err)
	}
	for _, u := range p.times {
		if u.Kind == "artifact" {
			p.nArtif++
		}
	}
	if p.nArtif == 0 {
		return p, fmt.Errorf("reproall reported no artifact")
	}
	return p, nil
}

// runBatch measures the batch engine: one -parallel 1 reference pass as
// set-up, then passes at default parallelism for the length of the window.
// An operation is one artifact built; an artifact of a pass whose stdout
// differs from the reference's has failed.
func runBatch(r *rig, opt options) (*result, error) {
	res := newResult("batch-paper")
	probe := startSpeedProbe()
	defer probe.close()
	ref, err := reproPass(r, probe, 1)
	if err != nil {
		return nil, err
	}
	var passes []pass
	for began := time.Now(); len(passes) < minPasses || time.Since(began) < time.Duration(opt.seconds)*time.Second; {
		p, err := reproPass(r, probe, 0)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	var wallMs, cpuUs, opsPerS, stolen, slow, rssMB []float64
	var rssKB int64
	for i, p := range passes {
		res.attempted += p.nArtif
		if p.hash != ref.hash || p.nArtif != ref.nArtif {
			res.failed += p.nArtif
			res.fail(fmt.Sprintf("pass %d: stdout or artifact count differs from the -parallel 1 reference", i))
		}
		wallMs = append(wallMs, p.wall.Seconds()*1e3)
		opsPerS = append(opsPerS, float64(p.nArtif)/p.wall.Seconds())
		cpuUs = append(cpuUs, float64(p.cpu.Microseconds())/float64(p.nArtif))
		stolen = append(stolen, p.stolen)
		slow = append(slow, p.slow)
		rssKB = max(rssKB, p.rssKB)
		rssMB = append(rssMB, float64(p.rssKB)/1024)
	}
	// A pass is this workload's slice: figures are taken over the passes the
	// hypervisor left alone, each pass at reference speed (speed.go).
	const needQuiet = 2
	use, quiet := quietSlices(stolen, needQuiet)
	res.e2e["setup_s"] = ref.wall.Seconds() / ref.slow
	res.e2e["ops_per_s"] = midMeanOver(atRefSpeed(opsPerS, slow, true), use)
	res.e2e["p50_ms"] = midMeanOver(atRefSpeed(wallMs, slow, false), use)
	res.e2e["cpu_us_per_op"] = midMeanOver(atRefSpeed(cpuUs, slow, false), use)
	res.e2e["peak_rss_mb"] = float64(rssKB) / 1024
	res.asMeasured = map[string]float64{
		"setup_s":       ref.wall.Seconds(),
		"ops_per_s":     midMeanOver(opsPerS, use),
		"p50_ms":        midMeanOver(wallMs, use),
		"cpu_us_per_op": midMeanOver(cpuUs, use),
	}
	res.layers["loadgen.box_slowdown"] = medianOver(slow, use)
	res.notes = append(res.notes,
		fmt.Sprintf("%d passes of %d artifacts; reference pass %.0f ms, slowdown %.3f, %.1f%% stolen",
			len(passes), ref.nArtif, ref.wall.Seconds()*1e3, ref.slow, ref.stolen*100),
		fmt.Sprintf("per-pass wall ms    %8.0f", wallMs),
		fmt.Sprintf("per-pass cpu us/op  %8.0f", cpuUs),
		fmt.Sprintf("per-pass stolen %%   %8.1f", percent(stolen)),
		fmt.Sprintf("per-pass slowdown   %8.3f", slow),
		fmt.Sprintf("per-pass rss MB     %8.0f", rssMB),
		fmt.Sprintf("figures are means of the middle half of passes %v, each pass at reference speed", use))
	if !quiet {
		res.warn(stolenWarning, needQuiet, len(stolen), "passes", maxStolen*100, len(use))
	}
	if opt.trace {
		batchLayers(res, r, ref, passes)
	}
	return res, nil
}

// batchLayers reads the engine's own per-unit wall times (-times-json):
// each figure is the median over the measured passes.
func batchLayers(res *result, r *rig, ref pass, passes []pass) {
	unit := func(id string) float64 {
		var ms []float64
		for _, p := range passes {
			for _, u := range p.times {
				if u.ID == id {
					ms = append(ms, float64(u.WallNS)/1e6)
				}
			}
		}
		return median(ms)
	}
	res.layers["workload.nep_trace_ms"] = unit("substrate/nep-trace")
	res.layers["workload.cloud_trace_ms"] = unit("substrate/cloud-trace")
	res.layers["crowd.latency_obs_ms"] = unit("substrate/latency-obs")
	res.layers["predict.fig14_ms"] = unit("fig14")
	var top5, wallMs []float64
	for _, p := range passes {
		ns := make([]int64, len(p.times))
		var sum, top int64
		for i, u := range p.times {
			ns[i] = u.WallNS
			sum += u.WallNS
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
		for _, v := range ns[:min(5, len(ns))] {
			top += v
		}
		top5 = append(top5, float64(top)/float64(sum))
		wallMs = append(wallMs, p.wall.Seconds()*1e3)
	}
	res.layers["core.top5_share"] = median(top5)
	res.layers["core.serial_pass_ms"] = ref.wall.Seconds() * 1e3
	res.layers["core.parallel_speedup"] = ref.wall.Seconds() * 1e3 / median(wallMs)
	res.layers["loadgen.build_s"] = r.built.Seconds()
}
