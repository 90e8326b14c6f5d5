package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// perLayer lists every per-layer metric, prefix = module. A traced run
// prints all of them; one a workload does not exercise reads 0 there.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	// Timed in-process replay of the workload's own inputs (span self times).
	{"envelope.decode_us_per_event", "us"},
	{"envelope.decode_allocs_per_event", "count"},
	{"envelope.encode_us_per_event", "us"},
	{"ingest.offer_us_per_event", "us"},
	{"ingest.flush_ms", "ms"},
	{"wal.durable_extra_us_per_event", "us"},
	{"wal.sync_ms", "ms"},
	{"snapshot.write_ms", "ms"},
	{"recover.open_ms", "ms"},
	{"recover.replay_events_per_s", "1/s"},
	{"sketch.add_ns", "ns"},
	{"sketch.merge_us", "us"},
	{"sketch.marshal_us", "us"},
	{"sketch.unmarshal_us", "us"},
	{"query.wide_ms", "ms"},
	{"query.narrow_ms", "ms"},
	{"query.keys_ms", "ms"},
	{"query.match_wide_ms", "ms"},
	{"query.merge_wide_ms", "ms"},
	{"query.page_json_encode_ms", "ms"},
	{"query.page_json_decode_ms", "ms"},
	{"query.page_bytes", "B"},
	{"router.route_us_per_event", "us"},
	{"httpnode.ingest_us_per_event", "us"},
	{"httpnode.requests_per_event", "count"},
	{"httpnode.sketches_wide_ms", "ms"},
	{"frontend.query_wide_local_ms", "ms"},
	{"frontend.query_wide_http_ms", "ms"},
	// Counted from outside during the live window.
	{"telemetryd.queue_depth_max", "count"},
	{"telemetryd.frontend_cpu_us_per_op", "us"},
	{"telemetryd.node_cpu_us_per_op", "us"},
	{"telemetryd.http_overhead_us_per_event", "us"},
	{"wal.bytes_per_event", "B"},
	{"wal.fsyncs_per_kevent", "count"},
	{"wal.append_busy_share", "share"},
	{"wal.fsync_busy_share", "share"},
	{"snapshot.bytes", "B"},
	{"snapshot.busy_share", "share"},
	{"client.ack_p90_ms", "ms"},
	{"client.ack_p99_ms", "ms"},
	{"client.query_narrow_p50_ms", "ms"},
	{"client.keys_p50_ms", "ms"},
	{"client.ingest_ack_p50_ms", "ms"},
	{"client.req_bytes_per_event", "B"},
	{"client.resp_bytes_per_query", "B"},
	{"client.samples", "count"},
	{"client.slice_spread", "share"},
	{"loadgen.late_share", "share"},
	{"loadgen.cpu_share", "share"},
	{"loadgen.build_s", "s"},
	{"loadgen.box_slowdown", "x"},
	// The batch engine's own per-unit wall times (reproall -times-json).
	{"workload.nep_trace_ms", "ms"},
	{"workload.cloud_trace_ms", "ms"},
	{"crowd.latency_obs_ms", "ms"},
	{"predict.fig14_ms", "ms"},
	{"core.top5_share", "share"},
	{"core.serial_pass_ms", "ms"},
	{"core.parallel_speedup", "x"},
}

// orZero is v, or 0 when v is not a number (a class without a sample).
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// outsideLayers fills the per-layer metrics that are counted from outside
// while the live window runs: the client's own samples, the per-process CPU
// split, and deltas of the daemons' /metrics between the window's first and
// last boundary.
func outsideLayers(res *result, r *rig, d *deployment, in *servingInputs, win *window, sl sliced, use []int) {
	bounds := win.bounds()
	secs := bounds[nSlices].Sub(bounds[0]).Seconds()
	L := res.layers

	primary := classAck
	if in.spec.queries {
		primary = classWide
	}
	lat := classLatMs(win.samples, bounds, primary)
	L["client.ack_p90_ms"] = orZero(quantileOf(lat, 0.90))
	L["client.ack_p99_ms"] = orZero(quantileOf(lat, 0.99))
	L["client.samples"] = float64(len(lat))
	L["client.slice_spread"] = detrendedSpread(atRefSpeed(sl.opsPerS(), sl.slow, true), use)
	if in.spec.queries {
		L["client.query_narrow_p50_ms"] = orZero(median(classLatMs(win.samples, bounds, classNarrow)))
		L["client.keys_p50_ms"] = orZero(median(classLatMs(win.samples, bounds, classKeys)))
		L["client.ingest_ack_p50_ms"] = orZero(median(classLatMs(win.samples, bounds, classAck)))
	}
	var events, ops, reqBytes, queries, respBytes float64
	for _, s := range win.samples {
		if !s.ok || sliceOf(bounds, s.at) < 0 {
			continue
		}
		if s.class == classAck {
			events += float64(s.ops)
			reqBytes += float64(s.reqLen)
		} else {
			queries++
			respBytes += float64(s.respLen)
		}
	}
	ops = events
	if in.spec.queries {
		ops = queries
		L["client.resp_bytes_per_query"] = respBytes / queries
	}
	L["client.req_bytes_per_event"] = reqBytes / events

	L["loadgen.cpu_share"] = win.selfCPU.Seconds() / secs
	if win.due != nil {
		L["loadgen.late_share"] = float64(win.due.late) / float64(win.due.sent)
	}
	L["loadgen.build_s"] = r.built.Seconds()

	first, last := win.procs[0], win.procs[nSlices]
	var nodeCPU time.Duration
	for _, n := range d.nodes {
		nodeCPU += last.cpu[n.pid()] - first.cpu[n.pid()]
	}
	L["telemetryd.node_cpu_us_per_op"] = float64(nodeCPU.Microseconds()) / ops
	if d.front != nil {
		cpu := last.cpu[d.front.pid()] - first.cpu[d.front.pid()]
		L["telemetryd.frontend_cpu_us_per_op"] = float64(cpu.Microseconds()) / ops
	}

	var fsyncs, appendS, fsyncS, snapS, depth float64
	for _, n := range d.nodes {
		sc := win.scrapes[n.name]
		a, b := sc[0], sc[nSlices]
		fsyncs += b.delta(a, "telemetry_wal_fsyncs_total")
		appendS += b.delta(a, "telemetry_wal_append_seconds_sum")
		fsyncS += b.delta(a, "telemetry_wal_fsync_seconds_sum")
		snapS += b.delta(a, "telemetry_snapshot_seconds_sum")
		for _, s := range sc {
			depth = max(depth, s["telemetry_shard_queue_depth"])
		}
	}
	L["wal.fsyncs_per_kevent"] = fsyncs / (events / 1e3)
	L["wal.append_busy_share"] = appendS / secs
	L["wal.fsync_busy_share"] = fsyncS / secs
	L["snapshot.busy_share"] = snapS / secs
	L["telemetryd.queue_depth_max"] = depth
	L["wal.bytes_per_event"] = float64(win.walBytes[1]-win.walBytes[0]) / events
	L["snapshot.bytes"] = float64(win.snapBytes)
}

// detrendedSpread is (max − min) / median of the used slices' values after
// their least-squares line is removed. State grows with the wall clock
// during a window (one rollup window per second), so throughput falls along
// a trend that is the same in every run; what flags a disturbed run is
// disagreement around that trend.
func detrendedSpread(ys []float64, use []int) float64 {
	n := float64(len(use))
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, k := range use {
		x, y := float64(k), ys[k]
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	flat := make([]float64, 0, len(use))
	for _, k := range use {
		flat = append(flat, ys[k]-slope*(float64(k)-sx/n))
	}
	return relSpread(flat)
}

// replay records spans around calls into each layer's public functions. A
// span's CPU (the whole process's, read from getrusage) is kept beside its
// wall time, because the live figure the layers are compared with is CPU.
type replay struct {
	t   *obs.Tracer
	cpu map[string]time.Duration
}

func newReplay() *replay {
	return &replay{t: obs.NewTracer(nil), cpu: map[string]time.Duration{}}
}

// span runs fn inside a span under parent.
func (rp *replay) span(name string, parent obs.SpanID, fn func(id obs.SpanID)) {
	cpu0 := selfCPU()
	id := rp.t.Begin(name, parent)
	fn(id)
	rp.t.End(id)
	rp.cpu[name] += selfCPU() - cpu0
}

// root opens the one root span of request number n.
func (rp *replay) root(name string, n int, fn func(id obs.SpanID)) {
	rp.span(name, 0, func(id obs.SpanID) {
		rp.t.Annotate(id, "id", fmt.Sprint(n))
		fn(id)
	})
}

// layerTime is one span name's totals.
type layerTime struct {
	self  time.Duration // duration minus the part child spans cover
	total time.Duration
	count int
}

// selfTimes reduces spans to per-name self time. The replay is
// single-threaded, so a span's children never overlap each other.
func selfTimes(spans []obs.Span) map[string]layerTime {
	covered := make([]int64, len(spans)+1) // by parent id
	for _, sp := range spans {
		covered[sp.Parent] += sp.EndNS - sp.StartNS
	}
	out := map[string]layerTime{}
	for i, sp := range spans {
		lt := out[sp.Name]
		d := time.Duration(sp.EndNS - sp.StartNS)
		lt.total += d
		lt.self += d - time.Duration(covered[i+1])
		lt.count++
		out[sp.Name] = lt
	}
	return out
}

// usPer is a duration per unit, in microseconds.
func usPer(d time.Duration, units int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(units)
}

// msEach is a layer's mean self time per span, in milliseconds.
func msEach(lt layerTime) float64 {
	if lt.count == 0 {
		return 0
	}
	return lt.self.Seconds() * 1e3 / float64(lt.count)
}

// tracedReplay replays the workload's seeded inputs in-process through each
// layer's public functions, one root span per request, and turns the spans'
// self times into the timed per-layer metrics. It runs after the live
// window, never inside it. The spans go to trace-<workload>.json.
func tracedReplay(r *rig, res *result, d *deployment, in *servingInputs, qs []queryReq) error {
	rp := newReplay()
	L := res.layers

	events, err := replayIngest(r, rp, in, d.t0, L)
	if err != nil {
		return err
	}
	replaySketch(rp, in)
	if in.spec.clustered {
		if err := replayRouting(rp, in, d, L); err != nil {
			return err
		}
	}
	const queryReps = 10
	if in.spec.queries {
		if err := replayQueries(rp, in, d, qs, queryReps, L); err != nil {
			return err
		}
	}

	st := selfTimes(rp.t.Spans())
	L["envelope.decode_us_per_event"] = usPer(st["envelope.decode"].self, events)
	L["envelope.encode_us_per_event"] = usPer(st["envelope.encode"].self, events)
	L["ingest.offer_us_per_event"] = usPer(st["ingest"].total, events)
	L["ingest.flush_ms"] = msEach(st["ingest.flush"])
	L["wal.durable_extra_us_per_event"] = usPer(st["durable"].total, events) - L["ingest.offer_us_per_event"]
	L["wal.sync_ms"] = msEach(st["wal.sync"])
	L["snapshot.write_ms"] = msEach(st["snapshot.write"])
	L["recover.open_ms"] = msEach(st["recover.open"])
	L["sketch.add_ns"] = usPer(st["sketch.add"].self, sketchAdds) * 1e3
	L["sketch.merge_us"] = msEach(st["sketch.merge"]) * 1e3
	L["sketch.marshal_us"] = msEach(st["sketch.marshal"]) * 1e3
	L["sketch.unmarshal_us"] = msEach(st["sketch.unmarshal"]) * 1e3
	L["router.route_us_per_event"] = usPer(st["router.route"].self, events)
	L["httpnode.ingest_us_per_event"] = msEach(st["httpnode.ingest"]) * 1e3
	L["httpnode.sketches_wide_ms"] = msEach(st["httpnode.sketches_wide"])
	L["frontend.query_wide_local_ms"] = msEach(st["frontend.query_wide_local"])
	L["frontend.query_wide_http_ms"] = msEach(st["frontend.query_wide_http"])
	for _, q := range []string{"wide", "narrow", "keys", "match_wide", "merge_wide", "page_json_encode", "page_json_decode"} {
		L["query."+q+"_ms"] = msEach(st["query."+q])
	}

	// What the in-process layers cost in CPU per live operation, to set
	// against the daemons' measured CPU per operation. On the ingest path an
	// event is decoded, routed (cluster only) and folded durably; "durable"
	// is that whole phase, WAL appends, fsyncs and periodic snapshots
	// included.
	account, perOp, unit := []string{"envelope.decode", "router.route", "durable"}, float64(events), "event"
	if in.spec.queries {
		// One operation is one query of the wide → narrow → keys cycle; a
		// wide query through the frontend is match and page encode on the
		// nodes, page decode and merge on the frontend. The paced ingest
		// beside the queries stays in the remainder.
		account = []string{"query.match_wide", "query.page_json_encode", "query.page_json_decode", "query.merge_wide",
			"query.narrow", "query.keys"}
		perOp, unit = 3*queryReps, "query"
	}
	var inProc float64
	dominant, most := "", 0.0
	for _, n := range account {
		us := float64(rp.cpu[n].Microseconds()) / perOp
		inProc += us
		if us > most {
			dominant, most = n, us
		}
	}
	live := res.asMeasured["cpu_us_per_op"] // the replay's timings are as measured too
	rest := live - inProc
	L["telemetryd.http_overhead_us_per_event"] = rest
	if rest > most {
		dominant = "none of them: the remainder outside the in-process layers (HTTP hops, JSON responses, scheduling, GC)"
	}

	path := filepath.Join(workDir, "trace-"+in.spec.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rp.t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", rp.t.Len(), path))
	res.notes = append(res.notes, layerTable(st, rp.cpu)...)
	res.notes = append(res.notes,
		fmt.Sprintf("CPU per %s: in-process layers %v %.1f us + remainder %.1f us (%.0f%%) = daemons over HTTP %.1f us",
			unit, account, inProc, rest, 100*rest/live, live),
		"dominant layer: "+dominant)
	return nil
}

// layerTable renders per-layer self time and CPU, largest self time first.
func layerTable(st map[string]layerTime, cpu map[string]time.Duration) []string {
	names := sortedKeys(st)
	sort.SliceStable(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	out := []string{fmt.Sprintf("%-28s %8s %12s %12s", "layer (in-process replay)", "spans", "self ms", "cpu ms")}
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-28s %8d %12.2f %12.2f", n, st[n].count, st[n].self.Seconds()*1e3, cpu[n].Seconds()*1e3))
	}
	return out
}

// replayIngest runs the workload's live request bodies through the ingest
// layers one layer at a time — decode and re-encode, then fold in memory,
// then fold durably — so that nothing runs beside the layer being timed and
// each phase's CPU is that layer's. Every body is one request with its own
// span in each phase. Both ingestors first take the workload's preload, so
// map sizes and the snapshot are at the workload's state. It returns how
// many events it replayed.
func replayIngest(r *rig, rp *replay, in *servingInputs, t0 time.Time, L map[string]float64) (int, error) {
	var bodies [][]byte
	var decoded [][]telemetry.Envelope
	now := time.Now().UnixMilli()
	for c := range in.pools {
		for i := range in.pools[c] {
			// One rollup window per 25 requests, as a live second holds many.
			bodies = append(bodies, in.pools[c][i].stamp(nil, now+int64(len(bodies)/25)*1000))
		}
	}

	var (
		events  int
		mallocs uint64
		ms      runtime.MemStats
		enc     []byte
		err     error
	)
	for n, body := range bodies {
		var envs []telemetry.Envelope
		rp.root("request", n, func(req obs.SpanID) {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			rp.span("envelope.decode", req, func(obs.SpanID) {
				_, err = telemetry.ReadJSONL(bytes.NewReader(body), func(e telemetry.Envelope) { envs = append(envs, e) })
			})
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			rp.span("envelope.encode", req, func(obs.SpanID) {
				enc = enc[:0]
				for _, e := range envs {
					enc, _ = telemetry.AppendJSONL(enc, e) // just decoded, so valid
				}
			})
		})
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(enc, body) {
			return 0, fmt.Errorf("replay: request %d does not survive a decode and re-encode", n)
		}
		decoded = append(decoded, envs)
		events += len(envs)
	}
	// The slice ReadJSONL's callback grows is the harness's, not the codec's.
	L["envelope.decode_allocs_per_event"] = float64(mallocs)/float64(events) - growthAllocs(in.spec.batch)/float64(in.spec.batch)

	// fold offers every request and then waits for the shard workers, under
	// one root span: Offer only enqueues, so a layer's cost is the whole
	// phase, and the wait at its end is the work still queued.
	fold := func(layer string, ing *telemetry.Ingestor) {
		rp.root(layer, 0, func(root obs.SpanID) {
			for _, envs := range decoded {
				rp.span(layer+".offer", root, func(obs.SpanID) { ing.OfferAll(envs) })
			}
			rp.span(layer+".flush", root, func(obs.SpanID) { ing.Flush() })
		})
	}
	durableCfg := func(dir string, snapshotEvery int) telemetry.Config {
		return telemetry.Config{
			Window: time.Second, Block: true,
			// The daemon's default -sync-every.
			WAL: telemetry.WALConfig{Dir: dir, SyncEvery: 256, SnapshotEvery: snapshotEvery},
		}
	}

	mem := referenceIngestor(in, t0)
	fold("ingest", mem)
	mem.Close()

	// Durable, with the daemon's default -snapshot-every, then the two
	// explicit barriers, then recovery as a hard kill leaves it: the last
	// periodic snapshot plus the WAL suffix it does not cover.
	walDir, err := r.dir("replay-wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(walDir)
	cfg := durableCfg(walDir, 4096)
	dur, _, err := telemetry.Open(cfg)
	if err != nil {
		return 0, err
	}
	for j, b := range in.preload {
		dur.OfferAll(b.stamped(preloadTS(t0, j, len(in.preload))))
	}
	dur.Flush()
	fold("durable", dur)
	rp.root("probe", 0, func(p obs.SpanID) {
		rp.span("wal.sync", p, func(obs.SpanID) { err = dur.SyncWAL() })
		if err == nil {
			rp.span("snapshot.write", p, func(obs.SpanID) { err = dur.Snapshot() })
		}
	})
	dur.Crash()
	if err != nil {
		return 0, err
	}
	rp.root("probe", 1, func(p obs.SpanID) {
		rp.span("recover.open", p, func(obs.SpanID) {
			var reopened *telemetry.Ingestor
			if reopened, _, err = telemetry.Open(cfg); err == nil {
				reopened.Crash()
			}
		})
	})
	if err != nil {
		return 0, err
	}

	// Replay rate: the same requests logged with no snapshot at all, so
	// recovery has to replay every one of them from the WAL.
	logDir, err := r.dir("replay-log")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(logDir)
	cfg = durableCfg(logDir, 0)
	logOnly, _, err := telemetry.Open(cfg)
	if err != nil {
		return 0, err
	}
	for _, envs := range decoded {
		logOnly.OfferAll(envs)
	}
	logOnly.Flush()
	err = logOnly.SyncWAL()
	logOnly.Crash()
	if err != nil {
		return 0, err
	}
	var rst telemetry.RecoveryStats
	began := time.Now()
	rp.root("probe", 2, func(p obs.SpanID) {
		rp.span("recover.replay", p, func(obs.SpanID) {
			var reopened *telemetry.Ingestor
			if reopened, rst, err = telemetry.Open(cfg); err == nil {
				reopened.Crash()
			}
		})
	})
	if err != nil {
		return 0, err
	}
	if int(rst.RecordsReplayed) != events {
		return 0, fmt.Errorf("recovery replayed %d of %d logged events", rst.RecordsReplayed, events)
	}
	L["recover.replay_events_per_s"] = float64(events) / time.Since(began).Seconds()
	return events, nil
}

// growthAllocs is how many allocations appending n envelopes one by one to
// a nil slice makes.
func growthAllocs(n int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var envs []telemetry.Envelope
	for i := 0; i < n; i++ {
		envs = append(envs, telemetry.Envelope{})
	}
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(envs)
	return float64(ms.Mallocs - before)
}

const sketchAdds = 200_000

// replaySketch times the quantile sketch alone: what every fold, merge and
// sketch page is made of.
func replaySketch(rp *replay, in *servingInputs) {
	var vals []float64
	for _, b := range in.preload {
		for _, e := range b.events {
			vals = append(vals, e.Value)
		}
	}
	for len(vals) < sketchAdds {
		vals = append(vals, vals...)
	}
	vals = vals[:sketchAdds]
	rp.root("probe", 2, func(p obs.SpanID) {
		sk := stats.NewSketch(stats.DefaultCompression)
		rp.span("sketch.add", p, func(obs.SpanID) {
			for _, v := range vals {
				_ = sk.Add(v) // finite by construction
			}
		})
		// A rollup as the workloads hold them: a few hundred values.
		a, b := stats.NewSketch(stats.DefaultCompression), stats.NewSketch(stats.DefaultCompression)
		for i, v := range vals[:600] {
			if i%2 == 0 {
				_ = a.Add(v)
			} else {
				_ = b.Add(v)
			}
		}
		var raw []byte
		for i := 0; i < 200; i++ {
			dst := a.Clone()
			rp.span("sketch.merge", p, func(obs.SpanID) { dst.Merge(b) })
			rp.span("sketch.marshal", p, func(obs.SpanID) { raw, _ = a.AppendBinary(raw[:0]) })
			rp.span("sketch.unmarshal", p, func(obs.SpanID) { _ = new(stats.Sketch).UnmarshalBinary(raw) })
		}
	})
}

// countingTransport counts the HTTP requests a client makes.
type countingTransport struct {
	next http.RoundTripper
	n    int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n++
	return c.next.RoundTrip(req)
}

// replayRouting times the frontend's ingest legs: the router's per-envelope
// decision over a transport that does nothing, and HTTPNode's per-envelope
// POST against a live node of the deployment.
func replayRouting(rp *replay, in *servingInputs, d *deployment, L map[string]float64) error {
	pm, err := cluster.NewMap(cluster.MapConfig{Partitions: cluster.DefaultPartitions, Nodes: nodeIDs, ReplicationFactor: 1})
	if err != nil {
		return err
	}
	up := func(string) cluster.ProbeResult { return cluster.ProbeResult{Reachable: true} }
	health := cluster.NewHealthTracker(nodeIDs, up, cluster.HealthConfig{})
	noop := func(string, telemetry.Envelope) bool { return true }
	router := cluster.NewRouter(pm, health, noop, rng.New(1), cluster.RouterConfig{})
	n := 0
	for c := range in.pools {
		for _, b := range in.pools[c] {
			envs := b.stamped(time.Now().UnixMilli())
			rp.root("request", n, func(req obs.SpanID) {
				rp.span("router.route", req, func(obs.SpanID) {
					if acked := router.SendAll(envs); acked != len(envs) {
						err = fmt.Errorf("router acked %d of %d over a transport that always acks", acked, len(envs))
					}
				})
			})
			if err != nil {
				return err
			}
			n++
		}
	}

	counter := &countingTransport{next: newConn().Transport}
	node := cluster.NewHTTPNode(d.nodes[0].url, &http.Client{Transport: counter, Timeout: requestTimeout})
	envs := in.pools[0][0].stamped(time.Now().UnixMilli())
	rp.root("probe", 3, func(p obs.SpanID) {
		for _, e := range envs {
			rp.span("httpnode.ingest", p, func(obs.SpanID) {
				if !node.Ingest(e) {
					err = fmt.Errorf("%s refused an envelope sent through HTTPNode", d.nodes[0].name)
				}
			})
		}
	})
	L["httpnode.requests_per_event"] = float64(counter.n) / float64(len(envs))
	return err
}

// replayQueries times the read path layer by layer on the in-process
// reference, then the scatter-gather tier over in-process nodes and over
// the live nodes. Every full answer is checked against the reference bytes.
func replayQueries(rp *replay, in *servingInputs, d *deployment, qs []queryReq, reps int, L map[string]float64) error {
	ref := referenceIngestor(in, d.t0)
	defer ref.Close()
	wide := qs[0]

	pm, err := cluster.NewMap(cluster.MapConfig{Partitions: cluster.DefaultPartitions, Nodes: nodeIDs, ReplicationFactor: 1})
	if err != nil {
		return err
	}
	local, remote := map[string]cluster.NodeClient{}, map[string]cluster.NodeClient{}
	var firstRemote *cluster.HTTPNode
	for i, id := range nodeIDs {
		ing := telemetry.NewIngestor(telemetry.Config{Window: time.Second, Block: true})
		defer ing.Close()
		for _, p := range in.parts[id] {
			ing.OfferAll(p.b.stamped(preloadTS(d.t0, p.j, len(in.preload))))
		}
		ing.Flush()
		local[id] = cluster.LocalNode{Ing: ing}
		hn := cluster.NewHTTPNode(d.nodes[i].url, newConn())
		remote[id] = hn
		if i == 0 {
			firstRemote = hn
		}
	}
	localFront := cluster.NewFrontend(pm, local, cluster.FrontendConfig{})
	httpFront := cluster.NewFrontend(pm, remote, cluster.FrontendConfig{})
	ctx := context.Background()

	same := func(what string, v any) error {
		got, err := daemonJSON(v)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, wide.want) {
			return fmt.Errorf("%s differs from the single-node reference", what)
		}
		return nil
	}
	for i := 0; i < reps && err == nil; i++ {
		rp.root("query", i, func(q obs.SpanID) {
			var (
				page, back telemetry.SketchPage
				raw        []byte
				res        telemetry.QueryResult
				cres       cluster.Result
			)
			rp.span("query.wide", q, func(obs.SpanID) { res, err = ref.Query(wide.spec) })
			if err != nil {
				return
			}
			if err = same("Ingestor.Query", res); err != nil {
				return
			}
			rp.span("query.narrow", q, func(obs.SpanID) { _, err = ref.Query(qs[1+i%(len(qs)-1)].spec) })
			rp.span("query.keys", q, func(obs.SpanID) { ref.Keys() })
			rp.span("query.match_wide", q, func(obs.SpanID) { page, err = ref.MatchSketches(wide.spec) })
			if err != nil {
				return
			}
			rp.span("query.page_json_encode", q, func(obs.SpanID) { raw, err = daemonJSON(page) })
			rp.span("query.page_json_decode", q, func(obs.SpanID) { err = json.Unmarshal(raw, &back) })
			if err != nil {
				return
			}
			L["query.page_bytes"] = float64(len(raw))
			rp.span("query.merge_wide", q, func(obs.SpanID) {
				res, err = telemetry.MergeSketchPages(wide.spec, []telemetry.SketchPage{back})
			})
			if err != nil {
				return
			}
			if err = same("MergeSketchPages over a JSON round trip", res); err != nil {
				return
			}
			rp.span("frontend.query_wide_local", q, func(obs.SpanID) { cres, err = localFront.Query(ctx, wide.spec) })
			if err != nil {
				return
			}
			if err = same("Frontend.Query over LocalNode", cres); err != nil {
				return
			}
			rp.span("httpnode.sketches_wide", q, func(obs.SpanID) { _, err = firstRemote.Sketches(ctx, wide.spec) })
			if err != nil {
				return
			}
			rp.span("frontend.query_wide_http", q, func(obs.SpanID) { cres, err = httpFront.Query(ctx, wide.spec) })
			if err != nil {
				return
			}
			err = same("Frontend.Query over HTTPNode", cres)
		})
	}
	return err
}
