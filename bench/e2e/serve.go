package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// servingSpec describes one serving workload.
type servingSpec struct {
	name      string
	clustered bool // three durable nodes behind a frontend, else one durable node
	preload   int  // events ingested during set-up, spread over the 60 s before boot
	batch     int  // events per live ingest request
	queries   bool // one query connection beside one paced ingest connection
}

var servingSpecs = []servingSpec{
	{name: "single-ingest", preload: 120_000, batch: 500},
	{name: "cluster-ingest", clustered: true, preload: 30_000, batch: 50},
	{name: "query-under-ingest", clustered: true, preload: 300_000, batch: 50, queries: true},
}

const (
	preloadBatch   = 500              // events per set-up request
	preloadSpan    = 60 * time.Second // event time the preload covers, ending at boot
	narrowSpan     = 15 * time.Second // a narrow query's range, ending at boot
	nNarrow        = 8                // distinct (region, net) pairs narrow queries cycle
	warmUp         = 3 * time.Second  // load applied before the window, discarded
	pacedPeriod    = 100 * time.Millisecond
	pacedSpin      = 2 * time.Millisecond
	poolEvents     = 20_000 // distinct live events pre-encoded per connection
	requestTimeout = 30 * time.Second
)

// pacedConn is the connection (and input pool) the query workload's paced
// ingest uses; connection 0 carries its queries.
const pacedConn = 1

var nodeIDs = []string{"n0", "n1", "n2"}

// preloadPart is one set-up request for one target: batch j's events (all of
// them on a single node, the owner's share in a cluster).
type preloadPart struct {
	b batch
	j int
}

// servingInputs is everything a serving workload sends, made from the seed
// before any clock starts.
type servingInputs struct {
	spec    servingSpec
	preload []batch                  // generation order: what the reference ingests
	parts   map[string][]preloadPart // per target ("" = the single node)
	pools   [2][]batch               // live request bodies, one pool per connection
	narrow  []userDims
}

func newServingInputs(w *world, spec servingSpec) (*servingInputs, error) {
	in := &servingInputs{spec: spec, parts: map[string][]preloadPart{}}
	var err error
	if in.preload, err = batches(w.events("preload/"+spec.name, spec.preload), preloadBatch); err != nil {
		return nil, err
	}
	if spec.clustered {
		// The harness places preload exactly as the frontend's router would:
		// same partition count, same member order, replication factor 1.
		pm, err := cluster.NewMap(cluster.MapConfig{
			Partitions: cluster.DefaultPartitions, Nodes: nodeIDs, ReplicationFactor: 1,
		})
		if err != nil {
			return nil, err
		}
		ownerOf := func(k telemetry.Key) string { return pm.Owner(pm.PartitionOf(k)) }
		for j, b := range in.preload {
			split, err := splitByOwner(b, nodeIDs, ownerOf)
			if err != nil {
				return nil, err
			}
			for n, nb := range split {
				in.parts[n] = append(in.parts[n], preloadPart{nb, j})
			}
		}
	} else {
		for j, b := range in.preload {
			in.parts[""] = append(in.parts[""], preloadPart{b, j})
		}
	}
	for c := range in.pools {
		ev := w.events(fmt.Sprintf("live/%s/%d", spec.name, c), poolEvents)
		if in.pools[c], err = batches(ev, spec.batch); err != nil {
			return nil, err
		}
	}
	for _, c := range w.stream("narrow").Perm(nRegions * nNets)[:nNarrow] {
		in.narrow = append(in.narrow, userDims{region: fmt.Sprintf("r%02d", c/nNets), net: netNames[c%nNets]})
	}
	return in, nil
}

// preloadTS is the event time of preload batch j of n: ascending, all of it
// before boot time t0, so live traffic (stamped with the wall clock, hence
// at or after t0) never lands in a window a checked query covers.
func preloadTS(t0 time.Time, j, n int) int64 {
	return t0.Add(-preloadSpan).UnixMilli() + int64(j)*preloadSpan.Milliseconds()/int64(n)
}

// deployment is one booted system under test.
type deployment struct {
	nodes []*child
	front *child // nil for a single node
	t0    time.Time
}

func (d *deployment) all() []*child {
	if d.front == nil {
		return d.nodes
	}
	return append(append([]*child(nil), d.nodes...), d.front)
}

// entry is where clients send load: the frontend, or the single node.
func (d *deployment) entry() string {
	if d.front != nil {
		return d.front.url
	}
	return d.nodes[0].url
}

// boot starts the daemons and returns once every one answers /healthz.
func boot(r *rig, spec servingSpec) (*deployment, error) {
	// Whole seconds, so query ranges written as RFC 3339 align with the
	// daemons' 1 s windows.
	d := &deployment{t0: time.Now().Truncate(time.Second)}
	if !spec.clustered {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		c, err := r.startDaemon("single", port)
		if err != nil {
			return nil, err
		}
		d.nodes = []*child{c}
		return d, nil
	}
	ports := make([]int, len(nodeIDs)+1)
	for i := range ports {
		var err error
		if ports[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	var peers []string
	for i, id := range nodeIDs {
		peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", id, ports[i]))
	}
	peerList := strings.Join(peers, ",")
	for i, id := range nodeIDs {
		c, err := r.startDaemon(id, ports[i], "-role", "node", "-node-id", id, "-peers", peerList)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, c)
	}
	// The frontend probes its members once at start, so it boots last.
	front, err := r.startDaemon("frontend", ports[len(nodeIDs)], "-role", "frontend", "-peers", peerList)
	if err != nil {
		return nil, err
	}
	d.front = front
	return d, nil
}

// ingestAck is telemetryd's /ingest response body.
type ingestAck struct {
	Decoded   int `json:"decoded"`
	Malformed int `json:"malformed"`
	Accepted  int `json:"accepted"`
	Dropped   int `json:"dropped"`
}

// newConn returns a client that owns exactly one connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// postBatch sends one JSONL body and reports whether every event in it was
// decoded and accepted.
func postBatch(c *http.Client, base string, body []byte, events int) (respLen int, err error) {
	resp, err := c.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("POST /ingest: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ack ingestAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return len(raw), fmt.Errorf("POST /ingest: bad response %q: %w", raw, err)
	}
	if ack.Decoded != events || ack.Accepted != events || ack.Malformed != 0 || ack.Dropped != 0 {
		return len(raw), fmt.Errorf("POST /ingest: sent %d events, got %+v", events, ack)
	}
	return len(raw), nil
}

// get fetches one URL and returns the body of a 200.
func get(c *http.Client, u string) ([]byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// preload ingests the set-up events, each target's requests in order over
// one connection (so every key folds in generation order, which is what
// makes the daemons' sketches bit-identical to the reference's), the
// targets in parallel. It returns the events loaded per metric.
func preload(d *deployment, in *servingInputs) ([nMetrics]int, error) {
	var total [nMetrics]int
	targets := map[string]string{} // key into in.parts → base URL
	if in.spec.clustered {
		for i, id := range nodeIDs {
			targets[id] = d.nodes[i].url
		}
	} else {
		targets[""] = d.nodes[0].url
	}
	errs := make(chan error, len(targets))
	for id, base := range targets {
		for _, p := range in.parts[id] {
			for m, n := range p.b.perMetric {
				total[m] += n
			}
		}
		go func() {
			c := newConn()
			defer c.CloseIdleConnections()
			var buf []byte
			for _, p := range in.parts[id] {
				buf = p.b.stamp(buf, preloadTS(d.t0, p.j, len(in.preload)))
				if _, err := postBatch(c, base, buf, len(p.b.events)); err != nil {
					errs <- fmt.Errorf("preload %s: %w", id, err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range targets {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return total, first
}

// queryReq is one checked query: where to send it and the exact bytes the
// in-process single-node reference answered.
type queryReq struct {
	class reqClass
	path  string
	spec  telemetry.QuerySpec
	want  []byte
}

// querySpecs are the wide query and the narrow queries of one boot.
func querySpecs(in *servingInputs, t0 time.Time) []queryReq {
	base := telemetry.QuerySpec{
		Metric: "rtt_ms", To: t0,
		Quantiles: []float64{0.5, 0.95, 0.99}, CDFAt: []float64{10, 50, 100},
	}
	wide := base
	wide.From = t0.Add(-preloadSpan)
	out := []queryReq{{class: classWide, spec: wide}}
	for _, c := range in.narrow {
		n := base
		n.From, n.Region, n.Net = t0.Add(-narrowSpan), c.region, c.net
		out = append(out, queryReq{class: classNarrow, spec: n})
	}
	for i := range out {
		s := out[i].spec
		q := url.Values{}
		q.Set("metric", s.Metric)
		q.Set("from", s.From.UTC().Format(time.RFC3339))
		q.Set("to", s.To.UTC().Format(time.RFC3339))
		q.Set("q", "0.5,0.95,0.99")
		q.Set("cdf", "10,50,100")
		if s.Region != "" {
			q.Set("region", s.Region)
			q.Set("net", s.Net)
		}
		out[i].path = "/query?" + q.Encode()
	}
	return out
}

// daemonJSON encodes v exactly as telemetryd writes a response body.
func daemonJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// referenceIngestor feeds the preload, stamped as for boot time t0, to one
// in-process ingestor configured like a daemon.
func referenceIngestor(in *servingInputs, t0 time.Time) *telemetry.Ingestor {
	ing := telemetry.NewIngestor(telemetry.Config{Window: time.Second, Block: true})
	for j, b := range in.preload {
		ing.OfferAll(b.stamped(preloadTS(t0, j, len(in.preload))))
	}
	ing.Flush()
	return ing
}

// reference answers every query from the in-process single node — the
// README's cluster ≡ single-node contract, used as the oracle.
func reference(in *servingInputs, t0 time.Time) ([]queryReq, error) {
	ing := referenceIngestor(in, t0)
	defer ing.Close()
	qs := querySpecs(in, t0)
	for i := range qs {
		res, err := ing.Query(qs[i].spec)
		if err != nil {
			return nil, err
		}
		if qs[i].want, err = daemonJSON(res); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// setUp boots, preloads and builds the reference answers: everything
// setup_s covers.
func setUp(r *rig, in *servingInputs) (*deployment, [nMetrics]int, []queryReq, error) {
	d, err := boot(r, in.spec)
	if err != nil {
		return nil, [nMetrics]int{}, nil, err
	}
	loaded, err := preload(d, in)
	if err != nil {
		return nil, loaded, nil, err
	}
	var qs []queryReq
	if in.spec.queries {
		if qs, err = reference(in, d.t0); err != nil {
			return nil, loaded, nil, err
		}
	}
	return d, loaded, qs, nil
}

// recorder collects one connection's samples; each load goroutine owns one.
type recorder struct {
	samples []sample
	errs    []string // first few failures, for the report
}

func (rec *recorder) add(s sample, err error) {
	s.ok = err == nil
	if err != nil && len(rec.errs) < 3 {
		rec.errs = append(rec.errs, err.Error())
	}
	rec.samples = append(rec.samples, s)
}

// closedLoopIngest posts the pool's batches back to back until stop is set:
// the next request leaves when the previous ack has arrived.
func closedLoopIngest(base string, conn int, pool []batch, stop *atomic.Bool, rec *recorder) {
	c := newConn()
	defer c.CloseIdleConnections()
	var buf []byte
	for i := 0; !stop.Load(); i++ {
		b := &pool[i%len(pool)]
		began := time.Now()
		buf = b.stamp(buf, began.UnixMilli())
		respLen, err := postBatch(c, base, buf, len(b.events))
		end := time.Now()
		rec.add(sample{at: end, lat: end.Sub(began), class: classAck, ops: len(b.events),
			reqLen: len(buf), respLen: respLen, conn: conn, pool: i % len(pool)}, err)
	}
}

// pacedIngest posts one batch every period whatever the previous one did,
// timing each from the moment it was due — the open-loop side of the query
// workload. One connection: a request still in flight at the next due time
// makes that one late, and the lateness is in its latency.
func pacedIngest(base string, pool []batch, stop *atomic.Bool, rec *recorder, due *dueTimes) {
	c := newConn()
	defer c.CloseIdleConnections()
	var buf []byte
	var free time.Time // when the connection's previous request completed
	for i := 0; ; i++ {
		at := due.next()
		// Sleeping wakes a goroutine a millisecond or more late when the
		// daemons keep both CPUs busy, so sleep short of the due time and
		// spin the rest: at most pacedSpin of every period.
		if d := time.Until(at) - pacedSpin; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(at) && !stop.Load() {
		}
		if stop.Load() {
			return
		}
		b := &pool[i%len(pool)]
		sent := time.Now()
		due.began(at, free, sent)
		buf = b.stamp(buf, sent.UnixMilli())
		respLen, err := postBatch(c, base, buf, len(b.events))
		end := time.Now()
		free = end
		rec.add(sample{at: end, lat: end.Sub(at), class: classAck, ops: len(b.events),
			reqLen: len(buf), respLen: respLen, conn: pacedConn, pool: i % len(pool)}, err)
	}
}

// closedLoopQueries cycles wide → narrow → keys, checking every answer:
// wide and narrow byte for byte against the reference, keys for the pinned
// key count.
func closedLoopQueries(base string, qs []queryReq, stop *atomic.Bool, rec *recorder) {
	c := newConn()
	defer c.CloseIdleConnections()
	wide, narrow := qs[0], qs[1:]
	for i := 0; !stop.Load(); i++ {
		var q queryReq
		switch i % 3 {
		case 0:
			q = wide
		case 1:
			q = narrow[(i/3)%len(narrow)]
		default:
			q = queryReq{class: classKeys, path: "/keys"}
		}
		began := time.Now()
		body, err := get(c, base+q.path)
		end := time.Now()
		if err == nil {
			err = checkAnswer(q, body)
		}
		rec.add(sample{at: end, lat: end.Sub(began), class: q.class, ops: 1, respLen: len(body)}, err)
	}
}

func checkAnswer(q queryReq, body []byte) error {
	if q.class == classKeys {
		var keys []telemetry.KeyCount
		if err := json.Unmarshal(body, &keys); err != nil {
			return fmt.Errorf("GET /keys: %w", err)
		}
		if len(keys) != nRegions*nNets*nMetrics {
			return fmt.Errorf("GET /keys: %d keys, want %d", len(keys), nRegions*nNets*nMetrics)
		}
		return nil
	}
	if !bytes.Equal(body, q.want) {
		return fmt.Errorf("GET %s: answer differs from the single-node reference:\n got %s\nwant %s", q.path, body, q.want)
	}
	return nil
}

// procSample is the daemons' CPU at one slice boundary.
type procSample struct {
	at   time.Time
	cpu  map[int]time.Duration // by pid
	host hostCPU
}

func sampleProcs(pids []int) (procSample, error) {
	s := procSample{at: time.Now(), cpu: make(map[int]time.Duration, len(pids))}
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return s, err
		}
		s.cpu[pid] = c
	}
	var err error
	s.host, err = readHostCPU()
	return s, err
}

func (s procSample) total() time.Duration {
	var t time.Duration
	for _, c := range s.cpu {
		t += c
	}
	return t
}

// selfCPU is the harness's own user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one warm-up plus measured window observed from outside.
type window struct {
	samples  []sample
	errs     []string
	procs    []procSample // nSlices+1 boundaries
	selfCPU  time.Duration
	due      *dueTimes // query workload only
	warmedUp time.Duration
	// Traced runs only: each node's /metrics at every boundary, the nodes'
	// WAL bytes at the window's first and last boundary, and their snapshot
	// bytes at the last.
	scrapes   map[string][]promSums
	walBytes  [2]int64
	snapBytes int64
}

func (w *window) bounds() []time.Time {
	out := make([]time.Time, len(w.procs))
	for i, p := range w.procs {
		out[i] = p.at
	}
	return out
}

// drive applies the workload's load for warmUp + seconds and samples the
// daemons at every slice boundary. With scrapeNodes it also reads each
// node's /metrics at the boundaries (traced runs; the end-to-end figures
// are always taken without).
func drive(d *deployment, in *servingInputs, qs []queryReq, seconds int, scrapeNodes bool) (*window, error) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		recs [2]recorder
		w    = &window{}
	)
	began := time.Now()
	launch := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	if in.spec.queries {
		w.due = &dueTimes{start: began, period: pacedPeriod}
		launch(func() { closedLoopQueries(d.entry(), qs, &stop, &recs[0]) })
		launch(func() { pacedIngest(d.entry(), in.pools[pacedConn], &stop, &recs[pacedConn], w.due) })
	} else {
		for c := range recs {
			launch(func() { closedLoopIngest(d.entry(), c, in.pools[c], &stop, &recs[c]) })
		}
	}
	var pids []int
	for _, c := range d.all() {
		pids = append(pids, c.pid())
	}
	scraper := newConn()
	defer scraper.CloseIdleConnections()
	if scrapeNodes {
		w.scrapes = map[string][]promSums{}
	}
	slice := time.Duration(seconds) * time.Second / nSlices
	// boundary reads everything read at slice boundary k.
	boundary := func(k int) error {
		ps, err := sampleProcs(pids)
		if err != nil {
			return err
		}
		w.procs = append(w.procs, ps)
		if !scrapeNodes {
			return nil
		}
		for _, n := range d.nodes {
			sums, err := scrape(scraper, n.url)
			if err != nil {
				return err
			}
			w.scrapes[n.name] = append(w.scrapes[n.name], sums)
			if k != 0 && k != nSlices {
				continue
			}
			wal, snap, err := dirBytes(n.dataDir())
			if err != nil {
				return err
			}
			w.walBytes[k/nSlices] += wal
			if k == nSlices {
				w.snapBytes += snap
			}
		}
		return nil
	}
	var err error
	for k := 0; k <= nSlices && err == nil; k++ {
		time.Sleep(time.Until(began.Add(warmUp + time.Duration(k)*slice)))
		if k == 0 {
			w.selfCPU = selfCPU()
			w.warmedUp = time.Since(began)
		}
		err = boundary(k)
	}
	w.selfCPU = selfCPU() - w.selfCPU
	stop.Store(true)
	wg.Wait()
	for i := range recs {
		w.samples = append(w.samples, recs[i].samples...)
		w.errs = append(w.errs, recs[i].errs...)
	}
	return w, err
}

// nodeHealth is the slice of a node's /healthz the drain and checks read.
type nodeHealth struct {
	Status string `json:"status"`
	Total  struct {
		Accepted  uint64 `json:"accepted"`
		Processed uint64 `json:"processed"`
		Dropped   uint64 `json:"dropped"`
		Shed      uint64 `json:"shed"`
	} `json:"total"`
}

// drain waits until every node has folded everything it accepted, and
// fails if any reports a drop or a degraded state.
func drain(d *deployment) error {
	c := newConn()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range d.nodes {
		for {
			raw, err := get(c, n.url+"/healthz")
			if err != nil {
				return err
			}
			var h nodeHealth
			if err := json.Unmarshal(raw, &h); err != nil {
				return fmt.Errorf("%s /healthz: %w", n.name, err)
			}
			if h.Total.Dropped != 0 || h.Total.Shed != 0 {
				return fmt.Errorf("%s dropped %d and shed %d events", n.name, h.Total.Dropped, h.Total.Shed)
			}
			if h.Total.Processed == h.Total.Accepted {
				if h.Status != "ok" {
					return fmt.Errorf("%s is %q after draining", n.name, h.Status)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not drain: processed %d of %d", n.name, h.Total.Processed, h.Total.Accepted)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// checkCounts asks the entry point for each metric's all-time count and
// compares it with what was loaded plus what was acknowledged: an acked
// event that is not in the rollups, or one counted twice, fails the run.
func checkCounts(d *deployment, want [nMetrics]int) error {
	c := newConn()
	defer c.CloseIdleConnections()
	for m, name := range metricNames {
		raw, err := get(c, d.entry()+"/query?metric="+name)
		if err != nil {
			return err
		}
		var res struct {
			Count   float64 `json:"count"`
			Partial bool    `json:"partial"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("/query?metric=%s: %w", name, err)
		}
		if res.Partial {
			return fmt.Errorf("/query?metric=%s answered partial", name)
		}
		if int(res.Count) != want[m] {
			return fmt.Errorf("/query?metric=%s counts %d events, %d were loaded and acknowledged", name, int(res.Count), want[m])
		}
	}
	return nil
}

// runServing measures one serving workload.
func runServing(r *rig, w *world, spec servingSpec, opt options) (*result, error) {
	in, err := newServingInputs(w, spec)
	if err != nil {
		return nil, err
	}
	probe := startSpeedProbe()
	defer probe.close()
	var (
		d         *deployment
		loaded    [nMetrics]int
		qs        []queryReq
		setups    []float64 // seconds each set-up took,
		setupSlow []float64 // the box's slowdown during it,
		stolen    []float64 // and the share of CPU time stolen during it
	)
	// setUpAgain replaces the deployment by a fresh one and returns the share
	// of CPU time stolen while it was set up.
	setUpAgain := func() (float64, error) {
		if d != nil {
			r.stop(d.all()...)
		}
		host0, err := readHostCPU()
		if err != nil {
			return 0, err
		}
		began := time.Now()
		if d, loaded, qs, err = setUp(r, in); err != nil {
			return 0, err
		}
		setups = append(setups, time.Since(began).Seconds())
		setupSlow = append(setupSlow, probe.slowdown(began, time.Now()))
		host1, err := readHostCPU()
		if err != nil {
			return 0, err
		}
		stolen = append(stolen, host0.stolenShare(host1))
		return stolen[len(stolen)-1], nil
	}
	for i := 0; i < opt.setUps; i++ {
		if _, err := setUpAgain(); err != nil {
			return nil, err
		}
	}
	waited, err := waitOutSteal(median(stolen), setUpAgain)
	if err != nil {
		return nil, err
	}
	win, err := drive(d, in, qs, opt.seconds, opt.trace)
	if err != nil {
		return nil, err
	}
	res := newResult(spec.name)
	bounds := win.bounds()

	// Every event acknowledged since boot — warm-up and stragglers past the
	// window included — must be in the rollups exactly once. A failure
	// outside the counted operations still fails the run, through win.errs.
	want := loaded
	for _, s := range win.samples {
		if isOp := (s.class != classAck) == spec.queries; isOp && sliceOf(bounds, s.at) >= 0 {
			res.attempted += s.ops
			if !s.ok {
				res.failed += s.ops
			}
		}
		if s.class == classAck && s.ok {
			for m, n := range in.pools[s.conn][s.pool].perMetric {
				want[m] += n
			}
		}
	}
	for _, e := range win.errs {
		res.fail(e)
	}
	if err := drain(d); err != nil {
		res.fail(err.Error())
	} else if err := checkCounts(d, want); err != nil {
		res.fail(err.Error())
	}

	primary, countOps := classAck, func(c reqClass) bool { return c == classAck }
	if in.spec.queries {
		primary, countOps = classWide, func(c reqClass) bool { return c != classAck }
	}
	sl := cut(win.samples, bounds, primary, countOps)
	for k := range sl.ops {
		sl.cpuUs = append(sl.cpuUs, float64((win.procs[k+1].total() - win.procs[k].total()).Microseconds()))
		sl.stolen = append(sl.stolen, win.procs[k].host.stolenShare(win.procs[k+1].host))
		sl.slow = append(sl.slow, probe.slowdown(bounds[k], bounds[k+1]))
	}
	const needQuiet = 3 // a median of fewer slices is just a sample
	use, quiet := quietSlices(sl.stolen, needQuiet)
	quietSetUps, _ := quietSlices(stolen, 1)
	var rss int64
	for _, c := range d.all() {
		b, err := procPeakRSS(c.pid())
		if err != nil {
			return nil, err
		}
		rss += b
	}
	// Every timed figure is what the reference box would have read: each
	// slice's (and set-up's) value is scaled by the box's slowdown while it
	// was measured, then the median is taken.
	res.e2e["setup_s"] = medianOver(atRefSpeed(setups, setupSlow, false), quietSetUps)
	res.e2e["ops_per_s"] = midMeanOver(atRefSpeed(sl.opsPerS(), sl.slow, true), use)
	res.e2e["p50_ms"] = midMeanOver(atRefSpeed(sl.p50s(), sl.slow, false), use)
	res.e2e["cpu_us_per_op"] = midMeanOver(atRefSpeed(sl.cpuUsPerOp(), sl.slow, false), use)
	res.e2e["peak_rss_mb"] = float64(rss) / (1 << 20)
	res.asMeasured = map[string]float64{
		"setup_s":       medianOver(setups, quietSetUps),
		"ops_per_s":     midMeanOver(sl.opsPerS(), use),
		"p50_ms":        midMeanOver(sl.p50s(), use),
		"cpu_us_per_op": midMeanOver(sl.cpuUsPerOp(), use),
	}
	res.layers["loadgen.box_slowdown"] = medianOver(sl.slow, use)
	res.notes = append(res.notes, waited,
		fmt.Sprintf("set-ups %.3f s, slowdown %.3f, stolen %% %.1f, median over %v; warm-up %.3f s (not in setup_s)",
			setups, setupSlow, percent(stolen), quietSetUps, win.warmedUp.Seconds()),
		fmt.Sprintf("per-slice ops/s    %8.0f", sl.opsPerS()),
		fmt.Sprintf("per-slice p50 ms   %8.2f", sl.p50s()),
		fmt.Sprintf("per-slice cpu us/op %8.1f", sl.cpuUsPerOp()),
		fmt.Sprintf("per-slice stolen %%  %8.1f", percent(sl.stolen)),
		fmt.Sprintf("per-slice slowdown %8.3f", sl.slow),
		fmt.Sprintf("figures are means of the middle half of slices %v, each slice at reference speed", use))
	if !quiet {
		res.warn(stolenWarning, needQuiet, len(sl.stolen), "slices", maxStolen*100, len(use))
	}
	if sp := detrendedSpread(atRefSpeed(sl.opsPerS(), sl.slow, true), use); quiet && sp > 0.25 {
		res.warn("quiet slices disagree by %.0f%% around their trend on ops_per_s even at reference speed: the box was disturbed during the window", sp*100)
	}
	loadgenShare := win.selfCPU.Seconds() / bounds[nSlices].Sub(bounds[0]).Seconds()
	if loadgenShare > 0.5 {
		res.warn("load generator used %.2f of a core", loadgenShare)
	}
	if win.due != nil {
		if share := float64(win.due.late) / float64(win.due.sent); share > 0.01 {
			res.warn("%.1f%% of paced sends left more than %v late (p50 %.2f ms, p99 %.2f ms): the generator shares the CPUs with the daemons",
				share*100, lateAfter, median(win.due.lateMs), quantileOf(win.due.lateMs, 0.99))
		}
	}
	if opt.trace {
		outsideLayers(res, r, d, in, win, sl, use)
		if err := tracedReplay(r, res, d, in, qs); err != nil {
			return nil, err
		}
	}
	r.stop(d.all()...)
	return res, nil
}

// percent scales shares for printing.
func percent(shares []float64) []float64 {
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = 100 * s
	}
	return out
}

// stolenWarning is what a run (or a batch run, of passes) prints when it
// could not take its figures from quiet slices.
const stolenWarning = "fewer than %d of %d %s were free of hypervisor steal (> %.0f%% of CPU time stolen): figures come from the %d least stolen and are not comparable with a quiet run's"

// dirBytes sums the sizes of a data directory's WAL segments and snapshots.
func dirBytes(root string) (wal, snap int64, err error) {
	err = filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a segment or snapshot tmp file renamed away mid-walk
			}
			return err
		}
		switch {
		case fi.IsDir():
		case strings.HasPrefix(fi.Name(), "wal-"):
			wal += fi.Size()
		case strings.HasPrefix(fi.Name(), "snapshot"):
			snap += fi.Size()
		}
		return nil
	})
	return wal, snap, err
}
