package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
	"edgescope/internal/telemetry/serve"
)

// clusterServers is a 3-node cluster and its frontend, each daemon the
// handler telemetryd serves for its role, reached over testNet.
type clusterServers struct {
	pm      *cluster.PartitionMap
	tracker *cluster.HealthTracker
	reg     *obs.Registry // the frontend's instruments, also on its /metrics
	ings    map[string]*telemetry.Ingestor
	servers map[string]*daemon
	front   *daemon
	wrap    func(id string, h http.Handler) http.Handler
	peers   []string
	urls    map[string]string
	// frontLog is the log of frontends booted from here on; nil discards.
	frontLog *slog.Logger
}

// newClusterServers boots nodes n0–n2 over 8 partitions and a frontend that
// persists its cluster state under dataDir (nowhere when empty). wrap, when
// set, stands something in front of each daemon's handler, keyed by node id
// or "frontend" — nodes added later included.
func newClusterServers(t *testing.T, dataDir string, wrap func(id string, h http.Handler) http.Handler) *clusterServers {
	t.Helper()
	peers := []string{"n0", "n1", "n2"}
	layout, err := cluster.NewMap(cluster.MapConfig{Partitions: 8, Nodes: peers})
	if err != nil {
		t.Fatal(err)
	}
	c := &clusterServers{ings: map[string]*telemetry.Ingestor{}, servers: map[string]*daemon{}, wrap: wrap,
		peers: peers, urls: map[string]string{}}
	for _, id := range peers {
		c.urls[id] = c.addNodeServer(t, id, layout.NodeInfo(id))
	}
	fr := c.bootFrontend(t, dataDir)
	c.pm, c.tracker, c.reg = fr.Map, fr.Health, fr.Metrics
	c.front = testNet.listen(t, c.wrapped("frontend", fr))
	return c
}

// bootFrontend boots a frontend daemon over the boot nodes: the one
// newClusterServers serves, or another incarnation beside or in place of
// it.
func (c *clusterServers) bootFrontend(t *testing.T, dataDir string) *serve.Frontend {
	t.Helper()
	fr, err := serve.NewFrontend(serve.FrontendConfig{
		Peers: c.peers, URLs: c.urls, Partitions: 8, DataDir: dataDir,
		Client: &http.Client{Timeout: time.Second, Transport: testNet},
		Seed:   1, Log: cmp.Or(c.frontLog, testLog),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	return fr
}

// addNodeServer boots one node daemon — an ingestor self-describing as info
// behind the node handler with its admin plane — and returns its URL. A
// joiner boots with info nil: it owns nothing until an assignment push tells
// it otherwise.
func (c *clusterServers) addNodeServer(t *testing.T, id string, info *telemetry.NodeInfo) string {
	t.Helper()
	if info == nil {
		info = &telemetry.NodeInfo{Role: "node", ID: id}
	}
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 256, Block: true, Node: info})
	t.Cleanup(func() { ing.Close() })
	h := serve.NewNode(serve.NodeConfig{Ing: ing, Metrics: obs.NewRegistry(), ID: id, Log: testLog})
	c.ings[id] = ing
	c.servers[id] = testNet.listen(t, c.wrapped(id, h))
	return c.servers[id].URL
}

func (c *clusterServers) wrapped(id string, h http.Handler) http.Handler {
	if c.wrap == nil {
		return h
	}
	return c.wrap(id, h)
}

// ingestLines builds a deterministic JSONL body spanning several keys.
func ingestLines(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for i, region := range []string{"Beijing", "Shanghai", "Shenzhen", "Chengdu"} {
		for j, net := range []string{"WiFi", "5G"} {
			for k := 0; k < 4; k++ {
				fmt.Fprintf(&sb, `{"v":1,"ts":%d,"metric":"rtt_ms","user":%d,"region":"%s","net":"%s","value":%d}`+"\n",
					1700000000000+int64(k)*500, i+1, region, net, 10+i*5+j*2+k)
			}
		}
	}
	return sb.String()
}

func postIngest(t *testing.T, url, body string) int {
	t.Helper()
	accepted, err := postAck(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return accepted
}

// postAck POSTs body to url's /ingest and returns the ack's "accepted"; a
// dropped envelope is an error. Safe off the test goroutine.
func postAck(url, body string) (int, error) {
	resp, err := testClient.Post(url+"/ingest", "application/jsonl", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, err
	}
	if ack.Dropped != 0 {
		return 0, fmt.Errorf("ingest dropped %d", ack.Dropped)
	}
	return ack.Accepted, nil
}

// allTimeCount is the all-time rtt_ms count a daemon's /query answers.
func allTimeCount(t *testing.T, url string) float64 {
	t.Helper()
	code, body, _ := get(t, url+"/query?metric=rtt_ms")
	var res struct {
		Count float64 `json:"count"`
	}
	if err := json.Unmarshal([]byte(body), &res); code != http.StatusOK || err != nil {
		t.Fatalf("/query: %d %v\n%s", code, err, body)
	}
	return res.Count
}

// TestFrontendRestartFoldsEveryAckedEnvelope: a frontend restarted against
// the same nodes folds every envelope it acks, on streams its previous
// incarnation carried too — the all-time count rises by exactly what was
// acked. The frontend numbers nothing, so the nodes hold no earlier number
// to take the new envelopes for duplicates of; a frontend that numbered
// unsequenced envelopes from in-memory cursors restarted at 1, and the
// nodes folded its events zero times.
func TestFrontendRestartFoldsEveryAckedEnvelope(t *testing.T) {
	c := newClusterServers(t, "", nil)
	body := ingestLines(t)
	if got := postIngest(t, c.front.URL, body); got != 32 {
		t.Fatalf("frontend accepted %d of 32", got)
	}
	c.flushAll(t)
	before := allTimeCount(t, c.front.URL)

	c.front.Close()
	c.front = testNet.listen(t, c.bootFrontend(t, ""))
	acked := postIngest(t, c.front.URL, body)
	if acked != 32 {
		t.Fatalf("restarted frontend accepted %d of 32", acked)
	}
	c.flushAll(t)
	if after := allTimeCount(t, c.front.URL); after-before != float64(acked) {
		t.Fatalf("all-time count %v → %v across the restart, want +%d (every acked envelope folded)", before, after, acked)
	}
}

// sequencedLines is one sequenced producer's JSONL body: ingestLines' keys
// under its own user id, each (key, user) stream numbered from 1.
func sequencedLines(user int) string {
	var sb strings.Builder
	for _, region := range []string{"Beijing", "Shanghai", "Shenzhen", "Chengdu"} {
		for j, net := range []string{"WiFi", "5G"} {
			for k := 0; k < 4; k++ {
				fmt.Fprintf(&sb, `{"v":1,"ts":%d,"metric":"rtt_ms","user":%d,"seq":%d,"region":"%s","net":"%s","value":%d}`+"\n",
					1700000000000+int64(k)*500, user, k+1, region, net, 10+user+j*2+k)
			}
		}
	}
	return sb.String()
}

// TestTwoFrontendsFoldSequencedProducersOnce: two frontends feed one
// cluster at once, each from its own sequenced producer, and each producer
// posts every request twice — a whole-request resend. The frontends
// forward the producers' numbers, so the nodes fold each envelope once:
// the cluster answers /query and /keys as one node fed each stream once.
func TestTwoFrontendsFoldSequencedProducersOnce(t *testing.T) {
	c := newClusterServers(t, "", nil)
	fronts := []*daemon{c.front, testNet.listen(t, c.bootFrontend(t, ""))}
	bodies := []string{sequencedLines(101), sequencedLines(102)}
	errs := make(chan error, 2*len(fronts))
	var wg sync.WaitGroup
	for i, front := range fronts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				if got, err := postAck(front.URL, bodies[i]); err != nil || got != 32 {
					errs <- fmt.Errorf("frontend %d: accepted %d of 32 (%v)", i, got, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c.flushAll(t)

	single, _, singleSrv := newTestServer(t, telemetry.Config{Shards: 4, Block: true}, false)
	for _, body := range bodies {
		if got := postIngest(t, singleSrv.URL, body); got != 32 {
			t.Fatalf("single accepted %d of 32", got)
		}
	}
	single.Flush()
	for _, q := range []string{"/query?metric=rtt_ms&q=0.5,0.95,0.99&cdf=10,20,40", "/keys"} {
		_, bodyC, _ := get(t, fronts[1].URL+q)
		_, bodyS, _ := get(t, singleSrv.URL+q)
		if bodyC != bodyS {
			t.Fatalf("cluster %s differs from one node fed each stream once:\n%s\n%s", q, bodyC, bodyS)
		}
	}
	if got := allTimeCount(t, c.front.URL); got != 64 {
		t.Fatalf("all-time count %v, want 64: each of the two producers' 32 envelopes folded once", got)
	}
}

// TestIngestOversizeLineCountedNotFatal: a line over the 1 MiB cap between
// two good ones is one malformed line on both /ingest handlers — counts
// answered, both good events accepted — not a bare 400 after the first event
// is already folded, which a retrying producer would double-count.
func TestIngestOversizeLineCountedNotFatal(t *testing.T) {
	_, _, single := newTestServer(t, telemetry.Config{Shards: 2, QueueLen: 256, Block: true}, false)
	c := newClusterServers(t, "", nil)
	good := `{"v":1,"ts":1700000000000,"metric":"rtt_ms","user":1,"region":"Beijing","net":"WiFi","value":10}` + "\n"
	body := good + strings.Repeat("x", 2<<20) + "\n" + good
	for name, url := range map[string]string{"node": single.URL, "frontend": c.front.URL} {
		resp, err := testClient.Post(url+"/ingest", "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack map[string]int
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		want := map[string]int{"decoded": 2, "malformed": 1, "accepted": 2, "dropped": 0}
		if resp.StatusCode != http.StatusOK || err != nil || !reflect.DeepEqual(ack, want) {
			t.Errorf("%s /ingest: status %d, ack %v (%v); want 200 %v", name, resp.StatusCode, ack, err, want)
		}
	}
}

// TestClusterFrontendMatchesSingleNode: the same JSONL stream pushed
// through the frontend router and through one single-node daemon answers
// /query and /keys byte-identically over HTTP.
func TestClusterFrontendMatchesSingleNode(t *testing.T) {
	c := newClusterServers(t, "", nil)
	body := ingestLines(t)
	if got := postIngest(t, c.front.URL, body); got != 32 {
		t.Fatalf("frontend accepted %d of 32", got)
	}
	for _, ing := range c.ings {
		ing.Flush()
	}
	// One POST per owner: the request reached the 3 nodes in at most 3 legs.
	var legs float64
	for _, s := range c.reg.Snapshot() {
		if s.Name == "cluster_router_legs_total" {
			legs += s.Value
		}
	}
	if legs < 1 || legs > 3 {
		t.Fatalf("one 32-envelope request took %v legs, want 1–3", legs)
	}

	single, _, singleSrv := newTestServer(t, telemetry.Config{Shards: 4, Block: true}, false)
	if got := postIngest(t, singleSrv.URL, body); got != 32 {
		t.Fatalf("single accepted %d of 32", got)
	}
	single.Flush()

	const q = "/query?metric=rtt_ms&q=0.5,0.95,0.99&cdf=10,20,40"
	codeC, bodyC, _ := get(t, c.front.URL+q)
	codeS, bodyS, _ := get(t, singleSrv.URL+q)
	if codeC != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("query status: cluster=%d single=%d", codeC, codeS)
	}
	if bodyC != bodyS {
		t.Fatalf("cluster /query differs from single-node:\n%s\n%s", bodyC, bodyS)
	}

	codeC, keysC, _ := get(t, c.front.URL+"/keys")
	codeS, keysS, _ := get(t, singleSrv.URL+"/keys")
	if codeC != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("keys status: cluster=%d single=%d", codeC, codeS)
	}
	if keysC != keysS {
		t.Fatalf("cluster /keys differs from single-node:\n%s\n%s", keysC, keysS)
	}
}

// TestFrontendMetricsCarryRetryClientFamilies: the frontend's router is the
// one production RetryClient, so the telemetry_client_* families README's
// /metrics table documents are on the frontend's /metrics, counting what was
// routed.
func TestFrontendMetricsCarryRetryClientFamilies(t *testing.T) {
	c := newClusterServers(t, "", nil)
	if got := postIngest(t, c.front.URL, ingestLines(t)); got != 32 {
		t.Fatalf("frontend accepted %d of 32", got)
	}
	code, body, _ := get(t, c.front.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"telemetry_client_sent_total 32\n",
		"telemetry_client_retries_total 0\n",
		"telemetry_client_failed_total 0\n",
		"# TYPE telemetry_client_backoff_seconds histogram\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("frontend /metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestFrontendForwardsRequestID: the frontend sends the caller's request
// id on every node leg it runs for the request, ingest and scatter legs
// alike, and mints one from a counter when the caller sends none. A request
// that answers partial — an ingest acked short, a /query or /keys missing a
// node — is logged once at Warn with that id; a complete one logs nothing.
func TestFrontendForwardsRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // node leg path → the ids it carried
	var logs lockedLog
	c := newClusterServers(t, "", func(id string, h http.Handler) http.Handler {
		if id == "frontend" {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				mu.Lock()
				seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(cluster.RequestIDHeader))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	c.frontLog = slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
	fr := c.bootFrontend(t, "")
	c.front = testNet.listen(t, fr)
	send := func(method, path, id, body string, status int) {
		t.Helper()
		req, err := http.NewRequest(method, c.front.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(cluster.RequestIDHeader, id)
		}
		resp, err := testClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s %s: %d, want %d", method, path, resp.StatusCode, status)
		}
	}
	send(http.MethodPost, "/ingest", "producer-7", ingestLines(t), http.StatusOK)
	send(http.MethodGet, "/query?metric=rtt_ms", "dash-1", "", http.StatusOK)
	send(http.MethodGet, "/keys", "", "", http.StatusOK)
	send(http.MethodGet, "/keys", "", "", http.StatusOK)
	mu.Lock()
	legs := maps.Clone(seen)
	mu.Unlock()
	for path, want := range map[string]string{"/ingest": "producer-7", "/sketches": "dash-1"} {
		if len(legs[path]) == 0 {
			t.Fatalf("no %s leg ran", path)
		}
		for _, got := range legs[path] {
			if got != want {
				t.Fatalf("%s legs carried %q, want the caller's %q", path, legs[path], want)
			}
		}
	}
	// Two /keys requests without an id: each gets its own minted one, the
	// same on all of its legs.
	minted := map[string]int{}
	for _, id := range legs["/keys"] {
		minted[id]++
	}
	if len(minted) != 2 || minted[""] != 0 || len(legs["/keys"]) != 6 {
		t.Fatalf("/keys legs carried %q, want one minted id per request on each of its 3 legs", legs["/keys"])
	}
	if got := logs.records(t); len(got) != 0 {
		t.Fatalf("complete answers logged %v", got)
	}

	// With n1 down: one envelope it owns and one n0 owns, a query and an
	// inventory, each answered partial.
	var body []byte
	for i, want := 0, []string{"n1", "n0"}; len(want) > 0; i++ {
		e := telemetry.Envelope{V: telemetry.SchemaVersion, TS: 1700000000000, Metric: telemetry.MetricRTT,
			Region: fmt.Sprintf("r%d", i), Net: "WiFi", Value: 1}
		if c.pm.Owner(c.pm.PartitionOf(e.Key())) == want[0] {
			body, _ = telemetry.AppendJSONL(body, e)
			want = want[1:]
		}
	}
	c.servers["n1"].Close()
	for i := 0; i < 3; i++ {
		fr.Health.ProbeOnce()
	}
	send(http.MethodPost, "/ingest", "producer-8", string(body), http.StatusOK)
	send(http.MethodGet, "/query?metric=rtt_ms", "dash-2", "", http.StatusOK)
	send(http.MethodGet, "/keys", "dash-3", "", http.StatusPartialContent)
	got := map[string]map[string]any{}
	for _, rec := range logs.records(t) {
		id, _ := rec["request_id"].(string)
		if got[id] != nil {
			t.Fatalf("request %s logged twice: %v and %v", id, got[id], rec)
		}
		got[id] = rec
	}
	for id, want := range map[string]string{
		"producer-8": `"msg":"ingest acked partially","request_id":"producer-8","decoded":2,"accepted":1`,
		"dash-2":     `"msg":"query answered partial","request_id":"dash-2","missing_nodes":["n1"],"missing_partitions":` + jsonOf(t, c.pm.OwnedBy("n1")),
		"dash-3":     `"msg":"keys answered partial","request_id":"dash-3","missing_nodes":["n1"]`,
	} {
		if rec := got[id]; rec["level"] != "WARN" || !strings.Contains(rec["line"].(string), want) {
			t.Fatalf("request %s logged %v, want a Warn line holding %s", id, rec["line"], want)
		}
	}
	if len(got) != 3 {
		t.Fatalf("logged %d requests, want the 3 partial ones", len(got))
	}
}

// lockedLog is a log sink the test reads while the daemon may still write.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// records parses each JSON log line, keeping the raw line under "line".
func (l *lockedLog) records(t *testing.T) []map[string]any {
	t.Helper()
	l.mu.Lock()
	text := l.buf.String()
	l.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		rec := map[string]any{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		rec["line"] = line
		out = append(out, rec)
	}
	return out
}

// jsonOf is v's compact JSON.
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterFrontendPartialOverHTTP: a dead member surfaces in /query as
// partial + missing partitions, and /keys answers 206 with the missing
// node named — explicit partiality, never silent gaps.
func TestClusterFrontendPartialOverHTTP(t *testing.T) {
	c := newClusterServers(t, "", nil)
	if got := postIngest(t, c.front.URL, ingestLines(t)); got != 32 {
		t.Fatalf("accepted %d of 32", got)
	}
	for _, ing := range c.ings {
		ing.Flush()
	}

	c.servers["n1"].Close()
	for i := 0; i < 3; i++ {
		c.tracker.ProbeOnce()
	}

	code, body, _ := get(t, c.front.URL+"/query?metric=rtt_ms")
	if code != http.StatusOK {
		t.Fatalf("partial query status = %d", code)
	}
	var res struct {
		Count             float64  `json:"count"`
		Partial           bool     `json:"partial"`
		MissingPartitions []int    `json:"missing_partitions"`
		MissingNodes      []string `json:"missing_nodes"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("dead member not flagged partial: %s", body)
	}
	if !reflect.DeepEqual(res.MissingNodes, []string{"n1"}) {
		t.Fatalf("missing nodes = %v", res.MissingNodes)
	}
	if !reflect.DeepEqual(res.MissingPartitions, c.pm.OwnedBy("n1")) {
		t.Fatalf("missing partitions = %v, n1 owns %v", res.MissingPartitions, c.pm.OwnedBy("n1"))
	}
	if res.Count == 0 {
		t.Fatal("partial answer lost surviving data")
	}

	code, _, hdr := get(t, c.front.URL+"/keys")
	if code != http.StatusPartialContent {
		t.Fatalf("partial /keys status = %d, want 206", code)
	}
	if got := hdr.Get("X-Missing-Nodes"); got != "n1" {
		t.Fatalf("X-Missing-Nodes = %q", got)
	}

	code, body, _ = get(t, c.front.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	var h struct {
		Status string `json:"status"`
		Nodes  []struct {
			Node  string `json:"node"`
			State string `json:"state"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("cluster healthz status = %s with a dead member", h.Status)
	}
	states := map[string]string{}
	for _, n := range h.Nodes {
		states[n.Node] = n.State
	}
	if states["n1"] != "down" || states["n0"] != "up" {
		t.Fatalf("member states = %v", states)
	}
}

// TestNodeHealthzSelfDescribes: a cluster node's /healthz names its role
// and partition assignment.
func TestNodeHealthzSelfDescribes(t *testing.T) {
	c := newClusterServers(t, "", nil)
	code, body, _ := get(t, c.servers["n2"].URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var h struct {
		Node *telemetry.NodeInfo `json:"node"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Node == nil || h.Node.Role != "node" || h.Node.ID != "n2" {
		t.Fatalf("healthz node = %+v", h.Node)
	}
	if !reflect.DeepEqual(h.Node.Partitions, c.pm.OwnedBy("n2")) {
		t.Fatalf("healthz partitions = %v, want %v", h.Node.Partitions, c.pm.OwnedBy("n2"))
	}
}

// TestSketchesEndpoint: /sketches serves what the front-end merges — one
// sealed fold per key, each saying how many rollups it covers, keys
// ascending — and validates specs like /query does.
func TestSketchesEndpoint(t *testing.T) {
	ing, _, srv := newTestServer(t, telemetry.Config{Shards: 2, Block: true}, false)
	if got := postIngest(t, srv.URL, ingestLines(t)); got != 32 {
		t.Fatalf("accepted %d", got)
	}
	ing.Flush() // an accepted event is queued, not yet folded

	code, body, _ := get(t, srv.URL+"/sketches?metric=rtt_ms")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var page telemetry.SketchPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Metric != "rtt_ms" || len(page.Matches) == 0 || page.Compression == 0 {
		t.Fatalf("page = metric=%q matches=%d compression=%v", page.Metric, len(page.Matches), page.Compression)
	}
	for i, m := range page.Matches {
		if m.Windows < 1 || len(m.Sketch) == 0 {
			t.Fatalf("match %d (%s/%s) is not a fold: windows=%d, %d sketch bytes", i, m.Region, m.Net, m.Windows, len(m.Sketch))
		}
		if i > 0 {
			if p := page.Matches[i-1]; p.Region > m.Region || (p.Region == m.Region && p.Net >= m.Net) {
				t.Fatalf("match %d (%s/%s) does not follow %s/%s in key order", i, m.Region, m.Net, p.Region, p.Net)
			}
		}
	}

	if code, _, _ := get(t, srv.URL+"/sketches"); code != http.StatusBadRequest {
		t.Fatalf("metric-less /sketches status = %d, want 400", code)
	}
}

func TestParsePeers(t *testing.T) {
	ids, urls, err := parsePeers("n0=http://a:1, n1=http://b:2 ,n2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"n0", "n1", "n2"}) {
		t.Fatalf("ids = %v (order is placement-significant)", ids)
	}
	if urls["n0"] != "http://a:1" || urls["n1"] != "http://b:2" || urls["n2"] != "" {
		t.Fatalf("urls = %v", urls)
	}
	if _, _, err := parsePeers(""); err == nil {
		t.Fatal("empty peers accepted")
	}
	if _, _, err := parsePeers("=http://x"); err == nil {
		t.Fatal("id-less peer accepted")
	}
}

// TestParsePeersStrict: duplicate and empty entries are rejected with the
// offending peer named — a silently deduped list would hand daemons
// different placement arithmetic.
func TestParsePeersStrict(t *testing.T) {
	if _, _, err := parsePeers("n0=http://a,n1=http://b,n0=http://c"); err == nil || !strings.Contains(err.Error(), `"n0"`) {
		t.Fatalf("duplicate peer: err = %v, want it to name n0", err)
	}
	if _, _, err := parsePeers("n0=http://a,,n1=http://b"); err == nil || !strings.Contains(err.Error(), "position 1") {
		t.Fatalf("empty entry: err = %v, want it to name position 1", err)
	}
	if _, _, err := parsePeers("n0=http://a,n1=http://b,"); err == nil {
		t.Fatal("trailing comma accepted")
	}
}
