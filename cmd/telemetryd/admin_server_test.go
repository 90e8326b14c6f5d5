package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
	"edgescope/internal/telemetry/serve"
)

// memberReq is the body POST /admin/join|leave|drain take; url is join-only.
type memberReq struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// flushAll settles every node through the HTTP admin leg.
func (c *clusterServers) flushAll(t *testing.T) {
	t.Helper()
	for id, srv := range c.servers {
		if code, body := postJSONBody(t, srv.URL+"/admin/flush", nil); code != http.StatusOK {
			t.Fatalf("flush %s: %d %s", id, code, body)
		}
	}
}

func postJSONBody(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	var rdr *bytes.Reader
	if body == nil {
		rdr = bytes.NewReader(nil)
	} else {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	}
	resp, err := testClient.Post(url, "application/json", rdr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// assignmentStatus polls GET /admin/assignment.
func assignmentStatus(t *testing.T, frontURL string) (status string, epoch uint64, migrating []int) {
	t.Helper()
	code, body, _ := get(t, frontURL+"/admin/assignment")
	if code != http.StatusOK {
		t.Fatalf("/admin/assignment: %d %s", code, body)
	}
	var res struct {
		Status    string `json:"status"`
		Epoch     uint64 `json:"epoch"`
		Migrating []int  `json:"migrating"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	return res.Status, res.Epoch, res.Migrating
}

// sameAnswers fails the test unless the frontend's /query and /keys answer
// byte-identically to the single-node daemon's, /keys complete.
func sameAnswers(t *testing.T, stage, frontURL, singleURL string) {
	t.Helper()
	const q = "/query?metric=rtt_ms&q=0.5,0.95,0.99&cdf=10,20,40"
	_, bodyC, _ := get(t, frontURL+q)
	_, bodyS, _ := get(t, singleURL+q)
	if bodyC != bodyS {
		t.Fatalf("%s: cluster /query differs from single-node:\n%s\n%s", stage, bodyC, bodyS)
	}
	codeK, keysC, _ := get(t, frontURL+"/keys")
	_, keysS, _ := get(t, singleURL+"/keys")
	if codeK != http.StatusOK || keysC != keysS {
		t.Fatalf("%s: cluster /keys differs (status %d):\n%s\n%s", stage, codeK, keysC, keysS)
	}
}

// TestAdminJoinDrainLeaveOverHTTP drives the full elastic lifecycle
// through the daemon's HTTP surface: a join mid-stream hands partitions to
// the new node, a drain empties a member, a leave removes it — and after
// every epoch the frontend's /query and /keys stay byte-identical to one
// single-node daemon that ingested the whole stream. No daemon restarts.
func TestAdminJoinDrainLeaveOverHTTP(t *testing.T) {
	c := newClusterServers(t, "", nil)
	lines := strings.SplitAfter(strings.TrimSuffix(ingestLines(t), "\n"), "\n")
	half := len(lines) / 2
	first, second := strings.Join(lines[:half], ""), strings.Join(lines[half:], "")

	if got := postIngest(t, c.front.URL, first); got != half {
		t.Fatalf("accepted %d of %d", got, half)
	}
	c.flushAll(t)

	// Join a fourth node while the cluster holds data: its quota must
	// arrive as sketch pages, and the epoch must activate atomically.
	n3url := c.addNodeServer(t, "n3", nil)
	code, body := postJSONBody(t, c.front.URL+"/admin/join", memberReq{ID: "n3", URL: n3url})
	if code != http.StatusOK {
		t.Fatalf("join: %d %s", code, body)
	}
	var joined cluster.Assignment
	if err := json.Unmarshal([]byte(body), &joined); err != nil {
		t.Fatal(err)
	}
	if joined.Epoch != 2 {
		t.Fatalf("join epoch = %d, want 2", joined.Epoch)
	}
	owns := 0
	for _, o := range joined.Owners {
		if o == "n3" {
			owns++
		}
	}
	if owns != 2 { // 8 partitions / 4 nodes
		t.Fatalf("n3 owns %d partitions, want 2", owns)
	}
	if status, epoch, migrating := assignmentStatus(t, c.front.URL); status != "active" || epoch != 2 || len(migrating) != 0 {
		t.Fatalf("post-join assignment: status=%s epoch=%d migrating=%v", status, epoch, migrating)
	}
	// The pushed assignment reached the joiner: its /healthz self-describes
	// the partitions it now owns.
	code, body, _ = func() (int, string, http.Header) { return get(t, n3url+"/healthz") }()
	if code != http.StatusOK {
		t.Fatalf("n3 healthz: %d", code)
	}
	var h struct {
		Node *telemetry.NodeInfo `json:"node"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Node == nil || len(h.Node.Partitions) != 2 {
		t.Fatalf("n3 self-description after push: %+v", h.Node)
	}

	// A duplicate join must refuse without touching the live member.
	if code, _ := postJSONBody(t, c.front.URL+"/admin/join", memberReq{ID: "n3", URL: n3url}); code != http.StatusConflict {
		t.Fatalf("duplicate join: %d, want 409", code)
	}

	// The rest of the stream rides the new epoch.
	if got := postIngest(t, c.front.URL, second); got != len(lines)-half {
		t.Fatalf("accepted %d of %d", got, len(lines)-half)
	}
	c.flushAll(t)

	single, _, singleSrv := newTestServer(t, telemetry.Config{Shards: 4, Block: true}, false)
	if got := postIngest(t, singleSrv.URL, first+second); got != len(lines) {
		t.Fatalf("single accepted %d", got)
	}
	single.Flush()
	sameAnswers(t, "post-join", c.front.URL, singleSrv.URL)

	// Drain n1 (it stays a member, owning nothing), then leave — which
	// moves nothing further. Identity must hold at each epoch.
	code, body = postJSONBody(t, c.front.URL+"/admin/drain", memberReq{ID: "n1"})
	if code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, body)
	}
	var drained cluster.Assignment
	if err := json.Unmarshal([]byte(body), &drained); err != nil {
		t.Fatal(err)
	}
	if drained.Epoch != 3 {
		t.Fatalf("drain epoch = %d", drained.Epoch)
	}
	for p, o := range drained.Owners {
		if o == "n1" {
			t.Fatalf("partition %d still on drained n1", p)
		}
	}
	sameAnswers(t, "post-drain", c.front.URL, singleSrv.URL)

	code, body = postJSONBody(t, c.front.URL+"/admin/leave", memberReq{ID: "n1"})
	if code != http.StatusOK {
		t.Fatalf("leave: %d %s", code, body)
	}
	var left cluster.Assignment
	if err := json.Unmarshal([]byte(body), &left); err != nil {
		t.Fatal(err)
	}
	if left.Epoch != 4 || left.Member("n1") {
		t.Fatalf("leave: epoch=%d members=%v", left.Epoch, left.Nodes)
	}
	sameAnswers(t, "post-leave", c.front.URL, singleSrv.URL)

	// The departed node is unwired: leaving again refuses.
	if code, _ := postJSONBody(t, c.front.URL+"/admin/leave", memberReq{ID: "n1"}); code != http.StatusConflict {
		t.Fatalf("double leave: %d, want 409", code)
	}
}

// TestConcurrentDuplicateJoin: a second join of a node whose first join is
// still migrating waits for that migration, then refuses without unwiring
// the member the first one admitted — the router keeps delivering to it and
// every query stays complete, byte-identical to one single-node daemon's.
func TestConcurrentDuplicateJoin(t *testing.T) {
	joins := make(chan struct{}, 2) // one per join request
	absorbing, release := make(chan struct{}), make(chan struct{})
	var gated atomic.Bool
	c := newClusterServers(t, "", func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case id == "frontend" && r.URL.Path == "/admin/join":
				joins <- struct{}{}
			case id == "n3" && r.URL.Path == "/admin/absorb" && gated.CompareAndSwap(false, true):
				close(absorbing)
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	lines := strings.SplitAfter(strings.TrimSuffix(ingestLines(t), "\n"), "\n")
	half := len(lines) / 2
	first, second := strings.Join(lines[:half], ""), strings.Join(lines[half:], "")
	if got := postIngest(t, c.front.URL, first); got != half {
		t.Fatalf("accepted %d of %d", got, half)
	}
	c.flushAll(t)

	n3url := c.addNodeServer(t, "n3", nil)
	codes := make(chan int, 2)
	join := func() {
		resp, err := testClient.Post(c.front.URL+"/admin/join", "application/json",
			strings.NewReader(fmt.Sprintf(`{"id":"n3","url":%q}`, n3url)))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go join()
	<-absorbing // the first join is mid-handoff: n3 wired, its epoch pending
	go join()
	<-joins
	<-joins // the second join has reached the frontend too
	close(release)
	got := []int{<-codes, <-codes}
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{http.StatusOK, http.StatusConflict}) {
		t.Fatalf("concurrent joins answered %v, want one 200 and one 409", got)
	}
	if status, epoch, _ := assignmentStatus(t, c.front.URL); status != "active" || epoch != 2 {
		t.Fatalf("after the joins: status=%s epoch=%d, want active at 2", status, epoch)
	}

	single, _, singleSrv := newTestServer(t, telemetry.Config{Shards: 4, Block: true}, false)
	if got := postIngest(t, singleSrv.URL, first); got != half {
		t.Fatalf("single accepted %d", got)
	}
	single.Flush()
	c.flushAll(t)
	sameAnswers(t, "after the joins", c.front.URL, singleSrv.URL)

	// n3's partitions still route: the rest of the stream lands whole.
	if got := postIngest(t, c.front.URL, second); got != len(lines)-half {
		t.Fatalf("accepted %d of %d", got, len(lines)-half)
	}
	if got := postIngest(t, singleSrv.URL, second); got != len(lines)-half {
		t.Fatalf("single accepted %d", got)
	}
	c.flushAll(t)
	single.Flush()
	sameAnswers(t, "after more ingest", c.front.URL, singleSrv.URL)
}

// TestAdminStatePersistence: each activated epoch lands in
// cluster-state.json with the member URLs, and the persisted table
// rebuilds a partition map at the activated epoch — what a frontend
// restart resumes from.
func TestAdminStatePersistence(t *testing.T) {
	dir := t.TempDir()
	c := newClusterServers(t, dir, nil)
	n3url := c.addNodeServer(t, "n3", nil)
	if code, body := postJSONBody(t, c.front.URL+"/admin/join", memberReq{ID: "n3", URL: n3url}); code != http.StatusOK {
		t.Fatalf("join: %d %s", code, body)
	}

	st, err := serve.LoadClusterState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no cluster state persisted")
	}
	if st.Assignment.Epoch != 2 || !st.Assignment.Member("n3") {
		t.Fatalf("persisted assignment: epoch=%d nodes=%v", st.Assignment.Epoch, st.Assignment.Nodes)
	}
	if st.URLs["n3"] != n3url {
		t.Fatalf("persisted urls missing the joiner: %v", st.URLs)
	}
	pm2, err := cluster.NewMapFromAssignment(st.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if pm2.Epoch() != 2 || !reflect.DeepEqual(pm2.Nodes(), st.Assignment.Nodes) {
		t.Fatalf("resumed map: epoch=%d nodes=%v", pm2.Epoch(), pm2.Nodes())
	}

	// Corrupt state must refuse loudly, not resume garbage placement.
	if err := os.WriteFile(filepath.Join(dir, serve.ClusterStateFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.LoadClusterState(dir); err == nil {
		t.Fatal("corrupt cluster-state.json loaded")
	}
	// An absent file is a clean first boot.
	if st, err := serve.LoadClusterState(t.TempDir()); err != nil || st != nil {
		t.Fatalf("fresh dir: st=%v err=%v", st, err)
	}
}

// stateFixture installs a parent-written testdata/cluster-state-*.json
// (captured from the last build that had -replicas, after a join at epoch
// 2) as a data directory's cluster-state.json.
func stateFixture(t *testing.T, name string) (dir string, raw []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, serve.ClusterStateFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, raw
}

// TestParentFactor1StateResumes: a state file the parent build wrote under
// the default replication factor resumes at its epoch, and this build
// writes the same bytes back.
func TestParentFactor1StateResumes(t *testing.T) {
	dir, raw := stateFixture(t, "cluster-state-rf1.json")
	st, err := serve.LoadClusterState(dir)
	if err != nil {
		t.Fatalf("parent factor-1 state refused: %v", err)
	}
	pm, err := cluster.NewMapFromAssignment(st.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Epoch() != 2 || !reflect.DeepEqual(pm.Nodes(), []string{"n0", "n1", "n2"}) || len(pm.OwnedBy("n2")) != 2 {
		t.Fatalf("resumed map: epoch=%d nodes=%v n2 owns %v", pm.Epoch(), pm.Nodes(), pm.OwnedBy("n2"))
	}
	if err := serve.SaveClusterState(dir, *st); err != nil {
		t.Fatal(err)
	}
	if back, _ := os.ReadFile(filepath.Join(dir, serve.ClusterStateFile)); !bytes.Equal(back, raw) {
		t.Fatalf("state file bytes changed:\n%s\nwant\n%s", back, raw)
	}
}

// TestFactor2StateIsRefused: the lenient JSON decode would read a table
// written by a -replicas 2 frontend as factor 1 and hide every failover
// slice from every query. Both ways such a table can arrive — the state
// file at boot, a pushed POST /admin/assignment — refuse it, saying why.
func TestFactor2StateIsRefused(t *testing.T) {
	dir, raw := stateFixture(t, "cluster-state-rf2.json")
	_, err := serve.LoadClusterState(dir)
	if err == nil {
		t.Fatal("a factor-2 cluster-state.json loaded")
	}
	for _, want := range []string{serve.ClusterStateFile, "replication factor 2", "replication was removed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not mention %q", err, want)
		}
	}

	var st struct {
		Assignment json.RawMessage `json:"assignment"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	c := newClusterServers(t, "", nil)
	resp, err := testClient.Post(c.servers["n0"].URL+"/admin/assignment", "application/json", bytes.NewReader(st.Assignment))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "replication factor 2") {
		t.Fatalf("pushed factor-2 assignment: %d %s", resp.StatusCode, body)
	}
}

// TestReplicasFlagIsGone: the daemon run with the removed flag exits 2 with
// the flag package's own message, before it opens anything.
func TestReplicasFlagIsGone(t *testing.T) {
	if os.Getenv("TELEMETRYD_RUN_MAIN") == "1" {
		os.Args = []string{"telemetryd", "-role", "frontend", "-replicas", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplicasFlagIsGone$")
	cmd.Env = append(os.Environ(), "TELEMETRYD_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("telemetryd -replicas 2: err=%v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -replicas") {
		t.Fatalf("telemetryd -replicas 2 printed:\n%s", out)
	}
}

// TestNodeAdminHTTPRoundTrip exercises the node-side admin legs directly:
// freeze refuses ingest for the frozen partition only, pages fetched from
// one node absorb into another bit-exactly, and drop empties the source.
func TestNodeAdminHTTPRoundTrip(t *testing.T) {
	c := newClusterServers(t, "", nil)
	a, b := c.servers["n0"].URL, c.servers["n1"].URL
	line := `{"v":1,"ts":1700000000000,"metric":"rtt_ms","user":7,"region":"Beijing","net":"WiFi","value":42}` + "\n"
	e := telemetry.Envelope{V: 1, TS: 1700000000000, Metric: telemetry.MetricRTT, User: 7, Region: "Beijing", Net: "WiFi", Value: 42}
	p := e.Key().ShardOf(8)

	// Freeze the envelope's partition: direct ingest of it must refuse;
	// a conflicting freeze under a different partition count must 409.
	if code, body := postJSONBody(t, fmt.Sprintf("%s/admin/freeze?partition=%d&of=8", a, p), nil); code != http.StatusOK {
		t.Fatalf("freeze: %d %s", code, body)
	}
	if code, _ := postJSONBody(t, fmt.Sprintf("%s/admin/freeze?partition=%d&of=4", a, p%4), nil); code != http.StatusConflict {
		t.Fatal("conflicting freeze accepted")
	}
	if got := postFreezeProbe(t, a, line); got != 0 {
		t.Fatalf("frozen partition accepted %d", got)
	}
	if code, body := postJSONBody(t, fmt.Sprintf("%s/admin/unfreeze?partition=%d&of=8", a, p), nil); code != http.StatusOK {
		t.Fatalf("unfreeze: %d %s", code, body)
	}
	if got := postFreezeProbe(t, a, line); got != 1 {
		t.Fatalf("unfrozen partition accepted %d", got)
	}
	if code, body := postJSONBody(t, a+"/admin/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}

	// Cut the partition's pages, absorb them into n1, drop them from n0:
	// n1's answer must be byte-identical to n0's before the drop.
	const q = "/query?metric=rtt_ms&q=0.5"
	_, before, _ := get(t, a+q)
	partURL := fmt.Sprintf("%s/sketches/partition?partition=%d&of=8", a, p)
	code, pageSet, _ := getAs(t, partURL, telemetry.SketchPageContentType)
	if code != http.StatusOK {
		t.Fatalf("pages: %d %s", code, pageSet)
	}
	pages, err := telemetry.DecodeSketchPages(pageSet)
	if err != nil || len(pages) == 0 {
		t.Fatalf("cut %d pages, err %v", len(pages), err)
	}
	// Pages are absorbed in their binary form only: the JSON dump the same
	// endpoint serves to curl is read-only, and posting it back is refused
	// before anything is parsed.
	_, dump, _ := get(t, partURL)
	if code, body := postJSONBody(t, b+"/admin/absorb", json.RawMessage(dump)); code != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON pages on /admin/absorb: %d %s, want 415", code, body)
	}
	code, ackBody := postPages(t, b+"/admin/absorb", pageSet)
	if code != http.StatusOK {
		t.Fatalf("absorb: %d %s", code, ackBody)
	}
	var ack telemetry.AbsorbAck
	if err := json.Unmarshal([]byte(ackBody), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Pages != len(pages) || ack.Count != 1 {
		t.Fatalf("absorb ack = %+v", ack)
	}
	code, dropBody := postJSONBody(t, fmt.Sprintf("%s/admin/drop?partition=%d&of=8", a, p), nil)
	if code != http.StatusOK {
		t.Fatalf("drop: %d %s", code, dropBody)
	}
	var dropped struct {
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(dropBody), &dropped); err != nil {
		t.Fatal(err)
	}
	if dropped.Dropped == 0 {
		t.Fatal("drop removed nothing")
	}
	_, after, _ := get(t, b+q)
	if after != before {
		t.Fatalf("absorbed node differs from source:\n%s\n%s", after, before)
	}
	// A page set that fails its checksum is rejected whole.
	pageSet[len(pageSet)/2] ^= 0x10
	if code, body := postPages(t, b+"/admin/absorb", pageSet); code != http.StatusBadRequest {
		t.Fatalf("damaged page set on /admin/absorb: %d %s, want 400", code, body)
	}
}

// postPages posts a binary sketch-page set, as the migrator's leg does.
func postPages(t *testing.T, url string, pageSet []byte) (int, string) {
	t.Helper()
	resp, err := testClient.Post(url, telemetry.SketchPageContentType, bytes.NewReader(pageSet))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// postFreezeProbe posts one JSONL line straight at a node and returns the
// accepted count.
func postFreezeProbe(t *testing.T, nodeURL, line string) int {
	t.Helper()
	resp, err := testClient.Post(nodeURL+"/ingest", "application/jsonl", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.Accepted
}
