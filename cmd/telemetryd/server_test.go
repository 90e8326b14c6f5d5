package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/serve"
)

// memNet is the tests' network: each daemon a test stands up is a handler
// under a host of its own, reached through an http.RoundTripper with no
// sockets. A host that is not serving (never was, or was closed) fails its
// round trip, as a dead daemon's refused connection does.
type memNet struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	seq   int
}

var (
	testNet    = &memNet{hosts: map[string]http.Handler{}}
	testClient = &http.Client{Transport: testNet}
	testLog    = slog.New(slog.DiscardHandler)
)

// daemon is one server on a memNet, addressed like an httptest.Server.
type daemon struct {
	URL  string
	host string
	net  *memNet
}

// listen serves h under a host of its own until the test ends.
func (m *memNet) listen(t *testing.T, h http.Handler) *daemon {
	m.mu.Lock()
	m.seq++
	host := fmt.Sprintf("daemon-%d.test", m.seq)
	m.hosts[host] = h
	m.mu.Unlock()
	d := &daemon{URL: "http://" + host, host: host, net: m}
	t.Cleanup(d.Close)
	return d
}

// Close kills the daemon: every later round trip to it fails.
func (d *daemon) Close() {
	d.net.mu.Lock()
	delete(d.net.hosts, d.host)
	d.net.mu.Unlock()
}

func (m *memNet) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	m.mu.Lock()
	h := m.hosts[r.URL.Host]
	m.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	// The handler gets its own copy, shaped as a server-side request.
	sr := r.Clone(r.Context())
	sr.RequestURI = r.URL.RequestURI()
	if sr.Body == nil {
		sr.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, sr)
	return rec.Result(), nil
}

func newTestServer(t *testing.T, cfg telemetry.Config, pprofOn bool) (*telemetry.Ingestor, *obs.Registry, *daemon) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ing, _, err := telemetry.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return ing, reg, testNet.listen(t, serve.NewNode(serve.NodeConfig{Ing: ing, Metrics: reg, Pprof: pprofOn, Log: testLog}))
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHealthzOK(t *testing.T) {
	_, _, srv := newTestServer(t, telemetry.Config{Shards: 1, Block: true}, false)
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var h struct {
		Status  string `json:"status"`
		Durable bool   `json:"durable"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Durable {
		t.Fatalf("healthz = %+v, want ok and non-durable", h)
	}
}

func TestHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	ing, _, srv := newTestServer(t, telemetry.Config{
		Shards: 1,
		Block:  true,
		WAL:    telemetry.WALConfig{Dir: dir, SyncEvery: 1},
	}, false)
	// A directory where the event's segment file belongs: creating the
	// segment fails, and the shard degrades to memory-only.
	const ts = 1_633_046_400_000 // a window start at the default one-minute window
	if err := os.Mkdir(filepath.Join(dir, "shard-0", fmt.Sprintf("wal-%d.rec", ts)), 0o755); err != nil {
		t.Fatal(err)
	}
	e := telemetry.Envelope{V: telemetry.SchemaVersion, TS: ts,
		Metric: telemetry.MetricRTT, Region: "Beijing", Net: "WiFi", Value: 12}
	if !ing.Offer(e) {
		t.Fatal("offer refused")
	}
	ing.Flush()
	ing.SyncWAL()
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var h struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Reasons) == 0 {
		t.Fatalf("healthz = %+v, want degraded with reasons", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := newTestServer(t, telemetry.Config{Shards: 2, Block: true}, false)

	code, before, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content-type = %q, want %q", ct, obs.ExpositionContentType)
	}
	if err := obs.LintExposition(strings.NewReader(before)); err != nil {
		t.Fatalf("exposition malformed: %v", err)
	}
	if !strings.Contains(before, "telemetry_ingest_accepted_total") {
		t.Fatal("exposition missing the ingest family")
	}

	// Counters move after an ingest through the HTTP surface.
	line := `{"v":1,"ts":1633046400000,"metric":"rtt_ms","region":"Beijing","net":"WiFi","value":34.5}` + "\n"
	resp, err := testClient.Post(srv.URL+"/ingest", "application/jsonl", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 1 {
		t.Fatalf("ingest accepted = %d, want 1", ack.Accepted)
	}

	_, after, _ := get(t, srv.URL+"/metrics")
	if err := obs.LintExposition(strings.NewReader(after)); err != nil {
		t.Fatalf("post-ingest exposition malformed: %v", err)
	}
	sum := func(text, family string) float64 {
		var total float64
		for _, l := range strings.Split(text, "\n") {
			if !strings.HasPrefix(l, family) {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(l[strings.LastIndex(l, " ")+1:], "%g", &v); err == nil {
				total += v
			}
		}
		return total
	}
	b, a := sum(before, "telemetry_ingest_accepted_total"), sum(after, "telemetry_ingest_accepted_total")
	if a != b+1 {
		t.Fatalf("accepted counter %v -> %v, want +1", b, a)
	}
}

func TestPprofWiring(t *testing.T) {
	_, _, on := newTestServer(t, telemetry.Config{Shards: 1, Block: true}, true)
	code, body, _ := get(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index with -pprof: status=%d", code)
	}
	if code, _, _ := get(t, on.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline with -pprof: status=%d", code)
	}

	_, _, off := newTestServer(t, telemetry.Config{Shards: 1, Block: true}, false)
	if code, _, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status=%d, want 404", code)
	}
}

func TestLogFormatFlag(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if _, err := newLogger(format); err != nil {
			t.Errorf("newLogger(%q): %v", format, err)
		}
	}
	if _, err := newLogger("yaml"); err == nil {
		t.Error("newLogger accepted an unknown format")
	}
}
