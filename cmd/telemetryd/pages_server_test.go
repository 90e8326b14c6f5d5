package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/serve"
)

// getAs is get with an Accept header.
func getAs(t *testing.T, url, accept string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// indented is the daemon's JSON surface as it has always been: encoding/json
// with two-space indent and a trailing newline.
func indented(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSketchesContentNegotiation: without the binary Accept header
// /sketches and /sketches/partition answer byte-for-byte the JSON they
// always did; with it, the binary page form under its content type with a
// declared length, decoding to the same pages.
func TestSketchesContentNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, Block: true, Metrics: reg})
	t.Cleanup(func() { ing.Close() })
	srv := testNet.listen(t, serve.NewNode(serve.NodeConfig{Ing: ing, Metrics: reg, ID: "n0", Log: testLog}))
	if got := postIngest(t, srv.URL, ingestLines(t)); got != 32 {
		t.Fatalf("accepted %d", got)
	}
	ing.Flush()

	page, err := ing.MatchSketches(telemetry.QuerySpec{Metric: "rtt_ms"})
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, srv.URL+"/sketches?metric=rtt_ms")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("plain /sketches: %d %q", code, hdr.Get("Content-Type"))
	}
	if want := indented(t, page); body != want {
		t.Fatalf("plain /sketches is no longer the indented JSON page:\n got %s\nwant %s", body, want)
	}
	code, raw, hdr := getAs(t, srv.URL+"/sketches?metric=rtt_ms", telemetry.SketchPageContentType)
	if code != http.StatusOK || hdr.Get("Content-Type") != telemetry.SketchPageContentType {
		t.Fatalf("binary /sketches: %d %q", code, hdr.Get("Content-Type"))
	}
	if hdr.Get("Content-Length") != strconv.Itoa(len(raw)) || len(raw) != page.BinarySize() {
		t.Fatalf("binary /sketches: Content-Length %q for %d bytes, page sizes to %d",
			hdr.Get("Content-Length"), len(raw), page.BinarySize())
	}
	if got, err := telemetry.DecodeSketchPage(raw); err != nil || !reflect.DeepEqual(got, page) {
		t.Fatalf("binary /sketches decodes to a different page (err %v)", err)
	}
	// Errors stay plain text whatever was asked for.
	if code, _, _ := getAs(t, srv.URL+"/sketches", telemetry.SketchPageContentType); code != http.StatusBadRequest {
		t.Fatalf("metric-less binary /sketches status = %d, want 400", code)
	}

	const part = "/sketches/partition?partition=0&of=1"
	pages, err := ing.PartitionPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, body, _ := get(t, srv.URL+part); body != indented(t, pages) {
		t.Fatalf("plain /sketches/partition is no longer the indented JSON page array:\n%s", body)
	}
	code, raw, hdr = getAs(t, srv.URL+part, telemetry.SketchPageContentType)
	if code != http.StatusOK || hdr.Get("Content-Type") != telemetry.SketchPageContentType ||
		hdr.Get("Content-Length") != strconv.Itoa(len(raw)) {
		t.Fatalf("binary /sketches/partition: %d %q length %q", code, hdr.Get("Content-Type"), hdr.Get("Content-Length"))
	}
	if got, err := telemetry.DecodeSketchPages(raw); err != nil || !reflect.DeepEqual(got, pages) {
		t.Fatalf("binary /sketches/partition decodes to different pages (err %v)", err)
	}
}

// pageTamper sits between the frontend and one node and damages that node's
// /sketches answers in a selectable way.
type pageTamper struct {
	mode atomic.Value // "", "flip", "json", "short", "v1", "bad-sketch"
	next http.Handler
}

func (p *pageTamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := p.mode.Load().(string)
	if mode == "" || r.URL.Path != "/sketches" {
		p.next.ServeHTTP(w, r)
		return
	}
	if mode == "json" { // a node that does not speak the binary form
		r.Header.Del("Accept")
		p.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch mode {
	case "flip": // one bit, mid-page: only the CRC can tell
		body[len(body)/2] ^= 0x04
	case "short": // a whole, well-declared body that ends early
		body = body[:len(body)-7]
	case "v1": // a node one release behind: well-formed, well-checksummed, no windows field
		page, err := telemetry.DecodeSketchPage(body)
		if err != nil {
			panic(err)
		}
		le := binary.LittleEndian
		str := func(b []byte, s string) []byte { return append(le.AppendUint32(b, uint32(len(s))), s...) }
		body = str([]byte("espage\x00\x01"), page.Metric)
		body = le.AppendUint64(body, math.Float64bits(page.Compression))
		body = le.AppendUint64(body, uint64(page.WindowMs))
		body = le.AppendUint32(body, uint32(len(page.Matches)))
		for _, m := range page.Matches {
			body = str(str(le.AppendUint64(body, uint64(m.Start)), m.Region), m.Net)
			body = str(body, string(m.Sketch))
		}
		body = le.AppendUint32(body, crc32.ChecksumIEEE(body))
	case "bad-sketch": // intact framing around a sketch that is not one
		page, err := telemetry.DecodeSketchPage(body)
		if err != nil {
			panic(err)
		}
		page.Matches[0].Sketch = bytes.Clone(page.Matches[0].Sketch)
		page.Matches[0].Sketch[0] ^= 0xff
		body, _ = page.AppendBinary(nil)
	}
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// TestFrontendBadPageIsMissingNode pins the blast radius of a bad page. A
// leg whose page fails its CRC, content type, framing or format version (a
// node still answering with v1 pages mid-upgrade) is a missing node:
// the query is answered 200 and partial, naming that node's partitions, and
// the node's error counter moves. A page that arrives intact but cannot be
// merged is the cluster's fault — 502 — and only a bad spec is the
// caller's — 400.
func TestFrontendBadPageIsMissingNode(t *testing.T) {
	tamper := &pageTamper{}
	c := newClusterServers(t, "", func(id string, h http.Handler) http.Handler {
		if id != "n1" {
			return h
		}
		tamper.next = h
		return tamper
	})
	reg := c.reg
	if got := postIngest(t, c.front.URL, ingestLines(t)); got != 32 {
		t.Fatalf("frontend accepted %d of 32", got)
	}
	for _, ing := range c.ings {
		ing.Flush()
	}
	const q = "/query?metric=rtt_ms&q=0.5,0.99&cdf=10,20"
	code, whole, _ := get(t, c.front.URL+q)
	if code != http.StatusOK || strings.Contains(whole, "partial") {
		t.Fatalf("clean query: %d %s", code, whole)
	}
	nodeErrors := func() float64 {
		s, _ := obs.Find(reg.Snapshot(), "cluster_frontend_node_errors_total", "node", "n1")
		return s.Value
	}

	for i, mode := range []string{"flip", "json", "short", "v1"} {
		tamper.mode.Store(mode)
		code, body, _ := get(t, c.front.URL+q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode, code, body)
		}
		var res struct {
			Partial           bool     `json:"partial"`
			MissingNodes      []string `json:"missing_nodes"`
			MissingPartitions []int    `json:"missing_partitions"`
			Count             float64  `json:"count"`
		}
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Partial || !reflect.DeepEqual(res.MissingNodes, []string{"n1"}) ||
			!reflect.DeepEqual(res.MissingPartitions, c.pm.OwnedBy("n1")) {
			t.Fatalf("%s: answer = %s, want partial naming n1 and partitions %v", mode, body, c.pm.OwnedBy("n1"))
		}
		if res.Count <= 0 || res.Count >= 32 {
			t.Fatalf("%s: partial answer counts %v events, want the other nodes' share of 32", mode, res.Count)
		}
		if got := nodeErrors(); got != float64(i+1) {
			t.Fatalf("%s: cluster_frontend_node_errors_total{n1} = %v, want %d", mode, got, i+1)
		}
	}

	tamper.mode.Store("bad-sketch")
	if code, body, _ := get(t, c.front.URL+q); code != http.StatusBadGateway || !strings.Contains(body, "sketch") {
		t.Fatalf("unmergeable page: %d %s, want 502 naming the sketch", code, body)
	}
	if code, _, _ := get(t, c.front.URL+"/query?metric=rtt_ms&q=2"); code != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", code)
	}
	if code, _, _ := get(t, c.front.URL+"/query?q=0.5"); code != http.StatusBadRequest {
		t.Fatalf("metric-less spec status = %d, want 400", code)
	}

	tamper.mode.Store("")
	if code, body, _ := get(t, c.front.URL+q); code != http.StatusOK || body != whole {
		t.Fatalf("healed query: %d %s, want the clean answer back", code, body)
	}

	// The new families are on the frontend's /metrics, per node, and lint.
	_, exposition, _ := get(t, c.front.URL+"/metrics")
	if err := obs.LintExposition(strings.NewReader(exposition)); err != nil {
		t.Fatalf("frontend /metrics: %v", err)
	}
	snap := reg.Snapshot()
	for _, n := range c.pm.Nodes() {
		if s, ok := obs.Find(snap, "cluster_frontend_page_bytes_total", "node", n); !ok || s.Value <= 0 {
			t.Errorf("cluster_frontend_page_bytes_total{%s} = %v (found %v)", n, s.Value, ok)
		}
		if !strings.Contains(exposition, `cluster_frontend_leg_seconds_count{node="`+n+`"}`) {
			t.Errorf("cluster_frontend_leg_seconds{%s} not on /metrics", n)
		}
	}
	// Every query that reached the merge was timed, the unmergeable one too.
	if s, ok := obs.Find(snap, "cluster_frontend_merge_seconds_count"); !ok || s.Value < 3 {
		t.Errorf("cluster_frontend_merge_seconds_count = %v (found %v), want >= 3", s.Value, ok)
	}
}
