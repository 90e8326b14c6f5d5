package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// TestIngestAckMatchesWriteJSON: the /ingest answer's append writer writes
// exactly what writeJSON writes for the same four counts.
func TestIngestAckMatchesWriteJSON(t *testing.T) {
	log := slog.New(slog.DiscardHandler)
	for _, c := range [][4]int{
		{0, 0, 0, 0},
		{1, 0, 1, 0},
		{500, 3, 497, 3},
		{12, 7, 0, 12},
		{math.MaxInt, math.MaxInt, math.MaxInt, 0},
		{-1, math.MinInt, 5, -6},
	} {
		rec := httptest.NewRecorder()
		writeJSON(log, rec, httptest.NewRequest(http.MethodPost, "/ingest", nil), map[string]int{"decoded": c[0], "malformed": c[1], "accepted": c[2], "dropped": c[3]})
		if got := appendIngestAck(nil, c[0], c[1], c[2], c[3]); !bytes.Equal(got, rec.Body.Bytes()) {
			t.Errorf("counts %v: append writer wrote\n%q\nwriteJSON\n%q", c, got, rec.Body.Bytes())
		}
	}
}

// TestNodeIngestAckOverFrozenPartition: a POST /ingest body spanning a
// frozen and a live partition enqueues exactly the live partition's
// envelopes, and the ack's accepted and dropped add up to what it decoded.
func TestNodeIngestAckOverFrozenPartition(t *testing.T) {
	const of = 4
	var body bytes.Buffer
	var frozen, live int
	for i := range 120 {
		e := telemetry.Envelope{V: telemetry.SchemaVersion, TS: 1633046400000 + int64(i), Kind: telemetry.KindPing,
			Metric: telemetry.MetricRTT, Region: "region-" + strconv.Itoa(i%8), Net: "WiFi", Value: float64(1 + i%9)}
		if i == 0 {
			frozen = e.Key().ShardOf(of)
		}
		if e.Key().ShardOf(of) != frozen {
			live++
		}
		line, err := telemetry.AppendJSONL(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
	}
	body.WriteString("not json\n")

	ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, Block: true})
	defer ing.Close()
	if err := ing.FreezePartition(frozen, of); err != nil {
		t.Fatal(err)
	}
	mux := NewNode(NodeConfig{Ing: ing, Log: slog.New(slog.DiscardHandler)})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", rec.Code, rec.Body)
	}
	var ack map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatalf("ack %q: %v", rec.Body, err)
	}
	if ack["decoded"] != 120 || ack["malformed"] != 1 || ack["accepted"] != live ||
		ack["accepted"]+ack["dropped"] != ack["decoded"] {
		t.Fatalf("ack %v: want 120 decoded, 1 malformed, %d accepted, the rest dropped", ack, live)
	}
	ing.Flush()
	if st := ing.TotalStats(); st.Accepted != uint64(live) || st.Dropped != 0 {
		t.Fatalf("node stats after the request: %+v", st)
	}
}

// TestNodeIngestLongBody: a body longer than one decoded chunk is offered a
// chunk at a time, and the ack still counts all of it.
func TestNodeIngestLongBody(t *testing.T) {
	const n = 2*ingestChunk + 17
	var body bytes.Buffer
	for i := range n {
		line, err := telemetry.AppendJSONL(nil, telemetry.Envelope{V: telemetry.SchemaVersion, TS: 1633046400000 + int64(i),
			Kind: telemetry.KindPing, Metric: telemetry.MetricRTT, Region: "region-" + strconv.Itoa(i%5), Net: "WiFi", Value: float64(1 + i%7)})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
	}
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, Block: true})
	defer ing.Close()
	mux := NewNode(NodeConfig{Ing: ing, Log: slog.New(slog.DiscardHandler)})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if want := appendIngestAck(nil, n, 0, n, 0); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("POST /ingest of %d envelopes: %d %q, want %q", n, rec.Code, rec.Body, want)
	}
	ing.Flush()
	if st := ing.TotalStats(); st.Processed != n {
		t.Fatalf("node folded %d of %d envelopes", st.Processed, n)
	}
}

// failingWriter is a ResponseWriter whose client has gone: every write
// fails.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestNodeFailureLogCarriesRequestID: a node logs a failed answer with the
// request id its caller sent, so one frontend request's legs can be found
// in every member's log.
func TestNodeFailureLogCarriesRequestID(t *testing.T) {
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 2, Block: true})
	defer ing.Close()
	var logged bytes.Buffer
	mux := NewNode(NodeConfig{Ing: ing, Log: slog.New(slog.NewJSONHandler(&logged, nil))})
	for _, target := range []string{"/ingest", "/healthz"} {
		logged.Reset()
		method := http.MethodGet
		if target == "/ingest" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, target, strings.NewReader(""))
		req.Header.Set(cluster.RequestIDHeader, "fe-42")
		mux.ServeHTTP(&failingWriter{header: http.Header{}}, req)
		if !strings.Contains(logged.String(), `"request_id":"fe-42"`) {
			t.Fatalf("%s: failure log %q lacks the request id", target, logged.String())
		}
	}
}
