package telemetry

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"edgescope/internal/rng"
)

// flakyServer is an /ingest endpoint with scriptable misbehaviour: it
// answers the first `failures` requests according to `mode`, then behaves.
type flakyServer struct {
	t        *testing.T
	mode     string // "5xx", "reset", "slow"
	failures int32  // remaining misbehaving requests
	requests int32  // total requests seen
	accepted int32  // envelopes actually acknowledged
	delay    time.Duration
	srv      *httptest.Server
}

func newFlakyServer(t *testing.T, mode string, failures int) *flakyServer {
	t.Helper()
	f := &flakyServer{t: t, mode: mode, failures: int32(failures), delay: 200 * time.Millisecond}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&f.requests, 1)
		if atomic.AddInt32(&f.failures, -1) >= 0 {
			switch f.mode {
			case "5xx":
				http.Error(w, "try later", http.StatusServiceUnavailable)
			case "reset":
				// Kill the TCP connection mid-request: the client sees a
				// transport error, not an HTTP status.
				hj, ok := w.(http.Hijacker)
				if !ok {
					f.t.Error("response writer cannot hijack")
					return
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					f.t.Errorf("hijack: %v", err)
					return
				}
				conn.Close()
			case "slow":
				// Outlast the client's timeout, then answer into the void.
				time.Sleep(f.delay)
				w.WriteHeader(http.StatusOK)
				w.Write([]byte(`{"accepted":1}`))
			}
			return
		}
		atomic.AddInt32(&f.accepted, 1)
		w.Write([]byte(`{"accepted":1}`))
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func flakyClient(f *flakyServer, httpClient *http.Client) *RetryClient {
	return NewRetryClient(HTTPSender(httpClient, f.srv.URL+"/ingest"), rng.New(11), RetryConfig{
		Sleep: func(time.Duration) {},
	})
}

// TestHTTPSenderSurvives5xxBurst: a burst of 503s is retried through and
// the envelope lands exactly once, with the stats counting every attempt.
func TestHTTPSenderSurvives5xxBurst(t *testing.T) {
	f := newFlakyServer(t, "5xx", 4)
	c := flakyClient(f, nil)
	if !c.Send(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 12)) {
		t.Fatal("send failed despite the burst ending")
	}
	if got := atomic.LoadInt32(&f.accepted); got != 1 {
		t.Fatalf("server accepted %d envelopes, want 1", got)
	}
	if got := atomic.LoadInt32(&f.requests); got != 5 {
		t.Fatalf("server saw %d requests, want 5 (4 refused + 1 accepted)", got)
	}
	st := c.Stats()
	if st.Sent != 1 || st.Retries != 4 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want sent=1 retries=4 failed=0", st)
	}
}

// TestHTTPSenderSurvivesConnectionResets: a transport that kills the TCP
// connection is indistinguishable from loss — retried, not fatal.
func TestHTTPSenderSurvivesConnectionResets(t *testing.T) {
	f := newFlakyServer(t, "reset", 3)
	c := flakyClient(f, nil)
	if !c.Send(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 12)) {
		t.Fatal("send failed despite resets ending")
	}
	st := c.Stats()
	if st.Retries != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want retries=3 failed=0", st)
	}
	if got := atomic.LoadInt32(&f.accepted); got != 1 {
		t.Fatalf("server accepted %d envelopes, want 1", got)
	}
}

// TestHTTPSenderSurvivesSlowResponses: answers slower than the client
// timeout count as failures and are retried; delivery converges once the
// server speeds up. The slow phase may or may not land server-side (the
// response died, not necessarily the request) — the sequence number makes
// the retry idempotent, so dedup-aware ingest never double-counts. Here we
// only pin the client-side contract: bounded retries, eventual ack.
func TestHTTPSenderSurvivesSlowResponses(t *testing.T) {
	f := newFlakyServer(t, "slow", 2)
	hc := &http.Client{Timeout: 30 * time.Millisecond}
	c := flakyClient(f, hc)
	if !c.Send(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 12)) {
		t.Fatal("send failed despite server recovering")
	}
	st := c.Stats()
	if st.Retries != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want retries=2 failed=0", st)
	}
}

// TestHTTPSenderBoundedRetries: a server that never recovers costs exactly
// maxAttempts requests, then a clean failure — no unbounded hammering.
func TestHTTPSenderBoundedRetries(t *testing.T) {
	f := newFlakyServer(t, "5xx", 1<<30)
	c := flakyClient(f, nil)
	if c.Send(ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 12)) {
		t.Fatal("send succeeded against an always-failing server")
	}
	if got := atomic.LoadInt32(&f.requests); got != 8 {
		t.Fatalf("server saw %d requests, want exactly maxAttempts=8", got)
	}
	st := c.Stats()
	if st.Sent != 1 || st.Retries != 7 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want sent=1 retries=7 failed=1", st)
	}
}

// TestHTTPSenderStatsAccurateAcrossBatch: ClientStats adds up exactly over
// a mixed batch — every envelope accounted as delivered or failed, with
// the server's view agreeing.
func TestHTTPSenderStatsAccurateAcrossBatch(t *testing.T) {
	f := newFlakyServer(t, "5xx", 19)
	c := flakyClient(f, nil)
	events := make([]Envelope, 6)
	for i := range events {
		events[i] = ev(time.Now().UnixMilli()+int64(i), MetricRTT, "Beijing", "WiFi", float64(10+i))
	}
	delivered := 0
	for _, e := range events {
		if c.Send(e) {
			delivered++
		}
	}
	st := c.Stats()
	if st.Sent != 6 {
		t.Fatalf("sent = %d, want 6", st.Sent)
	}
	// 19 failing requests at <=8 attempts each: envelopes 0,1 exhaust (8+8),
	// envelope 2 eats the last three 503s and lands on attempt 4, the rest
	// sail.
	if delivered != 4 || st.Failed != 2 {
		t.Fatalf("delivered=%d failed=%d, want 4/2", delivered, st.Failed)
	}
	if st.Retries != 17 { // 7+7 exhausted retries, 3 for envelope 2
		t.Fatalf("retries = %d, want 17", st.Retries)
	}
	if got := atomic.LoadInt32(&f.accepted); got != 4 {
		t.Fatalf("server accepted %d, client says %d", got, delivered)
	}
	if got := atomic.LoadInt32(&f.requests); got != 19+4 {
		t.Fatalf("server saw %d requests, want 23", got)
	}
}
