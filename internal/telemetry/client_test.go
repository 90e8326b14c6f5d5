package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edgescope/internal/rng"
)

// noSleep collects the computed backoff delays without waiting them out.
func noSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

func TestRetryClientRetriesUntilAck(t *testing.T) {
	fails := 3
	var delivered []Envelope
	transport := func(e Envelope) bool {
		if fails > 0 {
			fails--
			return false
		}
		delivered = append(delivered, e)
		return true
	}
	var delays []time.Duration
	c := NewRetryClient(transport, rng.New(1), RetryConfig{Sleep: noSleep(&delays)})
	e := ev(time.Now().UnixMilli(), MetricRTT, "Beijing", "WiFi", 1)
	if !c.Send(e) {
		t.Fatal("Send failed despite transport recovering")
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(delivered))
	}
	st := c.Stats()
	if st.Sent != 1 || st.Retries != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(delays) != 3 {
		t.Fatalf("slept %d times, want 3", len(delays))
	}
	// Backoff grows and jitter keeps every delay in [base/2, base).
	base := 5 * time.Millisecond
	for i, d := range delays {
		if d < base/2 || d >= base {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d, base/2, base)
		}
		if base *= 2; base > 500*time.Millisecond {
			base = 500 * time.Millisecond
		}
	}
}

func TestRetryClientGivesUp(t *testing.T) {
	attempts := 0
	var delays []time.Duration
	c := NewRetryClient(func(Envelope) bool { attempts++; return false },
		rng.New(1), RetryConfig{Sleep: noSleep(&delays)})
	if c.Send(ev(time.Now().UnixMilli(), MetricRTT, "x", "y", 1)) {
		t.Fatal("Send succeeded on an always-failing transport")
	}
	if attempts != maxAttempts || maxAttempts != 8 {
		t.Fatalf("attempts = %d (maxAttempts %d), want 8", attempts, maxAttempts)
	}
	if st := c.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRetryClientSequencesPerStream: sequences are contiguous per
// (key, user) — the contract that keeps the server-side trackers compact.
func TestRetryClientSequencesPerStream(t *testing.T) {
	var got []Envelope
	c := NewRetryClient(func(e Envelope) bool { got = append(got, e); return true },
		rng.New(1), RetryConfig{})
	ts := time.Now().UnixMilli()
	for i := 0; i < 3; i++ {
		for user := 0; user < 2; user++ {
			e := ev(ts, MetricRTT, "Beijing", "WiFi", 1)
			e.User = user
			c.Send(e)
		}
	}
	next := map[int]uint64{}
	for _, e := range got {
		if want := next[e.User] + 1; e.Seq != want {
			t.Fatalf("user %d got seq %d, want %d", e.User, e.Seq, want)
		}
		next[e.User] = e.Seq
	}
	// A pre-sequenced envelope keeps its number.
	e := ev(ts, MetricRTT, "Beijing", "WiFi", 1)
	e.Seq = 99
	c.Send(e)
	if last := got[len(got)-1]; last.Seq != 99 {
		t.Fatalf("pre-sequenced envelope renumbered to %d", last.Seq)
	}
}

// TestRetryClientSeqStatePersistsAcrossRestart pins the ownership contract:
// a restarted producer that restores its sequence cursors continues its
// streams seamlessly, while one that skips the restore restarts at Seq=1
// and loses its first sends to the server's durable dedup state — the
// documented hazard SeqState exists to prevent.
func TestRetryClientSeqStatePersistsAcrossRestart(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, QueueLen: 64, Block: true})
	defer ing.Close()
	ts := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	mk := func(i int) Envelope {
		e := ev(ts+int64(i), MetricRTT, "Beijing", "WiFi", float64(i))
		e.User = 3
		return e
	}

	c1 := NewRetryClient(ing.Offer, rng.New(1), RetryConfig{})
	for i := 0; i < 5; i++ {
		if !c1.Send(mk(i)) {
			t.Fatal("send failed")
		}
	}
	saved := c1.SeqState() // what a producer persists at shutdown
	if len(saved) != 1 || saved[0].LastSeq != 5 || saved[0].User != 3 {
		t.Fatalf("SeqState = %+v, want one stream cursor at 5", saved)
	}

	c2 := NewRetryClient(ing.Offer, rng.New(2), RetryConfig{})
	c2.RestoreSeqState(saved)
	for i := 5; i < 10; i++ {
		if !c2.Send(mk(i)) {
			t.Fatal("send failed")
		}
	}
	ing.Flush()
	if tot := ing.TotalStats(); tot.Deduped != 0 {
		t.Fatalf("restored client had %d events deduped away", tot.Deduped)
	}
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil || res.Count != 10 {
		t.Fatalf("count = %v err = %v, want 10 (both incarnations folded)", res.Count, err)
	}

	// The hazard itself: a third incarnation without the restore collides
	// with the durable trackers and its sends fold zero times.
	c3 := NewRetryClient(ing.Offer, rng.New(3), RetryConfig{})
	for i := 10; i < 15; i++ {
		c3.Send(mk(i))
	}
	ing.Flush()
	if tot := ing.TotalStats(); tot.Deduped != 5 {
		t.Fatalf("unrestored client deduped %d, want 5 (the ownership hazard)", tot.Deduped)
	}
}

// TestHTTPSenderEndToEnd drives a RetryClient through a real HTTP hop into
// an Ingestor — the telemetryd /ingest shape — with the first request of
// each pair refused at the HTTP layer to force retries.
func TestHTTPSenderEndToEnd(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, QueueLen: 64, Block: true})
	defer ing.Close()
	flaky := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flaky++; flaky%2 == 1 {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		accepted := 0
		if _, err := ReadJSONL(r.Body, func(e Envelope) {
			if ing.Offer(e) {
				accepted++
			}
		}); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d}`, accepted)
	}))
	defer srv.Close()

	c := NewRetryClient(HTTPSender(srv.Client(), srv.URL), rng.New(7),
		RetryConfig{Sleep: func(time.Duration) {}})
	const n = 20
	ts := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := 0; i < n; i++ {
		if !c.Send(ev(ts+int64(i), MetricRTT, "Beijing", "WiFi", float64(i))) {
			t.Fatalf("send %d failed", i)
		}
	}
	ing.Flush()
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n {
		t.Fatalf("count = %v, want %d (every send exactly once)", res.Count, n)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatalf("flaky server produced no retries: %+v", st)
	}
}

// TestReadJSONLAbortsOnMalformedRun: a run of malformed lines never aborts
// the pass — each is counted and skipped, and the good lines around it
// decode.
func TestReadJSONLAbortsOnMalformedRun(t *testing.T) {
	good := `{"v":1,"ts":1,"kind":"ping","metric":"rtt_ms","user":0,"region":"a","net":"b","value":1}`
	input := good + "\nnot json\nstill not json\nnope\n" + good + "\n"

	// Every bad line skipped, both good lines decoded.
	st, err := ReadJSONL(strings.NewReader(input), func(Envelope) {})
	if err != nil || st.Decoded != 2 || st.Malformed != 3 {
		t.Fatalf("stats=%+v err=%v", st, err)
	}
}

// TestReadJSONLTornFinalLine: a truncated final line — the torn-write
// footprint — is one malformed line, not an abort or a silent success.
func TestReadJSONLTornFinalLine(t *testing.T) {
	good := `{"v":1,"ts":1,"kind":"ping","metric":"rtt_ms","user":0,"region":"a","net":"b","value":1}`
	torn := good + "\n" + good[:40] // cut mid-record, no newline
	st, err := ReadJSONL(strings.NewReader(torn), func(Envelope) {})
	if err != nil {
		t.Fatalf("torn tail errored the pass: %v", err)
	}
	if st.Decoded != 1 || st.Malformed != 1 {
		t.Fatalf("stats = %+v, want 1 decoded + 1 malformed", st)
	}
}
