package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestRetryClientForwardsProducerSeq: the client numbers nothing — every
// envelope, a retried one included, goes out under the Seq its producer
// gave it, and an unsequenced one stays unsequenced.
func TestRetryClientForwardsProducerSeq(t *testing.T) {
	var got []Envelope
	refuse := false
	c := NewRetryClient(func(e Envelope) bool {
		got = append(got, e)
		refuse = !refuse
		return !refuse
	}, rng.New(1), RetryConfig{Sleep: func(time.Duration) {}})
	ts := time.Now().UnixMilli()
	for _, seq := range []uint64{0, 99, 0, 3} {
		e := ev(ts, MetricRTT, "Beijing", "WiFi", 1)
		e.Seq = seq
		got = got[:0]
		if !c.Send(e) {
			t.Fatalf("seq %d: send failed", seq)
		}
		if len(got) != 2 {
			t.Fatalf("seq %d: %d attempts, want a refusal then an ack", seq, len(got))
		}
		for _, sent := range got {
			if sent.Seq != seq {
				t.Fatalf("producer seq %d went out as %d", seq, sent.Seq)
			}
		}
	}
}

// sequenced returns a copy of events numbered as a producer numbers its
// streams: contiguously per (key, user), from 1.
func sequenced(events []Envelope) []Envelope {
	next := map[dedupKey]uint64{}
	out := slices.Clone(events)
	for i := range out {
		k := dedupKey{Key: out[i].Key(), User: out[i].User}
		next[k]++
		out[i].Seq = next[k]
	}
	return out
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
