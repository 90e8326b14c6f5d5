package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
)

// RetryConfig tunes a RetryClient. The zero value gets the documented
// defaults.
type RetryConfig struct {
	// Sleep replaces time.Sleep, letting tests (and the chaos harness,
	// whose faults are event-counted, not timed) run backoff at full speed
	// with the delay sequence still computed — and still drawn from the
	// jitter stream — exactly as in production.
	Sleep func(time.Duration)
	// Metrics is the registry the client's instrument families register on
	// (telemetry_client_*): sends, retries, failures, and the computed
	// backoff delay distribution. One client per registry; nil gets a
	// private registry nothing scrapes.
	Metrics *obs.Registry
}

func (c *RetryConfig) fill() {
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

const (
	// maxAttempts bounds a RetryClient's sends per event, first try included.
	maxAttempts = 8
	// baseDelay is the backoff before the first retry; each later retry
	// doubles it up to maxDelay.
	baseDelay = 5 * time.Millisecond
	maxDelay  = 500 * time.Millisecond
)

// ClientStats counts a RetryClient's work.
type ClientStats struct {
	Sent    uint64 `json:"sent"`    // events handed to Send
	Retries uint64 `json:"retries"` // extra attempts beyond the first
	Failed  uint64 `json:"failed"`  // events abandoned after maxAttempts
}

// clientMetrics are the client's accounting cells, registered series, so
// Stats() reads atomics — safe to call while SendAll runs in the producer
// goroutine.
type clientMetrics struct {
	sent    *obs.Counter
	retries *obs.Counter
	failed  *obs.Counter
	backoff *obs.Histogram
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		sent:    reg.Counter("telemetry_client_sent_total", "events handed to Send"),
		retries: reg.Counter("telemetry_client_retries_total", "extra send attempts beyond the first"),
		failed:  reg.Counter("telemetry_client_failed_total", "events abandoned after MaxAttempts"),
		backoff: reg.Histogram("telemetry_client_backoff_seconds", "computed jittered backoff delay before each retry", walLatencyBuckets),
	}
}

// RetryClient is the loss-surviving ingest producer: it numbers each
// envelope with a per-(key, user) sequence and resends refused envelopes
// under bounded exponential backoff with jitter. Sequencing makes retries
// idempotent — a resend whose original actually landed is folded once, by
// the shard's (key, user, seq) dedup — so the client can safely treat every
// false from the transport as "maybe lost" and hammer until acknowledged.
//
// Sequences are assigned contiguously per (key, user) stream. That
// contiguity is load-bearing for the server's memory: the shard tracker
// keeps only a floor plus out-of-order arrivals above it, so a client that
// skipped numbers would pin sparse entries forever.
//
// OWNERSHIP CONTRACT: each (key, user) stream must be owned by exactly one
// client incarnation at a time. The server's trackers live for the process
// and are durably recovered (snapshot+WAL), but this client's cursors are
// in-memory only — a restarted or second producer reusing a stream would
// restart at Seq=1 and have its first events silently folded zero times
// (counted as Deduped server-side, with no error anywhere). A producer that
// restarts against the same durable server must carry its cursors forward:
// persist SeqState on shutdown (or periodically) and RestoreSeqState before
// the first Send — or take over under fresh User ids.
//
// A RetryClient is not safe for concurrent use; run one per producer
// goroutine (each with its own rng fork), like any rng.Source consumer.
type RetryClient struct {
	send func(Envelope) bool
	cfg  RetryConfig
	src  *rng.Source
	next map[dedupKey]uint64
	m    clientMetrics
}

// NewRetryClient wraps a transport — any "offer one envelope, true if
// acknowledged" function: Ingestor.Offer directly, an HTTP POST to
// /ingest (HTTPSender), or a fault injector standing in front of either.
// src drives retry jitter; it is drawn from only when a retry actually
// happens, so a fault-free run consumes no randomness.
func NewRetryClient(send func(Envelope) bool, src *rng.Source, cfg RetryConfig) *RetryClient {
	cfg.fill()
	return &RetryClient{send: send, cfg: cfg, src: src, next: map[dedupKey]uint64{}, m: newClientMetrics(cfg.Metrics)}
}

// Send delivers one envelope, retrying refusals, and reports whether it was
// ever acknowledged. An envelope with Seq == 0 is assigned the next
// sequence of its (key, user) stream; a pre-sequenced envelope (an
// application-level resend) keeps its number.
func (c *RetryClient) Send(e Envelope) bool {
	if e.Seq == 0 {
		k := dedupKey{Key: e.Key(), User: e.User}
		c.next[k]++
		e.Seq = c.next[k]
	}
	c.m.sent.Inc()
	if c.send(e) {
		return true
	}
	d := baseDelay
	for attempt := 1; attempt < maxAttempts; attempt++ {
		// Jittered backoff: uniform in [d/2, d). Decorrelates producers
		// that fail together without ever collapsing the delay to zero.
		delay := d/2 + time.Duration(c.src.Float64()*float64(d/2))
		c.m.backoff.ObserveDuration(delay)
		c.cfg.Sleep(delay)
		c.m.retries.Inc()
		if c.send(e) {
			return true
		}
		if d *= 2; d > maxDelay {
			d = maxDelay
		}
	}
	c.m.failed.Inc()
	return false
}

// SeqRecord is one (key, user) stream's persisted sequence cursor. LastSeq
// is the highest sequence the client has assigned to that stream; the next
// event gets LastSeq+1.
type SeqRecord struct {
	Metric  string `json:"metric"`
	Region  string `json:"region"`
	Net     string `json:"net"`
	User    int    `json:"user"`
	LastSeq uint64 `json:"last_seq"`
}

// SeqState exports the client's per-stream sequence cursors in a stable
// (sorted) order, ready to persist (e.g. as JSON) across client restarts.
// Restoring them into the next incarnation (RestoreSeqState) is what keeps
// a restarted producer's events from colliding with the server's durable
// dedup trackers — see the ownership contract on RetryClient.
func (c *RetryClient) SeqState() []SeqRecord {
	out := make([]SeqRecord, 0, len(c.next))
	for k, last := range c.next {
		out = append(out, SeqRecord{Metric: k.Metric, Region: k.Region, Net: k.Net, User: k.User, LastSeq: last})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		return a.User < b.User
	})
	return out
}

// RestoreSeqState merges persisted cursors into the client, keeping the
// higher cursor where both sides know a stream. Call it before the first
// Send of a restarted producer; restoring afterwards could rewind a cursor
// the current incarnation already advanced past.
func (c *RetryClient) RestoreSeqState(recs []SeqRecord) {
	for _, r := range recs {
		k := dedupKey{Key: Key{Metric: r.Metric, Region: r.Region, Net: r.Net}, User: r.User}
		if r.LastSeq > c.next[k] {
			c.next[k] = r.LastSeq
		}
	}
}

// SendAll delivers a batch, returning how many were acknowledged.
func (c *RetryClient) SendAll(events []Envelope) int {
	n := 0
	for _, e := range events {
		if c.Send(e) {
			n++
		}
	}
	return n
}

// Stats snapshots the client's counters. Unlike the client itself, Stats is
// safe to call from another goroutine while a Send is in flight: the
// counters are atomics, so a monitor can poll mid-batch without a race.
func (c *RetryClient) Stats() ClientStats {
	return ClientStats{
		Sent:    c.m.sent.Value(),
		Retries: c.m.retries.Value(),
		Failed:  c.m.failed.Value(),
	}
}

// HTTPSender adapts telemetryd's POST /ingest endpoint to the RetryClient
// transport shape: one envelope per request, acknowledged only when the
// daemon reports it accepted — an HTTP error, a transport error, or a
// "decoded but dropped" response all return false and so get retried.
// client == nil uses http.DefaultClient.
func HTTPSender(client *http.Client, url string) func(Envelope) bool {
	if client == nil {
		client = http.DefaultClient
	}
	var buf []byte
	return func(e Envelope) bool {
		var err error
		if buf, err = AppendJSONL(buf[:0], e); err != nil {
			return false
		}
		resp, err := client.Post(url, "application/jsonl", bytes.NewReader(buf))
		if err != nil {
			return false
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var body struct {
			Accepted int `json:"accepted"`
		}
		if err := decodeJSONBody(resp.Body, &body); err != nil {
			return false
		}
		return body.Accepted == 1
	}
}

// decodeJSONBody reads and decodes one JSON response body.
func decodeJSONBody(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, 1<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("telemetry: bad ingest response: %w", err)
	}
	return nil
}
