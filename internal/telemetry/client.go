package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
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
	Sent    uint64 `json:"sent"`    // envelopes handed to Send or counted by Handed
	Retries uint64 `json:"retries"` // extra attempts beyond the first
	Failed  uint64 `json:"failed"`  // envelopes abandoned after maxAttempts
}

// clientMetrics are the client's accounting cells, registered series, so
// Stats() reads atomics — safe to call while Send runs in the producer
// goroutine.
type clientMetrics struct {
	sent    *obs.Counter
	retries *obs.Counter
	failed  *obs.Counter
	backoff *obs.Histogram
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		sent:    reg.Counter("telemetry_client_sent_total", "envelopes handed to the client, each sent under its producer's Seq: a resend folds once only when that is non-zero"),
		retries: reg.Counter("telemetry_client_retries_total", "extra send attempts beyond the first"),
		failed:  reg.Counter("telemetry_client_failed_total", "events abandoned after MaxAttempts"),
		backoff: reg.Histogram("telemetry_client_backoff_seconds", "computed jittered backoff delay before each retry", walLatencyBuckets),
	}
}

// RetryClient is the loss-surviving ingest sender: it resends refused
// envelopes under bounded exponential backoff with jitter, each exactly as
// its producer numbered it. A resend is idempotent only for a sequenced
// envelope — one whose original actually landed is folded once, by the
// shard's (key, user, seq) dedup — so the client can treat every false
// from the transport as "maybe lost" and hammer until acknowledged. An
// unsequenced envelope (Seq == 0) is at-least-once across a resend.
//
// Producers number their own streams, contiguously per (key, user): the
// shard tracker keeps only a floor plus out-of-order arrivals above it, so
// a producer that skipped numbers would pin sparse entries forever. Each
// stream must be owned by one producer incarnation at a time; a restarted
// producer carries its own cursor forward or takes over under fresh User
// ids, or its first events fold zero times as duplicates.
//
// A RetryClient is safe for concurrent use: its counters are atomics and
// each jitter draw is taken from src under a lock, so a caller that sends
// from one goroutine still draws a delay sequence fixed by the seed.
type RetryClient struct {
	send func(Envelope) bool
	cfg  RetryConfig
	m    clientMetrics

	mu  sync.Mutex // guards src
	src *rng.Source
}

// NewRetryClient wraps a transport — any "offer one envelope, true if
// acknowledged" function: Ingestor.Offer directly, an HTTP POST to
// /ingest (HTTPSender), or a fault injector standing in front of either.
// src drives retry jitter; it is drawn from only when a retry actually
// happens, so a fault-free run consumes no randomness.
func NewRetryClient(send func(Envelope) bool, src *rng.Source, cfg RetryConfig) *RetryClient {
	cfg.fill()
	return &RetryClient{send: send, cfg: cfg, src: src, m: newClientMetrics(cfg.Metrics)}
}

// Send delivers one envelope through the client's transport, retrying
// refusals, and reports whether it was ever acknowledged.
func (c *RetryClient) Send(e Envelope) bool {
	c.m.sent.Inc()
	return c.Deliver(func() bool { return c.send(e) })
}

// Handed counts n envelopes as handed to the client without sending them:
// for a caller that makes the first delivery attempt itself — one request
// for many envelopes — and hands each envelope that attempt did not settle
// to Deliver.
func (c *RetryClient) Handed(n int) { c.m.sent.Add(uint64(n)) }

// Deliver is Send's retry half: it makes attempt — one delivery of one
// envelope — until it reports an ack, under bounded jittered backoff, and
// reports whether it ever did.
func (c *RetryClient) Deliver(attempt func() bool) bool {
	if attempt() {
		return true
	}
	d := baseDelay
	for try := 1; try < maxAttempts; try++ {
		// Jittered backoff: uniform in [d/2, d). Decorrelates producers
		// that fail together without ever collapsing the delay to zero.
		c.mu.Lock()
		u := c.src.Float64()
		c.mu.Unlock()
		delay := d/2 + time.Duration(u*float64(d/2))
		c.m.backoff.ObserveDuration(delay)
		c.cfg.Sleep(delay)
		c.m.retries.Inc()
		if attempt() {
			return true
		}
		if d *= 2; d > maxDelay {
			d = maxDelay
		}
	}
	c.m.failed.Inc()
	return false
}

// Stats snapshots the client's counters.
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
