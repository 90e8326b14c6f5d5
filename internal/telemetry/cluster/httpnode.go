package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
)

// HTTPNode speaks to one cluster node over its telemetryd HTTP surface:
// POST /ingest for the router, GET /sketches and /keys for the front-end,
// GET /healthz for the prober. It implements NodeClient and supplies the
// Router's per-node Transport leg.
//
// Every leg that moves sketch pages — /sketches, /sketches/partition,
// /admin/absorb — speaks the binary, CRC-trailed page form
// (telemetry.SketchPageContentType), and /keys the binary, CRC-trailed key
// inventory (telemetry.KeyInventoryContentType), and nothing else: a node
// that answers in any other content type, or with a body that fails its
// checksum, framing or key order, is a failed leg. Health and the small
// admin acks are JSON.
type HTTPNode struct {
	base   string
	client *http.Client
	ingest func(telemetry.Envelope) bool
	// pageBytes, when metered, counts the /sketches body bytes received.
	pageBytes atomic.Pointer[obs.Counter]
}

// NewHTTPNode builds a client for one node's base URL (no trailing slash
// needed). client == nil uses http.DefaultClient.
func NewHTTPNode(base string, client *http.Client) *HTTPNode {
	if client == nil {
		client = http.DefaultClient
	}
	base = strings.TrimRight(base, "/")
	return &HTTPNode{
		base:   base,
		client: client,
		ingest: telemetry.HTTPSender(client, base+"/ingest"),
	}
}

// Ingest delivers one envelope to the node, true when acknowledged —
// telemetry.HTTPSender semantics.
func (n *HTTPNode) Ingest(e telemetry.Envelope) bool { return n.ingest(e) }

// MeterPageBytes makes Sketches add every page body's size to c — the
// front-end hands each node's cluster_frontend_page_bytes_total series in
// when it wires the client.
func (n *HTTPNode) MeterPageBytes(c *obs.Counter) { n.pageBytes.Store(c) }

// Sketches fetches the node's matching rollups, folded per key: GET
// /sketches with the same query parameters /query takes, answered as one
// binary page. A page in any other format version fails to decode and so
// fails the leg. The returned page aliases the response body.
func (n *HTTPNode) Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	return n.sketchesInto(ctx, spec, nil)
}

// sketchesInto is Sketches reading the body into *buf (a wire buffer, see
// telemetry.TakeWireBuffer), which the returned page aliases until the
// caller releases it; nil reads into a fresh one.
func (n *HTTPNode) sketchesInto(ctx context.Context, spec telemetry.QuerySpec, buf *[]byte) (telemetry.SketchPage, error) {
	path := "/sketches?" + specParams(spec)
	body, err := n.binaryBody(ctx, path, telemetry.SketchPageContentType, buf)
	if err != nil {
		return telemetry.SketchPage{}, err
	}
	n.pageBytes.Load().Add(uint64(len(body))) // nil, and a no-op, until a Frontend wires the node
	page, err := telemetry.DecodeSketchPage(body)
	if err != nil {
		return telemetry.SketchPage{}, fmt.Errorf("cluster: %s%s: %w", n.base, path, err)
	}
	return page, nil
}

// Keys fetches the node's key inventory: GET /keys, answered as one binary
// inventory — sorted and unique, or the leg fails. The body is read into a
// pooled wire buffer, released on return: the decoded keys copy every
// string out of it.
func (n *HTTPNode) Keys(ctx context.Context) ([]telemetry.KeyCount, error) {
	buf := telemetry.TakeWireBuffer()
	defer telemetry.ReleaseWireBuffer(buf)
	body, err := n.binaryBody(ctx, "/keys", telemetry.KeyInventoryContentType, buf)
	if err != nil {
		return nil, err
	}
	keys, err := telemetry.DecodeKeyInventory(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s/keys: %w", n.base, err)
	}
	return keys, nil
}

// Probe checks the node's /healthz: reachable on any well-formed answer,
// degraded when the node says so itself.
func (n *HTTPNode) Probe() ProbeResult {
	resp, err := n.client.Get(n.base + "/healthz")
	if err != nil {
		return ProbeResult{}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return ProbeResult{}
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ProbeResult{}
	}
	return ProbeResult{Reachable: true, Degraded: body.Status != "ok"}
}

// --- Admin plane (NodeAdmin over HTTP: a node's /admin/* legs) ---

// Flush settles the node's queues into rollups: POST /admin/flush.
func (n *HTTPNode) Flush(ctx context.Context) error {
	return n.postJSON(ctx, "/admin/flush", nil, nil)
}

// FreezePartition starts a partition's exact-cut ingest freeze:
// POST /admin/freeze?partition=&of=.
func (n *HTTPNode) FreezePartition(ctx context.Context, p, of int) error {
	return n.postJSON(ctx, "/admin/freeze?"+partParams(p, of), nil, nil)
}

// UnfreezePartition lifts a freeze: POST /admin/unfreeze?partition=&of=.
func (n *HTTPNode) UnfreezePartition(ctx context.Context, p, of int) error {
	return n.postJSON(ctx, "/admin/unfreeze?"+partParams(p, of), nil, nil)
}

// PartitionPages fetches one partition's durable state as a binary page
// set: GET /sketches/partition?partition=&of=. The pages alias the body.
func (n *HTTPNode) PartitionPages(ctx context.Context, p, of int) ([]telemetry.SketchPage, error) {
	path := "/sketches/partition?" + partParams(p, of)
	body, err := n.binaryBody(ctx, path, telemetry.SketchPageContentType, nil)
	if err != nil {
		return nil, err
	}
	pages, err := telemetry.DecodeSketchPages(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s%s: %w", n.base, path, err)
	}
	return pages, nil
}

// AbsorbPages ships pages into the node's rollups as a binary page set:
// POST /admin/absorb. The ack is JSON.
func (n *HTTPNode) AbsorbPages(ctx context.Context, pages []telemetry.SketchPage) (telemetry.AbsorbAck, error) {
	var ack telemetry.AbsorbAck
	err := n.do(ctx, http.MethodPost, "/admin/absorb",
		telemetry.SketchPageContentType, telemetry.AppendSketchPages(nil, pages), "", jsonInto(&ack))
	return ack, err
}

// DropPartition removes the node's copy of one partition:
// POST /admin/drop?partition=&of=.
func (n *HTTPNode) DropPartition(ctx context.Context, p, of int) (int, error) {
	var out struct {
		Dropped int `json:"dropped"`
	}
	err := n.postJSON(ctx, "/admin/drop?"+partParams(p, of), nil, &out)
	return out.Dropped, err
}

// PushAssignment installs an activated epoch's table:
// POST /admin/assignment.
func (n *HTTPNode) PushAssignment(ctx context.Context, a Assignment) error {
	return n.postJSON(ctx, "/admin/assignment", a, nil)
}

// partParams encodes the partition selector shared by the admin legs.
func partParams(p, of int) string {
	q := url.Values{}
	q.Set("partition", strconv.Itoa(p))
	q.Set("of", strconv.Itoa(of))
	return q.Encode()
}

// do runs one leg: body (when non-nil) is sent as contentType, accept (when
// set) names the only answer form the caller takes, and non-2xx is an error
// carrying the node's plain-text reason. consume reads the answer; do owns
// draining and closing it.
func (n *HTTPNode) do(ctx context.Context, method, path, contentType string, body []byte, accept string, consume func(*http.Response) error) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s%s: %s: %s", n.base, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if consume == nil {
		return nil
	}
	return consume(resp)
}

// postJSON runs one POST leg: body (when non-nil) is JSON-encoded, the
// answer (when out is non-nil) JSON-decoded.
func (n *HTTPNode) postJSON(ctx context.Context, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var consume func(*http.Response) error
	if out != nil {
		consume = jsonInto(out)
	}
	return n.do(ctx, http.MethodPost, path, "application/json", raw, "", consume)
}

// jsonInto is the consume step of a leg answered in JSON.
func jsonInto(v any) func(*http.Response) error {
	return func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(v) }
}

// maxPagePrealloc caps how much of a declared Content-Length binaryBody
// reserves up front; a longer body still arrives whole, the buffer just
// grows as its bytes actually do.
const maxPagePrealloc = 64 << 20

// binaryBody runs one GET for a binary form (a sketch page, page set or key
// inventory) and returns the whole answer body, which must be declared as
// contentType — there is no JSON fallback, so a node too old (or too
// broken) to speak it fails the leg. The body is read into *buf, which keeps
// it (grown, if it had to), or into a fresh slice when buf is nil.
func (n *HTTPNode) binaryBody(ctx context.Context, path, contentType string, buf *[]byte) ([]byte, error) {
	var body []byte
	if buf != nil {
		body = (*buf)[:0]
	}
	err := n.do(ctx, http.MethodGet, path, "", nil, contentType,
		func(resp *http.Response) error {
			if ct := resp.Header.Get("Content-Type"); ct != contentType {
				return fmt.Errorf("cluster: %s%s: content type %q, want %q", n.base, path, ct, contentType)
			}
			b := bytes.NewBuffer(body)
			if size := resp.ContentLength; size > 0 {
				// +MinRead: ReadFrom wants that much spare before each read,
				// and would otherwise double the buffer to find it at EOF.
				b.Grow(int(min(size, maxPagePrealloc)) + bytes.MinRead)
			}
			if _, err := b.ReadFrom(resp.Body); err != nil {
				return fmt.Errorf("cluster: %s%s: read body: %w", n.base, path, err)
			}
			body = b.Bytes()
			return nil
		})
	if buf != nil {
		*buf = body
	}
	return body, err
}

// specParams encodes a QuerySpec as /query-style URL parameters — the
// inverse of telemetryd's spec parsing, shared by /sketches.
func specParams(spec telemetry.QuerySpec) string {
	q := url.Values{}
	q.Set("metric", spec.Metric)
	if spec.Region != "" {
		q.Set("region", spec.Region)
	}
	if spec.Net != "" {
		q.Set("net", spec.Net)
	}
	if !spec.From.IsZero() {
		q.Set("from", spec.From.UTC().Format(time.RFC3339Nano))
	}
	if !spec.To.IsZero() {
		q.Set("to", spec.To.UTC().Format(time.RFC3339Nano))
	}
	if len(spec.Quantiles) > 0 {
		q.Set("q", joinFloats(spec.Quantiles))
	}
	if len(spec.CDFAt) > 0 {
		q.Set("cdf", joinFloats(spec.CDFAt))
	}
	return q.Encode()
}

func joinFloats(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
