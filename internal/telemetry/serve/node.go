// Package serve is edgescope's telemetry serving plane: the HTTP handlers
// of every telemetryd role, built one constructor per role. NewNode serves
// one Ingestor (the single and node roles); NewFrontend boots the routing
// and scatter-gather tier with its membership plane. cmd/telemetryd only
// parses flags and runs the handler a constructor returns; tests, the
// benchmarks and anything else that needs the daemon's exact behaviour call
// the same constructors.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// NodeConfig is what a node's HTTP surface serves.
type NodeConfig struct {
	Ing *telemetry.Ingestor
	// Metrics is served as Prometheus text on GET /metrics.
	Metrics *obs.Registry
	// ID, when non-empty, marks a cluster node and mounts the rebalance
	// admin plane (/admin/*, /sketches/partition) the frontend's migrator
	// drives during join/leave/drain handoffs. Empty is the single role.
	ID string
	// Pprof mounts net/http/pprof under /debug/pprof/ — opt-in because the
	// profile endpoints can pause the process (heap dumps, CPU profiles) and
	// a telemetry daemon's default surface should be read-only-cheap.
	Pprof bool
	Log   *slog.Logger
}

// NewNode wires every endpoint of a single or node daemon onto a fresh mux.
// Its /healthz uptime counts from this call.
func NewNode(cfg NodeConfig) *http.ServeMux {
	start := time.Now()
	ing, log := cfg.Ing, cfg.Log
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", handleIngest(log, ing.OfferAll))
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := ing.Query(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(log, w, res)
	})
	// /keys is the inventory: binary for a frontend's scatter leg (which
	// asks for it), JSON for anyone else.
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		keys := ing.Keys()
		if wantsBinary(r, telemetry.KeyInventoryContentType) {
			writeBinary(log, w, telemetry.KeyInventoryContentType, func(b []byte) []byte {
				return telemetry.AppendKeyInventory(b, keys)
			})
			return
		}
		writeKeysJSON(log, w, keys)
	})
	// /sketches is the scatter half of a cluster query: each matching key's
	// rollups folded here, where the data is, into one sealed sketch — one
	// match per key, not one per key × window — in exact binary form, for a
	// front-end to merge (cluster.Frontend). Served in every role — a
	// single-node daemon is just a one-member cluster to whoever wants to
	// aggregate it. A caller that asks for the binary page (cluster.HTTPNode
	// does) gets it; anyone else (curl) gets JSON.
	mux.HandleFunc("GET /sketches", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		page, err := ing.MatchSketches(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if wantsBinary(r, telemetry.SketchPageContentType) {
			writeBinary(log, w, telemetry.SketchPageContentType, func(b []byte) []byte {
				b, _ = page.AppendBinary(slices.Grow(b, page.BinarySize())) // encoding a page cannot fail
				return b
			})
			return
		}
		writeJSON(log, w, page)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := ing.Health()
		body := map[string]any{
			"status":         h.Status,
			"reasons":        h.Reasons,
			"durable":        h.Durable,
			"uptime_seconds": int(time.Since(start).Seconds()),
			"shards":         h.Shards,
			"total":          h.Total,
			"recovery":       h.Recovery,
		}
		if h.Node != nil {
			// Self-describing membership: role plus the partitions this
			// node owns, so an operator can curl any member and see its
			// place in the layout.
			body["node"] = h.Node
		}
		writeJSON(log, w, body)
	})
	if cfg.ID != "" {
		mountNodeAdmin(mux, cfg)
	}
	mux.HandleFunc("GET /metrics", handleMetrics(log, cfg.Metrics))
	if cfg.Pprof {
		mountPprof(mux)
	}
	return mux
}

// mountPprof mounts net/http/pprof under /debug/pprof/ — what -pprof turns
// on in every role.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// mountNodeAdmin wires a cluster node's rebalance control plane — the HTTP
// realization of cluster.NodeAdmin that the frontend's migrator drives
// (through cluster.HTTPNode). Every leg maps one-to-one onto an Ingestor
// handoff primitive; errors come back as plain-text non-2xx bodies, which
// HTTPNode surfaces verbatim to the coordinator.
func mountNodeAdmin(mux *http.ServeMux, cfg NodeConfig) {
	ing, log := cfg.Ing, cfg.Log
	mux.HandleFunc("POST /admin/flush", func(w http.ResponseWriter, r *http.Request) {
		ing.Flush()
		writeJSON(log, w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /admin/freeze", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := ing.FreezePartition(p, of); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(log, w, map[string]string{"status": "frozen"})
	})
	mux.HandleFunc("POST /admin/unfreeze", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ing.UnfreezePartition(p, of)
		writeJSON(log, w, map[string]string{"status": "ok"})
	})
	// The handoff's cut: this node's durable state for one partition as
	// pages of raw (window, key) rollups, each sketch in its exact live
	// state — what /admin/absorb places on the gaining node. Same page
	// format as /sketches, the other kind of match (windows = 0).
	mux.HandleFunc("GET /sketches/partition", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pages, err := ing.PartitionPages(p, of)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if wantsBinary(r, telemetry.SketchPageContentType) {
			writeBinary(log, w, telemetry.SketchPageContentType, func(b []byte) []byte {
				return telemetry.AppendSketchPages(b, pages)
			})
			return
		}
		writeJSON(log, w, pages)
	})
	// The rebuild's input arrives in the one machine form pages have: a
	// binary, CRC-trailed page set, verified before anything is parsed.
	mux.HandleFunc("POST /admin/absorb", func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != telemetry.SketchPageContentType {
			http.Error(w, fmt.Sprintf("content type %q: pages are absorbed as %s only", ct, telemetry.SketchPageContentType),
				http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pages, err := telemetry.DecodeSketchPages(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := ing.AbsorbPages(pages)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(log, w, ack)
	})
	mux.HandleFunc("POST /admin/drop", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dropped, err := ing.DropPartition(p, of)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(log, w, map[string]int{"dropped": dropped})
	})
	// An activated epoch's table, pushed by the migrator so this node's
	// /healthz self-description tracks the placement it actually serves.
	mux.HandleFunc("POST /admin/assignment", func(w http.ResponseWriter, r *http.Request) {
		var a cluster.Assignment
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := a.Validate(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !a.Member(cfg.ID) {
			http.Error(w, fmt.Sprintf("node %q is not a member of epoch %d", cfg.ID, a.Epoch), http.StatusConflict)
			return
		}
		ing.SetNodeInfo(a.NodeInfo(cfg.ID))
		writeJSON(log, w, map[string]any{"status": "ok", "epoch": a.Epoch})
	})
}

// ingestChunk bounds what /ingest holds decoded at once, in envelopes (120 B
// each): a request of up to ingestChunk envelopes is offered in one call, a
// longer body ingestChunk at a time, so its size does not decide the
// handler's memory.
const ingestChunk = 4096

// batchPool recycles /ingest's decoded batches across requests.
var batchPool = sync.Pool{New: func() any { return new([]telemetry.Envelope) }}

// handleIngest serves POST /ingest: the body is decoded into a pooled batch,
// the batch goes to offerAll in one call (one per ingestChunk envelopes of a
// longer body), and the answer counts what was decoded, malformed, accepted
// and dropped. What was decoded before an I/O error is still offered; the
// answer is then the error.
func handleIngest(log *slog.Logger, offerAll func([]telemetry.Envelope) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		batch := batchPool.Get().(*[]telemetry.Envelope)
		accepted := 0
		st, err := telemetry.ReadJSONL(r.Body, func(e telemetry.Envelope) {
			if *batch = append(*batch, e); len(*batch) == ingestChunk {
				accepted += offerAll(*batch)
				clear(*batch)
				*batch = (*batch)[:0]
			}
		})
		accepted += offerAll(*batch)
		clear(*batch) // the pool must not pin the envelopes' strings
		*batch = (*batch)[:0]
		batchPool.Put(batch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		buf := telemetry.TakeWireBuffer()
		defer telemetry.ReleaseWireBuffer(buf)
		*buf = appendIngestAck(*buf, st.Decoded, st.Malformed, accepted, st.Decoded-accepted)
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(*buf); err != nil {
			log.Error("write response failed", "err", err)
		}
	}
}

// appendIngestAck appends the /ingest answer: exactly the bytes writeJSON
// writes for map[string]int{"decoded": …, "malformed": …, "accepted": …,
// "dropped": …} — keys sorted, two-space indent, trailing newline — without
// reflection.
func appendIngestAck(dst []byte, decoded, malformed, accepted, dropped int) []byte {
	dst = append(dst, "{\n  \"accepted\": "...)
	dst = strconv.AppendInt(dst, int64(accepted), 10)
	dst = append(dst, ",\n  \"decoded\": "...)
	dst = strconv.AppendInt(dst, int64(decoded), 10)
	dst = append(dst, ",\n  \"dropped\": "...)
	dst = strconv.AppendInt(dst, int64(dropped), 10)
	dst = append(dst, ",\n  \"malformed\": "...)
	dst = strconv.AppendInt(dst, int64(malformed), 10)
	return append(dst, "\n}\n"...)
}

// handleMetrics serves GET /metrics: the registry in Prometheus text form.
func handleMetrics(log *slog.Logger, reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ExpositionContentType)
		if err := reg.WritePrometheus(w); err != nil {
			log.Error("metrics write failed", "err", err)
		}
	}
}

// partOfParams parses the ?partition=&of= selector the admin legs share.
func partOfParams(r *http.Request) (p, of int, err error) {
	q := r.URL.Query()
	if p, err = strconv.Atoi(q.Get("partition")); err != nil {
		return 0, 0, fmt.Errorf("bad partition: %w", err)
	}
	if of, err = strconv.Atoi(q.Get("of")); err != nil {
		return 0, 0, fmt.Errorf("bad of: %w", err)
	}
	return p, of, nil
}

// wantsBinary reports whether the caller asked for the binary wire form
// named by contentType (a sketch page or a key inventory).
func wantsBinary(r *http.Request, contentType string) bool {
	return r.Header.Get("Accept") == contentType
}

// writeBinary answers with the page, page set or key inventory encode
// appends to a pooled wire buffer: declared type and length, one Write,
// then the buffer goes back to the pool.
func writeBinary(log *slog.Logger, w http.ResponseWriter, contentType string, encode func([]byte) []byte) {
	buf := telemetry.TakeWireBuffer()
	defer telemetry.ReleaseWireBuffer(buf)
	*buf = encode(*buf)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	if _, err := w.Write(*buf); err != nil {
		log.Error("write response failed", "err", err)
	}
}

func writeJSON(log *slog.Logger, w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Error("write response failed", "err", err)
	}
}

// writeKeysJSON answers with the key inventory's JSON: the bytes writeJSON
// would write, by telemetry.AppendKeysJSON into a pooled wire buffer unless
// it declines.
func writeKeysJSON(log *slog.Logger, w http.ResponseWriter, keys []telemetry.KeyCount) {
	buf := telemetry.TakeWireBuffer()
	defer telemetry.ReleaseWireBuffer(buf)
	body, ok := telemetry.AppendKeysJSON(*buf, keys)
	if !ok {
		writeJSON(log, w, keys)
		return
	}
	*buf = body
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		log.Error("write response failed", "err", err)
	}
}

// specFromURL parses /query parameters into a QuerySpec.
func specFromURL(r *http.Request) (telemetry.QuerySpec, error) {
	q := r.URL.Query()
	spec := telemetry.QuerySpec{
		Metric: q.Get("metric"),
		Region: q.Get("region"),
		Net:    q.Get("net"),
	}
	var err error
	if spec.Quantiles, err = parseFloats(q.Get("q")); err != nil {
		return spec, fmt.Errorf("bad q: %w", err)
	}
	if spec.CDFAt, err = parseFloats(q.Get("cdf")); err != nil {
		return spec, fmt.Errorf("bad cdf: %w", err)
	}
	if v := q.Get("from"); v != "" {
		if spec.From, err = time.Parse(time.RFC3339, v); err != nil {
			return spec, fmt.Errorf("bad from: %w", err)
		}
	}
	if v := q.Get("to"); v != "" {
		if spec.To, err = time.Parse(time.RFC3339, v); err != nil {
			return spec, fmt.Errorf("bad to: %w", err)
		}
	}
	return spec, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
