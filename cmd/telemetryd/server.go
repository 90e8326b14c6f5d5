package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// muxConfig assembles the daemon's HTTP surface; split from main so tests
// can stand the exact production mux up against httptest.
type muxConfig struct {
	ing *telemetry.Ingestor
	// reg, when set, serves Prometheus text exposition on GET /metrics.
	reg *obs.Registry
	// pprof mounts net/http/pprof under /debug/pprof/ — opt-in because the
	// profile endpoints can pause the process (heap dumps, CPU profiles) and
	// a telemetry daemon's default surface should be read-only-cheap.
	pprof bool
	// nodeID, when non-empty, marks a cluster node and mounts the rebalance
	// admin plane (/admin/*, /sketches/partition) the frontend's migrator
	// drives during join/leave/drain handoffs.
	nodeID string
	start  time.Time
	log    *slog.Logger
}

// buildMux wires every endpoint of the daemon onto a fresh mux.
func buildMux(cfg muxConfig) *http.ServeMux {
	if cfg.log == nil {
		cfg.log = slog.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		accepted := 0
		st, err := telemetry.ReadJSONL(r.Body, func(e telemetry.Envelope) {
			if cfg.ing.Offer(e) {
				accepted++
			}
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(cfg.log, w, map[string]int{
			"decoded":   st.Decoded,
			"malformed": st.Malformed,
			"accepted":  accepted,
			"dropped":   st.Decoded - accepted,
		})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := cfg.ing.Query(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(cfg.log, w, res)
	})
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(cfg.log, w, cfg.ing.Keys())
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
		page, err := cfg.ing.MatchSketches(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if wantsBinaryPages(r) {
			body, _ := page.AppendBinary(make([]byte, 0, page.BinarySize())) // encoding a page cannot fail
			writeBinaryPages(cfg.log, w, body)
			return
		}
		writeJSON(cfg.log, w, page)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := cfg.ing.Health()
		body := map[string]any{
			"status":         h.Status,
			"reasons":        h.Reasons,
			"durable":        h.Durable,
			"uptime_seconds": int(time.Since(cfg.start).Seconds()),
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
		writeJSON(cfg.log, w, body)
	})
	if cfg.nodeID != "" {
		mountNodeAdmin(mux, cfg)
	}
	if cfg.reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.ExpositionContentType)
			if err := cfg.reg.WritePrometheus(w); err != nil {
				cfg.log.Error("metrics write failed", "err", err)
			}
		})
	}
	if cfg.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// mountNodeAdmin wires a cluster node's rebalance control plane — the HTTP
// realization of cluster.NodeAdmin that the frontend's migrator drives
// (through cluster.HTTPNode). Every leg maps one-to-one onto an Ingestor
// handoff primitive; errors come back as plain-text non-2xx bodies, which
// HTTPNode surfaces verbatim to the coordinator.
func mountNodeAdmin(mux *http.ServeMux, cfg muxConfig) {
	mux.HandleFunc("POST /admin/flush", func(w http.ResponseWriter, r *http.Request) {
		cfg.ing.Flush()
		writeJSON(cfg.log, w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /admin/freeze", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := cfg.ing.FreezePartition(p, of); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(cfg.log, w, map[string]string{"status": "frozen"})
	})
	mux.HandleFunc("POST /admin/unfreeze", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg.ing.UnfreezePartition(p, of)
		writeJSON(cfg.log, w, map[string]string{"status": "ok"})
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
		pages, err := cfg.ing.PartitionPages(p, of)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if wantsBinaryPages(r) {
			writeBinaryPages(cfg.log, w, telemetry.AppendSketchPages(nil, pages))
			return
		}
		writeJSON(cfg.log, w, pages)
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
		ack, err := cfg.ing.AbsorbPages(pages)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(cfg.log, w, ack)
	})
	mux.HandleFunc("POST /admin/drop", func(w http.ResponseWriter, r *http.Request) {
		p, of, err := partOfParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dropped, err := cfg.ing.DropPartition(p, of)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(cfg.log, w, map[string]int{"dropped": dropped})
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
		if !a.Member(cfg.nodeID) {
			http.Error(w, fmt.Sprintf("node %q is not a member of epoch %d", cfg.nodeID, a.Epoch), http.StatusConflict)
			return
		}
		cfg.ing.SetNodeInfo(a.NodeInfo(cfg.nodeID))
		writeJSON(cfg.log, w, map[string]any{"status": "ok", "epoch": a.Epoch})
	})
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

// frontendMuxConfig assembles the query front-end's HTTP surface.
type frontendMuxConfig struct {
	pm      *cluster.PartitionMap
	router  *cluster.Router
	front   *cluster.Frontend
	tracker *cluster.HealthTracker
	// admin, when set, mounts the membership plane: GET /admin/assignment,
	// POST /admin/join|leave|drain.
	admin *adminPlane
	reg   *obs.Registry
	start time.Time
	log   *slog.Logger
}

// buildFrontendMux wires the cluster front-end endpoints: /ingest routed
// per partition, /query and /keys scatter-gathered, /healthz reporting
// cluster membership. The response shapes match the single-node daemon's
// wherever the cluster has nothing to disclose — a complete /query answer
// is byte-identical to a single process's.
func buildFrontendMux(cfg frontendMuxConfig) *http.ServeMux {
	if cfg.log == nil {
		cfg.log = slog.Default()
	}
	// The router wraps a RetryClient, which is single-goroutine by
	// contract — serialize ingest requests over it.
	var ingestMu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		accepted := 0
		ingestMu.Lock()
		st, err := telemetry.ReadJSONL(r.Body, func(e telemetry.Envelope) {
			if cfg.router.Send(e) {
				accepted++
			}
		})
		ingestMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(cfg.log, w, map[string]int{
			"decoded":   st.Decoded,
			"malformed": st.Malformed,
			"accepted":  accepted,
			"dropped":   st.Decoded - accepted,
		})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A spec the front door can reject is the caller's fault; once it
		// is valid, whatever fails — pages that disagree on configuration,
		// an undecodable sketch, keys out of order — is the cluster's.
		if err := telemetry.ValidateQuerySpec(spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := cfg.front.Query(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeJSON(cfg.log, w, res)
	})
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		keys, missing := cfg.front.Keys(r.Context())
		if len(missing) > 0 {
			// The body stays the plain inventory (so a complete answer is
			// byte-identical to a node's /keys); partiality rides on the
			// status code and a header.
			w.Header().Set("X-Missing-Nodes", strings.Join(missing, ","))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPartialContent)
		}
		writeJSON(cfg.log, w, keys)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := cfg.tracker.Snapshot()
		status := "ok"
		nodes := make([]map[string]any, 0, len(snap))
		for _, n := range snap {
			if n.State != "up" {
				status = "degraded"
			}
			nodes = append(nodes, map[string]any{
				"node":  n.Node,
				"state": n.State,
				"owns":  cfg.pm.OwnedBy(n.Node),
			})
		}
		writeJSON(cfg.log, w, map[string]any{
			"status":         status,
			"node":           &telemetry.NodeInfo{Role: "frontend"},
			"epoch":          cfg.pm.Epoch(),
			"partitions":     cfg.pm.Partitions(),
			"nodes":          nodes,
			"router":         cfg.router.Stats(),
			"uptime_seconds": int(time.Since(cfg.start).Seconds()),
		})
	})
	if cfg.admin != nil {
		cfg.admin.mount(mux, cfg.log)
	}
	if cfg.reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.ExpositionContentType)
			if err := cfg.reg.WritePrometheus(w); err != nil {
				cfg.log.Error("metrics write failed", "err", err)
			}
		})
	}
	return mux
}

// wantsBinaryPages reports whether the caller asked for sketch pages in
// their binary wire form.
func wantsBinaryPages(r *http.Request) bool {
	return r.Header.Get("Accept") == telemetry.SketchPageContentType
}

// writeBinaryPages answers with an encoded page (or page set): declared
// length, one Write.
func writeBinaryPages(log *slog.Logger, w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", telemetry.SketchPageContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
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
