package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// The frontend role: the stateless routing + scatter-gather tier and its
// membership plane. A running frontend admits, drains and removes nodes
// without any daemon restarting: POST /admin/join proposes the next epoch,
// the migrator streams sketch-page handoffs from the losing owners, and the
// epoch activates atomically once every moved partition is rebuilt (see
// internal/telemetry/cluster). With a data directory the activated table is
// persisted to cluster-state.json, so a restarted frontend resumes the
// membership it last activated rather than the boot list it was born with.

// ErrLayout marks a boot failure the boot layout itself causes — a member
// list or partition count no map can be built from, or a member without a
// URL — as opposed to a data directory that cannot be read or written.
var ErrLayout = errors.New("bad cluster layout")

// FrontendConfig is the frontend's boot configuration.
type FrontendConfig struct {
	// Peers is the boot member list in canonical order and URLs each
	// member's base URL. With a persisted cluster state the state's
	// membership wins, and URLs only supplies what the state lacks.
	Peers      []string
	URLs       map[string]string
	Partitions int
	// DataDir, when set, holds cluster-state.json: resumed at boot,
	// rewritten on every activated epoch.
	DataDir string
	// ProbeEvery is the health prober's period.
	ProbeEvery time.Duration
	// Client carries every node leg; its Timeout also bounds each
	// scatter-gather leg.
	Client *http.Client
	// Seed seeds the probe jitter and the router's retry jitter.
	Seed uint64
	// Pprof mounts net/http/pprof under /debug/pprof/, as NodeConfig.Pprof
	// does on a node.
	Pprof bool
	Log   *slog.Logger
}

// Frontend is a booted frontend: the handler serving its endpoints, plus the
// parts a caller drives directly.
type Frontend struct {
	http.Handler
	Map     *cluster.PartitionMap
	Router  *cluster.Router
	Health  *cluster.HealthTracker
	Metrics *obs.Registry
}

// NewFrontend resolves the membership (the persisted cluster state when
// DataDir holds one, else the boot list at epoch 1) and wires peer set →
// health tracker → router → scatter-gather → migrator → mux. The health
// tracker has already probed every member once and keeps probing until
// Close.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	log := cfg.Log
	st, err := LoadClusterState(cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("bad cluster state in %s: %w", cfg.DataDir, err)
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster state dir: %w", err)
		}
	}
	urls := make(map[string]string, len(cfg.URLs))
	for id, u := range cfg.URLs {
		urls[id] = u
	}
	var pm *cluster.PartitionMap
	if st != nil {
		if pm, err = cluster.NewMapFromAssignment(st.Assignment); err != nil {
			return nil, fmt.Errorf("bad persisted assignment: %w", err)
		}
		for id, u := range st.URLs {
			if u != "" {
				urls[id] = u
			}
		}
		log.Info("resumed cluster state", "file", ClusterStateFile,
			"epoch", st.Assignment.Epoch, "nodes", st.Assignment.Nodes)
	} else if pm, err = cluster.NewMap(cluster.MapConfig{Partitions: cfg.Partitions, Nodes: cfg.Peers}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLayout, err)
	}
	peers := &peerSet{client: cfg.Client, nodes: map[string]*cluster.HTTPNode{}, urls: map[string]string{}}
	clients := map[string]cluster.NodeClient{}
	admins := map[string]cluster.NodeAdmin{}
	for _, id := range pm.Nodes() {
		if urls[id] == "" {
			return nil, fmt.Errorf("%w: member %q has no url (the frontend needs id=url for every member)", ErrLayout, id)
		}
		n := peers.add(id, urls[id])
		clients[id] = n
		admins[id] = n
	}
	log.Info("starting", "role", "frontend", "epoch", pm.Epoch(),
		"peers", pm.Nodes(), "partitions", pm.Partitions())

	f := &Frontend{Map: pm, Metrics: obs.NewRegistry()}
	f.Health = cluster.NewHealthTracker(pm.Nodes(), peers.prober(), cluster.HealthConfig{
		Interval: cfg.ProbeEvery,
		// ±10% seeded jitter de-synchronizes probe bursts when several
		// frontends share a probe interval.
		Jitter:  rng.New(cfg.Seed).Fork("health-jitter"),
		Metrics: f.Metrics,
	})
	// Seed the state machine with one synchronous sweep so the very first
	// routed envelope already sees real membership, then probe on the
	// jittered timer.
	f.Health.ProbeOnce()
	f.Health.Start()

	f.Router = cluster.NewLegRouter(pm, f.Health, peers.leg(),
		rng.New(cfg.Seed).Fork("router"), cluster.RouterConfig{Metrics: f.Metrics})
	front := cluster.NewFrontend(pm, clients, cluster.FrontendConfig{
		Timeout: cfg.Client.Timeout,
		Metrics: f.Metrics,
	})
	mig := cluster.NewMigrator(pm, admins, cluster.MigratorConfig{
		Health: f.Health,
		OnActivate: func(a cluster.Assignment) {
			if cfg.DataDir == "" {
				return
			}
			if err := SaveClusterState(cfg.DataDir, ClusterState{Assignment: a, URLs: peers.urlsCopy()}); err != nil {
				log.Error("cluster state persist failed", "epoch", a.Epoch, "err", err)
			}
		},
	})
	f.Handler = withRequestID(f.mux(front, &adminPlane{pm: pm, mig: mig, peers: peers, front: front, log: log}, cfg.Pprof, log))
	return f, nil
}

// Close stops the health prober.
func (f *Frontend) Close() { f.Health.Stop() }

// withRequestID gives every request an id before h serves it: the caller's
// cluster.RequestIDHeader, or one minted from a counter. The id rides the
// request's header, which the failure logs read, and its context, which
// every node leg sends on (cluster.WithRequestID).
func withRequestID(h http.Handler) http.Handler {
	var minted atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(cluster.RequestIDHeader)
		if id == "" {
			id = "fe-" + strconv.FormatUint(minted.Add(1), 10)
			r.Header.Set(cluster.RequestIDHeader, id)
		}
		h.ServeHTTP(w, r.WithContext(cluster.WithRequestID(r.Context(), id)))
	})
}

// mux wires the frontend endpoints: /ingest routed per partition, /query
// and /keys scatter-gathered, /healthz reporting cluster membership, the
// membership plane under /admin, /metrics, and with pprof the profiling
// endpoints. The response shapes match a node's wherever the cluster has
// nothing to disclose — a complete /query answer is byte-identical to a
// single process's. A partial answer — an /ingest whose legs acked fewer
// envelopes than it decoded, a /query or /keys missing a node — is logged
// once at Warn with the request id.
func (f *Frontend) mux(front *cluster.Frontend, admin *adminPlane, pprof bool, log *slog.Logger) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	// Requests run concurrently: the router numbers nothing and keeps no
	// per-call state, so each request plans and sends its own legs.
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		decoded, accepted := 0, 0
		handleIngest(log, func(ctx context.Context, events []telemetry.Envelope) int {
			n := f.Router.SendAllContext(ctx, events)
			decoded, accepted = decoded+len(events), accepted+n
			return n
		})(w, r)
		if accepted < decoded {
			log.Warn("ingest acked partially", "request_id", requestID(r), "decoded", decoded, "accepted", accepted)
		}
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
		res, err := front.Query(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if res.Partial {
			log.Warn("query answered partial", "request_id", requestID(r),
				"missing_nodes", res.MissingNodes, "missing_partitions", res.MissingPartitions)
		}
		writeJSON(log, w, r, res)
	})
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		keys, missing := front.Keys(r.Context())
		if len(missing) > 0 {
			log.Warn("keys answered partial", "request_id", requestID(r), "missing_nodes", missing)
			// The body stays the plain inventory (so a complete answer is
			// byte-identical to a node's /keys); partiality rides on the
			// status code and a header.
			w.Header().Set("X-Missing-Nodes", strings.Join(missing, ","))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPartialContent)
		}
		writeKeysJSON(log, w, r, keys)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := f.Health.Snapshot()
		status := "ok"
		nodes := make([]map[string]any, 0, len(snap))
		for _, n := range snap {
			if n.State != "up" {
				status = "degraded"
			}
			nodes = append(nodes, map[string]any{
				"node":  n.Node,
				"state": n.State,
				"owns":  f.Map.OwnedBy(n.Node),
			})
		}
		writeJSON(log, w, r, map[string]any{
			"status":         status,
			"node":           &telemetry.NodeInfo{Role: "frontend"},
			"epoch":          f.Map.Epoch(),
			"partitions":     f.Map.Partitions(),
			"nodes":          nodes,
			"router":         f.Router.Stats(),
			"uptime_seconds": int(time.Since(start).Seconds()),
		})
	})
	mux.HandleFunc("GET /admin/assignment", admin.handleAssignment)
	mux.HandleFunc("POST /admin/join", admin.handleJoin)
	mux.HandleFunc("POST /admin/leave", admin.handleLeave)
	mux.HandleFunc("POST /admin/drain", admin.handleDrain)
	mux.HandleFunc("GET /metrics", handleMetrics(log, f.Metrics))
	if pprof {
		mountPprof(mux)
	}
	return mux
}

// peerSet is the frontend's live node registry: one HTTP client per
// member, mutated as nodes join and leave while the router, prober and
// scatter-gather keep reading it. All three consume it through closures
// that look ids up under the lock, so a membership change is visible to
// the data plane the moment it lands.
type peerSet struct {
	client *http.Client

	mu    sync.RWMutex
	nodes map[string]*cluster.HTTPNode
	urls  map[string]string
}

// add wires (or rewires) one member's client and returns it.
func (ps *peerSet) add(id, url string) *cluster.HTTPNode {
	n := cluster.NewHTTPNode(url, ps.client)
	ps.mu.Lock()
	ps.nodes[id] = n
	ps.urls[id] = url
	ps.mu.Unlock()
	return n
}

// remove unwires a departed member.
func (ps *peerSet) remove(id string) {
	ps.mu.Lock()
	delete(ps.nodes, id)
	delete(ps.urls, id)
	ps.mu.Unlock()
}

// get returns a member's client, nil when unknown.
func (ps *peerSet) get(id string) *cluster.HTTPNode {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.nodes[id]
}

// urlsCopy snapshots the id→url map (for persistence).
func (ps *peerSet) urlsCopy() map[string]string {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return maps.Clone(ps.urls)
}

// leg is the router's per-node ingest leg over the live registry: one POST
// per run of envelopes (HTTPNode.IngestBatch).
func (ps *peerSet) leg() cluster.Leg {
	return func(ctx context.Context, node string, events []telemetry.Envelope) int {
		n := ps.get(node)
		if n == nil {
			return 0
		}
		return n.IngestBatch(ctx, events)
	}
}

// prober is the health tracker's probe leg over the live registry.
func (ps *peerSet) prober() cluster.Prober {
	return func(node string) cluster.ProbeResult {
		n := ps.get(node)
		if n == nil {
			return cluster.ProbeResult{}
		}
		return n.Probe()
	}
}

// ClusterState is what the frontend persists per activated epoch: the
// assignment table plus the member URLs needed to rebuild the data plane
// on restart (URLs are deployment facts the assignment itself doesn't
// carry).
type ClusterState struct {
	Assignment cluster.Assignment `json:"assignment"`
	URLs       map[string]string  `json:"urls"`
}

// ClusterStateFile is the frontend's persisted membership, under its data
// directory.
const ClusterStateFile = "cluster-state.json"

// LoadClusterState reads the persisted membership; (nil, nil) when the
// directory is unset or holds none — the caller falls back to the boot list.
func LoadClusterState(dir string) (*ClusterState, error) {
	if dir == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(filepath.Join(dir, ClusterStateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st ClusterState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", ClusterStateFile, err)
	}
	if err := st.Assignment.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", ClusterStateFile, err)
	}
	return &st, nil
}

// SaveClusterState writes the membership atomically and durably (tmp,
// fsync, rename), so a crash mid-write leaves the previous epoch's file
// intact and an acknowledged activation survives a power cut.
func SaveClusterState(dir string, st ClusterState) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return telemetry.WriteFileAtomic(filepath.Join(dir, ClusterStateFile), raw)
}

// adminPlane serves the frontend's membership endpoints. Join, leave and
// drain each hold mu from their membership check to their last wiring
// change, so each sees a settled epoch: a request that lands while another
// migration is in flight waits for it to finish, then answers against the
// epoch it left behind. Ingest and queries keep flowing on the epoch being
// superseded meanwhile.
type adminPlane struct {
	mu    sync.Mutex
	pm    *cluster.PartitionMap
	mig   *cluster.Migrator
	peers *peerSet
	front *cluster.Frontend
	log   *slog.Logger
}

// handleAssignment reports the current epoch's table and whether it is
// settled: "migrating" only while a migration is in flight, "active"
// otherwise — the convergence signal an operator (or ci smoke) polls after
// a join.
func (a *adminPlane) handleAssignment(w http.ResponseWriter, r *http.Request) {
	status := "active"
	if a.mig.Migrating() {
		status = "migrating"
	}
	writeJSON(a.log, w, r, map[string]any{
		"status":     status,
		"epoch":      a.pm.Epoch(),
		"assignment": a.pm.Current(),
		"migrating":  a.pm.Migrating(),
	})
}

// memberReq is the body join/leave/drain take; url is join-only.
type memberReq struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

func decodeMember(r *http.Request) (memberReq, error) {
	var req memberReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, err
	}
	if strings.TrimSpace(req.ID) == "" {
		return req, fmt.Errorf("missing id")
	}
	return req, nil
}

// handleJoin admits one node: {"id": "n3", "url": "http://h3:8355"}. The
// response is the activated assignment; on any handoff failure the
// migration has already rolled back and the old epoch still routes.
func (a *adminPlane) handleJoin(w http.ResponseWriter, r *http.Request) {
	req, err := decodeMember(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pm.Current().Member(req.ID) {
		http.Error(w, fmt.Sprintf("%q is already a member", req.ID), http.StatusConflict)
		return
	}
	// Wire the data plane before the migration so the member is routable
	// and queryable the moment its epoch activates; unwire it all on
	// failure. The migration itself runs on a background context — an admin
	// client hanging up must not abort a half-shipped handoff.
	n := a.peers.add(req.ID, req.URL)
	a.front.AddClient(req.ID, n)
	next, err := a.mig.Join(context.Background(), req.ID, n)
	if err != nil {
		a.front.RemoveClient(req.ID)
		a.peers.remove(req.ID)
		a.log.Error("join failed", "request_id", requestID(r), "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.log.Info("member joined", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, r, next)
}

// handleLeave removes one member after handing its partitions to the
// survivors. The node's daemon can shut down once this returns.
func (a *adminPlane) handleLeave(w http.ResponseWriter, r *http.Request) {
	req, err := decodeMember(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	next, err := a.mig.Leave(context.Background(), req.ID)
	if err != nil {
		a.log.Error("leave failed", "request_id", requestID(r), "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.front.RemoveClient(req.ID)
	a.peers.remove(req.ID)
	a.log.Info("member left", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, r, next)
}

// handleDrain empties one member without removing it — the prelude to a
// clean leave, which then moves nothing.
func (a *adminPlane) handleDrain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeMember(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	next, err := a.mig.Drain(context.Background(), req.ID)
	if err != nil {
		a.log.Error("drain failed", "request_id", requestID(r), "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.log.Info("member drained", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, r, next)
}
