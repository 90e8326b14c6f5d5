package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// The frontend's membership plane. A running frontend admits, drains and
// removes nodes without any daemon restarting: POST /admin/join proposes
// the next epoch, the migrator streams sketch-page handoffs from the
// losing owners, and the epoch activates atomically once every moved
// partition is rebuilt (see internal/telemetry/cluster). The activated
// table is persisted to cluster-state.json under -data, so a restarted
// frontend resumes the membership it last activated rather than the
// -peers flag it was born with.

// peerSet is the frontend's live node registry: one HTTP client per
// member, mutated as nodes join and leave while the router, prober and
// scatter-gather keep reading it. All three consume it through closures
// that look ids up under the lock, so a membership change is visible to
// the data plane the moment it lands.
type peerSet struct {
	timeout time.Duration

	mu    sync.RWMutex
	nodes map[string]*cluster.HTTPNode
	urls  map[string]string
}

// newPeerSet builds the registry from an id→url map.
func newPeerSet(urls map[string]string, timeout time.Duration) *peerSet {
	ps := &peerSet{
		timeout: timeout,
		nodes:   make(map[string]*cluster.HTTPNode, len(urls)),
		urls:    make(map[string]string, len(urls)),
	}
	for id, u := range urls {
		ps.add(id, u)
	}
	return ps
}

// add wires (or rewires) one member's client and returns it.
func (ps *peerSet) add(id, url string) *cluster.HTTPNode {
	n := cluster.NewHTTPNode(url, &http.Client{Timeout: ps.timeout})
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
	out := make(map[string]string, len(ps.urls))
	for id, u := range ps.urls {
		out[id] = u
	}
	return out
}

// transport is the router's per-node delivery leg over the live registry.
func (ps *peerSet) transport() cluster.Transport {
	return func(node string, e telemetry.Envelope) bool {
		n := ps.get(node)
		if n == nil {
			return false
		}
		return n.Ingest(e)
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

// clusterState is what the frontend persists per activated epoch: the
// assignment table plus the member URLs needed to rebuild the data plane
// on restart (URLs are deployment facts the assignment itself doesn't
// carry).
type clusterState struct {
	Assignment cluster.Assignment `json:"assignment"`
	URLs       map[string]string  `json:"urls"`
}

// clusterStateFile is the frontend's persisted membership, under -data.
const clusterStateFile = "cluster-state.json"

// loadClusterState reads the persisted membership; (nil, nil) when the
// directory is unset or holds none — the caller falls back to -peers.
func loadClusterState(dir string) (*clusterState, error) {
	if dir == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(filepath.Join(dir, clusterStateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st clusterState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", clusterStateFile, err)
	}
	if err := st.Assignment.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", clusterStateFile, err)
	}
	return &st, nil
}

// saveClusterState writes the membership atomically and durably (tmp,
// fsync, rename), so a crash mid-write leaves the previous epoch's file
// intact and an acknowledged activation survives a power cut.
func saveClusterState(dir string, st clusterState) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return telemetry.WriteFileAtomic(filepath.Join(dir, clusterStateFile), raw)
}

// adminPlane serves the frontend's membership endpoints. Join, leave and
// drain serialize through the migrator (one epoch transition at a time; a
// request landing mid-migration answers 409) while ingest and queries keep
// flowing on the epoch being superseded.
type adminPlane struct {
	pm    *cluster.PartitionMap
	mig   *cluster.Migrator
	peers *peerSet
	front *cluster.Frontend
	log   *slog.Logger
}

// mount wires the membership endpoints onto the frontend mux.
func (a *adminPlane) mount(mux *http.ServeMux, log *slog.Logger) {
	if a.log == nil {
		a.log = log
	}
	mux.HandleFunc("GET /admin/assignment", a.handleAssignment)
	mux.HandleFunc("POST /admin/join", a.handleJoin)
	mux.HandleFunc("POST /admin/leave", a.handleLeave)
	mux.HandleFunc("POST /admin/drain", a.handleDrain)
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
	writeJSON(a.log, w, map[string]any{
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
		a.log.Error("join failed", "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.log.Info("member joined", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, next)
}

// handleLeave removes one member after handing its partitions to the
// survivors. The node's daemon can shut down once this returns.
func (a *adminPlane) handleLeave(w http.ResponseWriter, r *http.Request) {
	req, err := decodeMember(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	next, err := a.mig.Leave(context.Background(), req.ID)
	if err != nil {
		a.log.Error("leave failed", "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.front.RemoveClient(req.ID)
	a.peers.remove(req.ID)
	a.log.Info("member left", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, next)
}

// handleDrain empties one member without removing it — the prelude to a
// clean leave, which then moves nothing.
func (a *adminPlane) handleDrain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeMember(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	next, err := a.mig.Drain(context.Background(), req.ID)
	if err != nil {
		a.log.Error("drain failed", "node", req.ID, "err", err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.log.Info("member drained", "node", req.ID, "epoch", next.Epoch)
	writeJSON(a.log, w, next)
}
