// Command telemetryd serves edgescope's streaming telemetry pipeline over
// HTTP: JSONL events in, windowed quantile-sketch rollups inside, live
// percentile queries out.
//
// Endpoints:
//
//	POST /ingest   JSONL body, one Envelope per line; responds with
//	               {"decoded":N,"malformed":N,"accepted":N,"dropped":N}
//	GET  /query    ?metric=rtt_ms[&region=..][&net=..][&from=RFC3339]
//	               [&to=RFC3339][&q=0.5,0.95,0.99][&cdf=10,50,100]
//	GET  /keys     every queryable dimension tuple with its event count
//	GET  /sketches same parameters as /query; each matching key's rollups
//	               folded into one sealed sketch, in exact binary sketch
//	               form — the scatter half of a cluster query
//	GET  /healthz  liveness ("ok" or "degraded", with reasons), per-shard
//	               ingest + WAL accounting, the startup recovery report,
//	               and (cluster roles) this node's partition assignment
//	GET  /metrics  Prometheus text exposition: ingest, dedup, shedding, WAL,
//	               recovery and query-latency instrument families
//
// With -pprof the daemon, in any role, additionally mounts Go's net/http/pprof profiling
// endpoints under /debug/pprof/ (opt-in: CPU profiles and heap dumps are not
// free, so the default surface stays read-only-cheap).
//
// With -data the daemon is durable: accepted events are written to a
// per-shard write-ahead log and periodic snapshots under the directory, and
// a restarted daemon recovers them — answering the same /query results as
// before the restart for everything fsynced (see the README's "Fault model
// & durability"). SIGINT/SIGTERM trigger a graceful shutdown: stop
// accepting, drain the shard queues, fsync the WAL, write a final snapshot,
// exit 0.
//
// With -replay the daemon first streams a deterministic crowd campaign
// (latency + throughput, internal/crowd) through the pipeline, so a fresh
// process has data to query immediately. The campaign is sized by the
// declarative scenario layer: -scenario accepts any registered name or a
// JSON spec file (default: small):
//
//	telemetryd -replay -scenario dense-metro &
//	curl 'localhost:8355/query?metric=rtt_ms&q=0.5,0.95,0.99'
//
// # Cluster roles
//
// -role selects how the daemon participates in a distributed deployment
// (internal/telemetry/cluster; see the README's "Distributed telemetry"):
//
//   - single (default): the standalone pipeline above.
//   - node: one partitioned member. -node-id names this member inside the
//     -peers list; /healthz self-describes the partitions it owns.
//   - frontend: the stateless routing + scatter-gather tier. POST /ingest
//     routes each envelope to its partition's owner (refused while the
//     owner is marked down — a producer's retry then lands it, dedup'd by
//     sequence number), GET /query fans out to the nodes that can answer
//     it (a query naming one key asks its owner alone), merges sketch
//     pages deterministically, and answers with explicit partial-result
//     semantics ("partial": true plus the missing partition list) when
//     members are unreachable.
//
// -peers lists the members as comma-separated id=url pairs in canonical
// order; duplicate or empty entries are rejected at startup, naming the
// offending peer. Every daemon of one cluster must be given the identical
// boot list and -partitions. A frontend given -replay streams
// the campaign through the router — the cluster-wide equivalent of a
// node-local replay.
//
//	telemetryd -role node -node-id n0 -peers n0=http://h0:8355,n1=http://h1:8355
//	telemetryd -role frontend -peers n0=http://h0:8355,n1=http://h1:8355 -addr :8360
//
// Membership is elastic after boot. The frontend serves an admin plane:
//
//	GET  /admin/assignment  the current epoch's table; "status" is
//	                        "migrating" only while a migration is in flight
//	POST /admin/join        {"id":"n3","url":"http://h3:8355"} — admit a
//	                        member: minimal-movement rebalance, live
//	                        sketch-page handoff, atomic epoch activation
//	POST /admin/leave       {"id":"n1"} — hand a member's partitions to
//	                        the survivors, then remove it
//	POST /admin/drain       {"id":"n1"} — empty a member without removing
//	                        it (a later leave then moves nothing)
//
// Each node mounts the matching data-plane legs the migrator drives
// (POST /admin/flush|freeze|unfreeze|absorb|drop|assignment and
// GET /sketches/partition). A frontend given -data persists each activated
// assignment to cluster-state.json there and resumes it on restart, so
// joins and leaves survive a frontend restart without re-flagging -peers.
//
// Usage:
//
//	telemetryd [-addr :8355] [-shards 4] [-window 1m] [-queue 1024]
//	           [-compression 100] [-retain 10000] [-drop]
//	           [-data DIR] [-sync-every 256] [-snapshot-every 4096]
//	           [-replay] [-seed 1] [-scenario NAME|file.json]
//	           [-pprof] [-log-format text|json]
//	           [-role single|node|frontend] [-node-id ID] [-peers LIST]
//	           [-partitions 16]
//	           [-probe-interval 1s] [-node-timeout 2s]
//
// Logs are structured (log/slog) with stable event names and keys, -log-format
// selects human-readable text (default) or one JSON object per line.
//
// Ingest applies backpressure by default (a full shard queue slows the
// producer); -drop sheds load instead, with every drop counted in
// /healthz. -retain bounds memory on an endless stream by evicting each
// shard's oldest rollup windows past the cap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgescope/internal/core"
	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
	"edgescope/internal/telemetry/serve"
)

func main() {
	addr := flag.String("addr", ":8355", "HTTP listen address")
	shards := flag.Int("shards", 4, "ingest shard count")
	queue := flag.Int("queue", 1024, "per-shard bounded queue length")
	window := flag.Duration("window", time.Minute, "rollup window length")
	compression := flag.Float64("compression", 0, "quantile sketch compression (0 = default)")
	retain := flag.Int("retain", 10000, "max rollup windows retained per shard, oldest evicted first (0 = unbounded)")
	drop := flag.Bool("drop", false, "shed load by dropping events when a shard queue is full instead of applying backpressure")
	dataDir := flag.String("data", "", "durable data directory: per-shard WAL + snapshots, recovered on restart (empty = in-memory only)")
	syncEvery := flag.Int("sync-every", 256, "fsync the WAL every N appended records per shard")
	snapEvery := flag.Int("snapshot-every", 4096, "at least N folded records between a shard's checkpoints; past N one is cut once the WAL logged since the last outweighs it (0 = only at shutdown)")
	replay := flag.Bool("replay", false, "stream the deterministic crowd campaign through the pipeline at startup")
	seed := flag.Uint64("seed", 1, "replay seed override (default: the scenario's)")
	scn := flag.String("scenario", "small", "replay scenario name from the registry, or path to a JSON spec")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	role := flag.String("role", "single", "cluster role: single, node, or frontend")
	nodeID := flag.String("node-id", "", "this member's id inside -peers (role node)")
	peers := flag.String("peers", "", "cluster members as comma-separated id=url pairs, canonical order (identical on every daemon)")
	partitions := flag.Int("partitions", cluster.DefaultPartitions, "cluster keyspace partition count (identical on every daemon)")
	probeEvery := flag.Duration("probe-interval", time.Second, "frontend health probe period")
	nodeTimeout := flag.Duration("node-timeout", 2*time.Second, "frontend per-node scatter-gather timeout")
	flag.Parse()

	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetryd: %v\n", err)
		os.Exit(2)
	}

	// Resolve the cluster member list for the cluster roles. The -peers
	// flag is only the boot layout: a frontend given -data resumes the last
	// assignment it activated instead, and a node's true placement arrives
	// by push when the frontend rebalances.
	var peerIDs []string
	var peerURLs map[string]string
	if *role == "node" || *role == "frontend" {
		ids, urls, err := parsePeers(*peers)
		if err != nil {
			log.Error("bad -peers", "err", err)
			os.Exit(2)
		}
		peerIDs, peerURLs = ids, urls
	}

	switch *role {
	case "frontend":
		// With -data the last activated assignment is resumed from
		// cluster-state.json (-peers then only supplies URLs for members the
		// persisted state doesn't know); without it membership starts from
		// the -peers boot layout at epoch 1.
		fr, err := serve.NewFrontend(serve.FrontendConfig{
			Peers: peerIDs, URLs: peerURLs, Partitions: *partitions,
			DataDir: *dataDir, ProbeEvery: *probeEvery,
			Client: &http.Client{Timeout: *nodeTimeout},
			Seed:   *seed, Pprof: *pprofOn, Log: log,
		})
		if err != nil {
			log.Error("frontend boot failed", "err", err)
			if errors.Is(err, serve.ErrLayout) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		defer fr.Close()
		if *replay {
			st := replayCampaign(log, *scn, *seed, fr.Router.Send,
				"replay lost events to unreachable partitions", "check node health; refused envelopes must be resent after recovery",
				"via", "router")
			log.Info("replay done", "events", st.Events, "accepted", st.Accepted, "dropped", st.Dropped,
				"routed", fr.Router.Stats().Routed)
		}
		if err := serveUntilSignal(*addr, fr, log,
			"addr", *addr, "role", "frontend", "peers", len(fr.Map.Nodes())); err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
		log.Info("clean shutdown", "router", fr.Router.Stats())
		return
	case "single", "node":
	default:
		log.Error("unknown -role", "role", *role, "valid", "single, node, frontend")
		os.Exit(2)
	}

	nodeInfo := &telemetry.NodeInfo{Role: "single"}
	if *role == "node" {
		if *nodeID == "" {
			log.Error("role node needs -node-id")
			os.Exit(2)
		}
		pm, err := cluster.NewMap(cluster.MapConfig{Partitions: *partitions, Nodes: peerIDs})
		if err != nil {
			log.Error("bad cluster layout", "err", err)
			os.Exit(2)
		}
		if !pm.Current().Member(*nodeID) {
			log.Error("-node-id not in -peers", "node_id", *nodeID, "peers", peerIDs)
			os.Exit(2)
		}
		nodeInfo = pm.NodeInfo(*nodeID)
		if len(nodeInfo.Partitions) == 0 {
			// Not fatal: a freshly booted joiner owns nothing until the
			// frontend's migrator hands partitions over and pushes the
			// activated assignment (POST /admin/assignment).
			log.Info("node owns nothing under the boot layout; awaiting an assignment push", "node_id", *nodeID)
		}
	}
	log.Info("starting", "role", nodeInfo.Role, "node_id", nodeInfo.ID, "partitions", nodeInfo.Partitions)

	reg := obs.NewRegistry()
	ing, rec, err := telemetry.Open(telemetry.Config{
		Shards:      *shards,
		QueueLen:    *queue,
		Window:      *window,
		Compression: *compression,
		MaxWindows:  *retain,
		Metrics:     reg,
		Node:        nodeInfo,
		// Default to backpressure (a full queue slows the HTTP client) so
		// the dropped counters in /healthz only ever mean real, chosen
		// loss; -drop opts into load shedding instead.
		Block: !*drop,
		WAL: telemetry.WALConfig{
			Dir:           *dataDir,
			SyncEvery:     *syncEvery,
			SnapshotEvery: *snapEvery,
		},
	})
	if err != nil {
		log.Error("recovery failed", "dir", *dataDir, "err", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		log.Info("recovered",
			"dir", *dataDir,
			"snapshots", rec.Snapshots,
			"segments", rec.SegmentsScanned,
			"records_replayed", rec.RecordsReplayed,
			"records_skipped", rec.RecordsSkipped,
			"torn_tails", rec.TornTails,
			"windows", rec.Windows,
			"duration_ms", rec.DurationMs)
	}
	h := serve.NewNode(serve.NodeConfig{Ing: ing, Metrics: reg, ID: nodeInfo.ID, Pprof: *pprofOn, Log: log})

	if *replay {
		st := replayCampaign(log, *scn, *seed, ing.Offer,
			"replay shed events", "use a larger -queue or omit -drop for lossless replay")
		ing.Flush()
		log.Info("replay done", "events", st.Events, "accepted", st.Accepted, "dropped", st.Dropped)
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting HTTP, drain the
	// shard queues, fsync every WAL and write final snapshots (Close), then
	// exit 0 — so a deliberate restart recovers instantly from the snapshot
	// with zero replay and zero loss.
	if err := serveUntilSignal(*addr, h, log,
		"addr", *addr, "role", nodeInfo.Role, "shards", *shards, "window", window.String(), "pprof", *pprofOn); err != nil {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	if err := ing.Close(); err != nil {
		log.Error("close failed", "err", err)
		os.Exit(1)
	}
	t := ing.TotalStats()
	log.Info("clean shutdown", "accepted", t.Accepted, "processed", t.Processed,
		"dropped", t.Dropped, "windows", t.Windows)
}

// replayCampaign resolves -scenario/-seed and streams the deterministic
// crowd campaign through send — the one replay sequence every role runs, so a
// clustered replay feeds the nodes exactly the stream a single process folds.
// Latency streams event-at-a-time through the crowd.StreamLatency emission
// hook (a thin sink over the one crowd.Observe walk); the rng fork mirrors
// Suite.LatencyObs, so the streamed observations are the batch substrate's,
// element for element, for any scenario. Throughput has no streaming hook
// yet and goes batch. dropMsg and dropHint word the warning for envelopes
// send refused; the caller owns its transport's flush.
func replayCampaign(log *slog.Logger, scenarioArg string, seed uint64, send func(telemetry.Envelope) bool,
	dropMsg, dropHint string, startAttrs ...any) telemetry.ReplayStats {
	suite, err := core.SuiteFromFlags(flag.CommandLine, scenarioArg, "seed", seed)
	if err != nil {
		log.Error("replay setup failed", "err", err)
		os.Exit(2)
	}
	log.Info("replay starting", append([]any{"scenario", suite.Name(), "seed", suite.Seed}, startAttrs...)...)
	st := telemetry.ReplayCampaignLatencyFunc(send, suite.Campaign(),
		rng.New(suite.Seed).Fork("latency"))
	thr := telemetry.ReplayFunc(send, telemetry.ThroughputEvents(suite.ThroughputObs()))
	st.Events += thr.Events
	st.Accepted += thr.Accepted
	st.Dropped += thr.Dropped
	if st.Dropped > 0 {
		log.Warn(dropMsg, "dropped", st.Dropped, "hint", dropHint)
	}
	return st
}

// serveUntilSignal runs an HTTP server until SIGINT/SIGTERM (graceful drain, nil
// return) or a listen failure (returned).
func serveUntilSignal(addr string, h http.Handler, log *slog.Logger, fields ...any) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", fields...)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Info("shutdown signal", "action", "draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Error("http shutdown failed", "err", err)
		}
	}
	return nil
}

// parsePeers splits "id=url,id=url" into the ordered id list and the
// id→url map. Order is placement-significant: every daemon must receive
// the identical list. Malformed lists are rejected outright, naming the
// offending peer — a silently deduped or skipped entry would hand two
// daemons different placement arithmetic.
func parsePeers(s string) ([]string, map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil, fmt.Errorf("empty -peers (want id=url,id=url,...)")
	}
	var ids []string
	urls := map[string]string{}
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, nil, fmt.Errorf("empty peer entry at position %d", i)
		}
		id, url, found := strings.Cut(part, "=")
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, nil, fmt.Errorf("peer %q has no id", part)
		}
		if _, dup := urls[id]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %q", id)
		}
		if !found {
			url = "" // node role only needs the ids; the frontend checks urls itself
		}
		ids = append(ids, id)
		urls[id] = strings.TrimSpace(url)
	}
	return ids, urls, nil
}

// newLogger builds the daemon's structured logger: text (human) or json
// (machine), both to stderr with stable event names and keys.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
}
