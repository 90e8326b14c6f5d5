package cluster

import (
	"context"
	"slices"
	"sync"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
)

// NodeClient is the query-side transport to one node. Implementations:
// HTTPNode over the wire, LocalNode for in-process tests and benchmarks —
// either optionally wrapped in a fault injector.
type NodeClient interface {
	// Sketches returns the node's matching rollups folded per key, in wire
	// form (GET /sketches on a cluster node).
	Sketches(ctx context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error)
	// Keys returns the node's key inventory (GET /keys): sorted in
	// Key.Compare order, each key once, as Ingestor.Keys returns it.
	Keys(ctx context.Context) ([]telemetry.KeyCount, error)
}

// LocalNode adapts an in-process Ingestor to NodeClient — the test and
// benchmark transport, with the HTTP hop removed and nothing else changed.
type LocalNode struct {
	Ing *telemetry.Ingestor
}

func (n LocalNode) Sketches(_ context.Context, spec telemetry.QuerySpec) (telemetry.SketchPage, error) {
	return n.Ing.MatchSketches(spec)
}

func (n LocalNode) Keys(context.Context) ([]telemetry.KeyCount, error) {
	return n.Ing.Keys(), nil
}

// FrontendConfig tunes the scatter-gather query tier.
type FrontendConfig struct {
	// Timeout bounds each node's gather leg. Default 2s. A node that
	// cannot answer in time is reported missing, not waited for — partial
	// answers beat hung queries.
	Timeout time.Duration
	// Metrics is the registry the front-end families (cluster_frontend_*)
	// register on. nil gets a private registry nothing scrapes.
	Metrics *obs.Registry
}

func (c *FrontendConfig) fill() {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Result is a cluster query answer. QueryResult is embedded and the
// cluster fields carry omitempty, so a complete answer marshals
// byte-identically to a single-node /query response — the cluster is
// invisible until it has something to disclose.
type Result struct {
	telemetry.QueryResult
	// Partial is set when at least one node could not be gathered, or when
	// a rebalance is moving partitions right now or moved them while the
	// query gathered; the statistics cover only the partitions that
	// answered, at the placement the query started on.
	Partial bool `json:"partial,omitempty"`
	// MissingPartitions lists exactly the partitions absent from this
	// answer: those whose owner failed to answer. Ascending.
	MissingPartitions []int `json:"missing_partitions,omitempty"`
	// MissingNodes lists the nodes that failed to answer, canonical order.
	MissingNodes []string `json:"missing_nodes,omitempty"`
	// MigratingPartitions lists the partitions a live rebalance is moving,
	// and those an activation moved while the query gathered. Their data is
	// answered from the owners of the placement the query started on —
	// never silently wrong, never counted twice — but a racing handoff means
	// the answer may lag the newest writes, so the query is marked Partial
	// and says exactly which partitions.
	MigratingPartitions []int `json:"migrating_partitions,omitempty"`
}

// Frontend is the scatter-gather query tier: it fans a query out to the
// nodes that can answer it — the one owner of its partition when the query
// names a single key (region and net both set), every member otherwise —
// gathers each one's page of per-key folds under per-node timeouts, and
// merges them by key with the very function the single-node query ends in
// (telemetry.MergeSketchPages). Nodes that cannot be reached do not fail
// the query — the answer covers what was gathered and says exactly which
// partitions are missing.
//
// A gather reads the placement once, as it starts, and filters every
// gathered page against that one snapshot: a node's matches count only for
// the partitions it owns there. That is what makes membership elastic
// without lying: staged copies on a joining node are invisible until their
// epoch activates, and stale copies on a losing node are invisible the
// moment it does (whether or not their drop ever lands), so a query never
// double-counts a partition that exists on two nodes — not even when an
// activation lands between two of its legs, which the answer then
// discloses as migrating.
type Frontend struct {
	pm  *PartitionMap
	cfg FrontendConfig

	mu      sync.RWMutex
	clients map[string]leg

	queries    *obs.Counter
	partials   *obs.Counter
	nodeErrors *obs.CounterVec
	legSeconds *obs.HistogramVec
	pageBytes  *obs.CounterVec
	// mergeSeconds times the gather-side merge.
	mergeSeconds *obs.Histogram
}

// leg is one node's wired transport with its per-node instruments resolved
// once, at wiring time, so a scatter leg touches no label lookup.
type leg struct {
	c NodeClient
	// seconds times every gather leg to this node.
	seconds *obs.Histogram
	// sketches is c's page fetch. Over an *HTTPNode it reads the body into
	// buf, which the page then aliases; any other client ignores buf.
	sketches func(ctx context.Context, spec telemetry.QuerySpec, buf *[]byte) (telemetry.SketchPage, error)
}

// NewFrontend builds the query tier over a partition map and one client
// per node. Every node in the map must have a client; AddClient wires
// nodes that join later.
func NewFrontend(pm *PartitionMap, clients map[string]NodeClient, cfg FrontendConfig) *Frontend {
	cfg.fill()
	f := &Frontend{
		pm: pm, cfg: cfg, clients: make(map[string]leg, len(clients)),
		queries:    cfg.Metrics.Counter("cluster_frontend_queries_total", "scatter-gather queries served"),
		partials:   cfg.Metrics.Counter("cluster_frontend_partial_total", "queries answered with missing partitions"),
		nodeErrors: cfg.Metrics.CounterVec("cluster_frontend_node_errors_total", "gather legs that failed", "node"),
		legSeconds: cfg.Metrics.HistogramVec("cluster_frontend_leg_seconds",
			"scatter leg latency per node: request, node-side per-key fold, page transfer and decode (failed legs included)",
			nil, "node"),
		pageBytes: cfg.Metrics.CounterVec("cluster_frontend_page_bytes_total",
			"sketch-page body bytes received from each node's /sketches", "node"),
		mergeSeconds: cfg.Metrics.Histogram("cluster_frontend_merge_seconds",
			"gather-side merge per query: k-way merge of the pages' per-key folds, sketch absorb and evaluation, after the slowest leg returned (failed merges included)",
			nil),
	}
	for n, c := range clients {
		f.AddClient(n, c)
	}
	return f
}

// AddClient wires (or replaces) the query transport for a node — how a
// joining member becomes queryable without restarting the frontend. The
// node's leg histogram and page fetch are resolved here, and an HTTPNode is
// handed its page-byte counter.
func (f *Frontend) AddClient(node string, c NodeClient) {
	l := leg{c: c, seconds: f.legSeconds.With(node),
		sketches: func(ctx context.Context, spec telemetry.QuerySpec, _ *[]byte) (telemetry.SketchPage, error) {
			return c.Sketches(ctx, spec)
		}}
	if hn, ok := c.(*HTTPNode); ok {
		hn.MeterPageBytes(f.pageBytes.With(node))
		l.sketches = hn.sketchesInto
	}
	f.mu.Lock()
	f.clients[node] = l
	f.mu.Unlock()
}

// RemoveClient unwires a departed node's transport.
func (f *Frontend) RemoveClient(node string) {
	f.mu.Lock()
	delete(f.clients, node)
	f.mu.Unlock()
}

// leg returns the transport wired for a node, if any.
func (f *Frontend) leg(node string) (leg, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	l, ok := f.clients[node]
	return l, ok
}

// gather runs fn against each of nodes concurrently — fn gets the node's
// position and wired leg — each leg under the front-end timeout, and
// reports which nodes failed (in nodes' order). It returns once every leg
// has.
func (f *Frontend) gather(ctx context.Context, nodes []string, fn func(ctx context.Context, i int, l leg) error) (missing []string) {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		l, ok := f.leg(n)
		if !ok {
			errs[i] = context.Canceled // no client wired: the node is unreachable by construction
			continue
		}
		wg.Add(1)
		go func(i int, l leg) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
			defer cancel()
			began := time.Now()
			errs[i] = fn(legCtx, i, l)
			l.seconds.ObserveDuration(time.Since(began))
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			missing = append(missing, nodes[i])
			f.nodeErrors.With(nodes[i]).Inc()
		}
	}
	return missing
}

// missingPartitions resolves unreachable nodes to the partitions absent
// from the answer: those whose owner in the gather's placement failed to
// answer. Ascending.
func missingPartitions(snap Assignment, missing []string) []int {
	var out []int
	for p, owner := range snap.Owners {
		if slices.Contains(missing, owner) {
			out = append(out, p)
		}
	}
	return out
}

// owns reports whether node owns key k's partition in the gather's
// placement.
func owns(snap Assignment, node string, k telemetry.Key) bool {
	return snap.Owners[k.ShardOf(snap.Partitions)] == node
}

// filterPage drops the matches node does not own in the gather's
// placement, in place.
func filterPage(snap Assignment, node string, page telemetry.SketchPage) telemetry.SketchPage {
	kept := page.Matches[:0]
	for _, m := range page.Matches {
		if owns(snap, node, telemetry.Key{Metric: page.Metric, Region: m.Region, Net: m.Net}) {
			kept = append(kept, m)
		}
	}
	page.Matches = kept
	return page
}

// finalize stamps the cluster disclosure fields onto a result: the nodes
// that failed and the partitions they own in the gather's placement, and
// the partitions moved (a migration in flight, or an activation since the
// gather began).
func (f *Frontend) finalize(out *Result, snap Assignment, missing []string, moved []int) {
	out.MigratingPartitions = moved
	if len(missing) > 0 {
		out.Partial = true
		out.MissingNodes = missing
		out.MissingPartitions = missingPartitions(snap, missing)
	}
	if len(out.MigratingPartitions) > 0 {
		out.Partial = true
	}
	if out.Partial {
		f.partials.Inc()
	}
}

// Query scatter-gathers one query. The error return covers spec problems
// and merge-level config mismatches only; unreachable nodes and live
// rebalances surface in the Result's partial fields instead.
//
// A spec naming one key (region and net both set) is asked of that key's
// partition owner alone: no other node holds a match it would keep. Page
// bodies are read into pooled wire buffers, released once the merge — the
// last reader of the sketches the pages alias — has returned.
func (f *Frontend) Query(ctx context.Context, spec telemetry.QuerySpec) (Result, error) {
	f.queries.Inc()
	if err := telemetry.ValidateQuerySpec(spec); err != nil {
		return Result{}, err
	}
	snap := f.pm.Current()
	nodes := snap.Nodes
	if spec.Region != "" && spec.Net != "" {
		k := telemetry.Key{Metric: spec.Metric, Region: spec.Region, Net: spec.Net}
		nodes = []string{snap.Owners[k.ShardOf(snap.Partitions)]}
	}
	pages := make([]telemetry.SketchPage, len(nodes))
	bufs := make([]*[]byte, len(nodes))
	gathered := make([]bool, len(nodes))
	missing := f.gather(ctx, nodes, func(ctx context.Context, i int, l leg) error {
		bufs[i] = telemetry.TakeWireBuffer()
		page, err := l.sketches(ctx, spec, bufs[i])
		if err != nil {
			return err
		}
		pages[i], gathered[i] = filterPage(snap, nodes[i], page), true
		return nil
	})
	moved := f.pm.MovedSince(snap)
	// Keep only answered pages, in canonical node order — so the merge
	// input (and therefore the answer bytes) never depends on goroutine
	// finish order.
	kept := pages[:0]
	for i, ok := range gathered {
		if ok {
			kept = append(kept, pages[i])
		}
	}
	began := time.Now()
	res, err := telemetry.MergeSketchPages(spec, kept)
	f.mergeSeconds.ObserveDuration(time.Since(began))
	for _, b := range bufs {
		if b != nil {
			telemetry.ReleaseWireBuffer(b)
		}
	}
	if err != nil {
		return Result{}, err
	}
	out := Result{QueryResult: res}
	f.finalize(&out, snap, missing, moved)
	return out, nil
}

// Keys scatter-gathers the cluster's key inventory: per-key counts summed
// across nodes — each node contributing only the keys of partitions it is
// assigned — sorted exactly like Ingestor.Keys. Every node's run is already
// sorted and unique (the NodeClient contract), so the runs are merged, not
// re-sorted. Like Query, it filters every node's run against the one
// placement it started on. The second return lists nodes that failed to
// answer (empty means the inventory is complete).
func (f *Frontend) Keys(ctx context.Context) ([]telemetry.KeyCount, []string) {
	snap := f.pm.Current()
	perNode := make([][]telemetry.KeyCount, len(snap.Nodes))
	missing := f.gather(ctx, snap.Nodes, func(ctx context.Context, i int, l leg) error {
		keys, err := l.c.Keys(ctx)
		if err != nil {
			return err
		}
		kept := keys[:0]
		for _, kc := range keys {
			if owns(snap, snap.Nodes[i], kc.Key) {
				kept = append(kept, kc)
			}
		}
		perNode[i] = kept
		return nil
	})
	return mergeKeyRuns(perNode), missing
}

// mergeKeyRuns merges sorted, unique key runs into one sorted inventory,
// summing a key's counts in run order wherever several runs hold it. It
// consumes runs: each is re-sliced past the keys it has given.
func mergeKeyRuns(runs [][]telemetry.KeyCount) []telemetry.KeyCount {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]telemetry.KeyCount, 0, n)
	for {
		var least *telemetry.Key
		for _, r := range runs {
			if len(r) > 0 && (least == nil || r[0].Key.Compare(*least) < 0) {
				least = &r[0].Key
			}
		}
		if least == nil {
			return out
		}
		kc := telemetry.KeyCount{Key: *least}
		for i, r := range runs {
			if len(r) > 0 && r[0].Key == kc.Key {
				kc.Count += r[0].Count
				runs[i] = r[1:]
			}
		}
		out = append(out, kc)
	}
}
