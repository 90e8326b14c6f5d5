package cluster

import (
	"context"
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
	// a rebalance is moving partitions right now; the statistics cover only
	// the partitions that answered, at the current epoch's placement.
	Partial bool `json:"partial,omitempty"`
	// MissingPartitions lists exactly the partitions absent from this
	// answer: those whose owner failed to answer. Ascending.
	MissingPartitions []int `json:"missing_partitions,omitempty"`
	// MissingNodes lists the nodes that failed to answer, canonical order.
	MissingNodes []string `json:"missing_nodes,omitempty"`
	// MigratingPartitions lists the partitions a live rebalance is moving.
	// Their data is answered from the current epoch's owners — never
	// silently wrong — but a racing handoff means the answer may lag the
	// newest writes, so the query is marked Partial and says exactly which
	// partitions.
	MigratingPartitions []int `json:"migrating_partitions,omitempty"`
}

// Frontend is the scatter-gather query tier: it fans a query out to every
// node, gathers each one's page of per-key folds under per-node timeouts,
// and merges them by key with the very function the single-node query ends
// in (telemetry.MergeSketchPages). Nodes that cannot be
// reached do not fail the query — the answer covers what was gathered and
// says exactly which partitions are missing.
//
// Gathered pages are filtered by the current epoch's assignment: a node's
// matches count only for the partitions it owns. That is what makes
// membership elastic without lying: staged copies on a joining node are
// invisible until their epoch activates, and stale copies on a losing node
// are invisible the moment it does (whether or not their drop ever lands),
// so a query never double-counts a partition that exists on two nodes.
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
// node's leg histogram is resolved here and an HTTPNode is handed its
// page-byte counter.
func (f *Frontend) AddClient(node string, c NodeClient) {
	l := leg{c: c, seconds: f.legSeconds.With(node)}
	if hn, ok := c.(*HTTPNode); ok {
		hn.MeterPageBytes(f.pageBytes.With(node))
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

// gather runs fn against every current member concurrently, each leg under
// the front-end timeout, and reports which nodes failed (canonical order).
// The member list is the current epoch's — nodes that joined or left take
// effect the moment their epoch activates.
func (f *Frontend) gather(ctx context.Context, nodes []string, fn func(ctx context.Context, node string, c NodeClient) error) (missing []string) {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		l, ok := f.leg(n)
		if !ok {
			errs[i] = context.Canceled // no client wired: the node is unreachable by construction
			continue
		}
		wg.Add(1)
		go func(i int, n string, l leg) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
			defer cancel()
			began := time.Now()
			errs[i] = fn(legCtx, n, l.c)
			l.seconds.ObserveDuration(time.Since(began))
		}(i, n, l)
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
// from the answer: those whose owner failed to answer. Ascending.
func (f *Frontend) missingPartitions(missing []string) []int {
	if len(missing) == 0 {
		return nil
	}
	down := make(map[string]bool, len(missing))
	for _, n := range missing {
		down[n] = true
	}
	var out []int
	for p := 0; p < f.pm.Partitions(); p++ {
		if down[f.pm.Owner(p)] {
			out = append(out, p)
		}
	}
	return out
}

// filterPage drops the matches a node is not assigned, in place.
func (f *Frontend) filterPage(node string, page telemetry.SketchPage, parts int) telemetry.SketchPage {
	kept := page.Matches[:0]
	for _, m := range page.Matches {
		k := telemetry.Key{Metric: page.Metric, Region: m.Region, Net: m.Net}
		if f.pm.Assigned(node, k.ShardOf(parts)) {
			kept = append(kept, m)
		}
	}
	page.Matches = kept
	return page
}

// finalize stamps the cluster disclosure fields onto a result.
func (f *Frontend) finalize(out *Result, missing []string) {
	out.MigratingPartitions = f.pm.Migrating()
	if len(missing) > 0 {
		out.Partial = true
		out.MissingNodes = missing
		out.MissingPartitions = f.missingPartitions(missing)
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
func (f *Frontend) Query(ctx context.Context, spec telemetry.QuerySpec) (Result, error) {
	f.queries.Inc()
	if err := telemetry.ValidateQuerySpec(spec); err != nil {
		return Result{}, err
	}
	nodes := f.pm.Nodes()
	parts := f.pm.Partitions()
	pages := make([]telemetry.SketchPage, len(nodes))
	gathered := make([]bool, len(nodes))
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	missing := f.gather(ctx, nodes, func(ctx context.Context, node string, c NodeClient) error {
		page, err := c.Sketches(ctx, spec)
		if err != nil {
			return err
		}
		i := idx[node]
		pages[i], gathered[i] = f.filterPage(node, page, parts), true
		return nil
	})
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
	if err != nil {
		return Result{}, err
	}
	out := Result{QueryResult: res}
	f.finalize(&out, missing)
	return out, nil
}

// Keys scatter-gathers the cluster's key inventory: per-key counts summed
// across nodes — each node contributing only the keys of partitions it is
// assigned — sorted exactly like Ingestor.Keys. Every node's run is already
// sorted and unique (the NodeClient contract), so the runs are merged, not
// re-sorted. The second return lists nodes that failed to answer (empty
// means the inventory is complete).
func (f *Frontend) Keys(ctx context.Context) ([]telemetry.KeyCount, []string) {
	nodes := f.pm.Nodes()
	parts := f.pm.Partitions()
	perNode := make([][]telemetry.KeyCount, len(nodes))
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	missing := f.gather(ctx, nodes, func(ctx context.Context, node string, c NodeClient) error {
		keys, err := c.Keys(ctx)
		if err != nil {
			return err
		}
		kept := keys[:0]
		for _, kc := range keys {
			if f.pm.Assigned(node, kc.Key.ShardOf(parts)) {
				kept = append(kept, kc)
			}
		}
		perNode[idx[node]] = kept
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
