package cluster

import (
	"testing"
	"time"

	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
)

// clusterEnv builds a valid envelope for the given key dimensions.
func clusterEnv(metric, region, net string, v float64) telemetry.Envelope {
	return telemetry.Envelope{
		V: telemetry.SchemaVersion, TS: 1700000000000, Kind: telemetry.KindPing,
		Metric: metric, User: 1, Region: region, Net: net, Value: v,
	}
}

// keyOwnedBy finds a key whose partition the given node owns — chaos and
// routing tests need traffic pinned to a specific target.
func keyOwnedBy(t *testing.T, m *PartitionMap, node string) telemetry.Envelope {
	t.Helper()
	regions := []string{"Beijing", "Shanghai", "Shenzhen", "Chengdu", "Wuhan", "Xian", "Tianjin", "Nanjing"}
	nets := []string{"WiFi", "5G", "4G", "Ethernet"}
	for _, r := range regions {
		for _, n := range nets {
			e := clusterEnv("rtt_ms", r, n, 10)
			if m.Owner(m.PartitionOf(e.Key())) == node {
				return e
			}
		}
	}
	t.Fatalf("no sample key owned by %s", node)
	return telemetry.Envelope{}
}

// routerHarness wires a Router over a recording in-memory transport and a
// scripted health tracker.
type routerHarness struct {
	deliveries map[string][]telemetry.Envelope
	refuse     map[string]int // refuse the next N sends to a node
	prober     *scriptedProber
	health     *HealthTracker
	router     *Router
}

func newRouterHarness(t *testing.T, cfg MapConfig) *routerHarness {
	t.Helper()
	m := mustMap(t, cfg)
	h := &routerHarness{deliveries: map[string][]telemetry.Envelope{}, refuse: map[string]int{}}
	h.prober = &scriptedProber{res: map[string]ProbeResult{}}
	for _, n := range cfg.Nodes {
		h.prober.res[n] = ProbeResult{Reachable: true}
	}
	h.health = NewHealthTracker(cfg.Nodes, h.prober.probe, HealthConfig{})
	transport := func(node string, e telemetry.Envelope) bool {
		if h.refuse[node] > 0 {
			h.refuse[node]--
			return false
		}
		h.deliveries[node] = append(h.deliveries[node], e)
		return true
	}
	h.router = NewRouter(m, h.health, transport, rng.New(7), RouterConfig{
		Retry: telemetry.RetryConfig{Sleep: func(time.Duration) {}},
	})
	return h
}

// markDown drives the tracker until a node is Down.
func (h *routerHarness) markDown(node string) {
	h.prober.res[node] = ProbeResult{}
	for i := 0; i < 3; i++ {
		h.health.ProbeOnce()
	}
}

func TestRouterSendsToOwner(t *testing.T) {
	cfg := MapConfig{Partitions: 8, Nodes: []string{"n0", "n1"}}
	h := newRouterHarness(t, cfg)
	m := h.router.pm
	e := keyOwnedBy(t, m, "n1")
	if !h.router.Send(e) {
		t.Fatal("send failed")
	}
	if len(h.deliveries["n1"]) != 1 || len(h.deliveries["n0"]) != 0 {
		t.Fatalf("deliveries: n0=%d n1=%d", len(h.deliveries["n0"]), len(h.deliveries["n1"]))
	}
	st := h.router.Stats()
	if st.Routed != 1 || st.Unroutable != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := h.deliveries["n1"][0].Seq; got != 1 {
		t.Fatalf("routed envelope seq = %d, want 1 (retry client numbering)", got)
	}
}

// TestRouterTransientFailureRetriesOwner: a failed send against an
// up-marked owner is retried against the owner and lands nowhere else.
func TestRouterTransientFailureRetriesOwner(t *testing.T) {
	cfg := MapConfig{Partitions: 8, Nodes: []string{"n0", "n1"}}
	h := newRouterHarness(t, cfg)
	e := keyOwnedBy(t, h.router.pm, "n0")
	h.refuse["n0"] = 2
	if !h.router.Send(e) {
		t.Fatal("send failed despite owner recovering")
	}
	if len(h.deliveries["n1"]) != 0 {
		t.Fatal("transient owner failure leaked to another node")
	}
	st := h.router.Stats()
	if st.Routed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Client.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Client.Retries)
	}
}

// TestRouterUnroutableWithoutReplica: a down owner = bounded retries, then
// a clean failure the caller can collect and resend after recovery.
func TestRouterUnroutableWithoutReplica(t *testing.T) {
	cfg := MapConfig{Partitions: 8, Nodes: []string{"n0", "n1"}}
	h := newRouterHarness(t, cfg)
	e := keyOwnedBy(t, h.router.pm, "n0")
	h.markDown("n0")
	if h.router.Send(e) {
		t.Fatal("send succeeded with the owner down")
	}
	if len(h.deliveries["n0"])+len(h.deliveries["n1"]) != 0 {
		t.Fatal("unroutable envelope delivered somewhere")
	}
	st := h.router.Stats()
	if st.Unroutable != 8 { // one per attempt of the retry client's 8
		t.Fatalf("unroutable = %d, want 8", st.Unroutable)
	}
	if st.Client.Failed != 1 {
		t.Fatalf("client stats = %+v", st.Client)
	}

	// After recovery the same stream resumes and the resend lands.
	h.prober.res["n0"] = ProbeResult{Reachable: true}
	h.health.ProbeOnce()
	h.health.ProbeOnce()
	if !h.router.Send(e) {
		t.Fatal("resend after recovery failed")
	}
	if len(h.deliveries["n0"]) != 1 {
		t.Fatalf("owner got %d deliveries after recovery", len(h.deliveries["n0"]))
	}
}
