package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgescope/internal/obs"
	"edgescope/internal/telemetry"
	"edgescope/internal/telemetry/cluster"
)

// probeLog is a node transport that reaches nothing and records the hosts it
// was asked for: the hosts a booting frontend's first health sweep probes
// are the member URLs it resolved.
type probeLog struct {
	mu    sync.Mutex
	hosts []string
}

func (p *probeLog) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	p.mu.Lock()
	p.hosts = append(p.hosts, r.URL.Host)
	p.mu.Unlock()
	return nil, errors.New("unreachable")
}

// boot starts a frontend over dir with a -peers-style boot list, stops its
// prober once the boot sweep has run, and returns it with the hosts that
// sweep probed, sorted.
func boot(t *testing.T, dir string, peers []string, urls map[string]string) (*Frontend, []string, error) {
	t.Helper()
	probes := &probeLog{}
	f, err := NewFrontend(FrontendConfig{
		Peers: peers, URLs: urls, Partitions: 8, DataDir: dir, ProbeEvery: time.Hour,
		Client: &http.Client{Timeout: time.Second, Transport: probes},
		Log:    slog.New(slog.DiscardHandler),
	})
	if err != nil {
		return nil, nil, err
	}
	f.Close()
	probes.mu.Lock()
	defer probes.mu.Unlock()
	sort.Strings(probes.hosts)
	return f, probes.hosts, nil
}

// persisted writes a cluster-state.json holding the epoch-2 table that
// admitted the last of nodes, with urls, and returns its directory.
func persisted(t *testing.T, nodes []string, urls map[string]string) (string, cluster.Assignment) {
	t.Helper()
	pm, err := cluster.NewMap(cluster.MapConfig{Partitions: 8, Nodes: nodes[:len(nodes)-1]})
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.Rebalance(pm.Current(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveClusterState(dir, ClusterState{Assignment: a, URLs: urls}); err != nil {
		t.Fatal(err)
	}
	return dir, a
}

// TestFrontendBootResumesPersistedMembership: a cluster-state.json sets the
// epoch, the members and their placement, whatever the boot list says; with
// none the boot list is epoch 1.
func TestFrontendBootResumesPersistedMembership(t *testing.T) {
	urls := map[string]string{"n0": "http://s0", "n1": "http://s1", "n2": "http://s2", "n9": "http://s9"}
	dir, want := persisted(t, []string{"n0", "n1", "n2"}, urls)
	f, _, err := boot(t, dir, []string{"n9", "n0"}, urls)
	if err != nil {
		t.Fatal(err)
	}
	if f.Map.Epoch() != 2 || !reflect.DeepEqual(f.Map.Nodes(), []string{"n0", "n1", "n2"}) ||
		!reflect.DeepEqual(f.Map.Current(), want) {
		t.Fatalf("resumed epoch %d members %v, table %+v; want the persisted %+v", f.Map.Epoch(), f.Map.Nodes(), f.Map.Current(), want)
	}

	f, _, err = boot(t, t.TempDir(), []string{"n9", "n0"}, urls)
	if err != nil {
		t.Fatal(err)
	}
	if f.Map.Epoch() != 1 || !reflect.DeepEqual(f.Map.Nodes(), []string{"n9", "n0"}) {
		t.Fatalf("fresh boot: epoch %d members %v, want epoch 1 of the boot list", f.Map.Epoch(), f.Map.Nodes())
	}
}

// TestFrontendBootStateURLsWin: a member's URL in the state file beats the
// boot list's; the boot list supplies only the URLs the file lacks.
func TestFrontendBootStateURLsWin(t *testing.T) {
	dir, _ := persisted(t, []string{"n0", "n1", "n2"}, map[string]string{"n0": "http://s0", "n1": "http://s1", "n2": ""})
	_, probed, err := boot(t, dir, []string{"n0", "n2"}, map[string]string{"n0": "http://f0", "n1": "", "n2": "http://f2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"f2", "s0", "s1"}; !reflect.DeepEqual(probed, want) {
		t.Fatalf("boot sweep probed %v, want %v", probed, want)
	}
}

// TestFrontendBootMemberWithoutURL: a member neither the state file nor the
// boot list gives a URL refuses the boot, naming it, as a layout error.
func TestFrontendBootMemberWithoutURL(t *testing.T) {
	dir, _ := persisted(t, []string{"n0", "n1", "n2"}, map[string]string{"n0": "http://s0", "n1": "http://s1"})
	_, _, err := boot(t, dir, []string{"n0"}, map[string]string{"n0": "http://f0"})
	if !errors.Is(err, ErrLayout) || !strings.Contains(err.Error(), `"n2"`) {
		t.Fatalf("resumed member without url: err = %v, want ErrLayout naming n2", err)
	}
	_, _, err = boot(t, t.TempDir(), []string{"n0", "n1"}, map[string]string{"n0": "http://f0"})
	if !errors.Is(err, ErrLayout) || !strings.Contains(err.Error(), `"n1"`) {
		t.Fatalf("boot member without url: err = %v, want ErrLayout naming n1", err)
	}
}

// memNet hands each request to the handler its host names, in process.
type memNet map[string]http.Handler

func (m memNet) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := m[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestFrontendKeysOldNodeIsPartial: a member that answers the frontend's
// /keys leg in JSON — as a node predating the binary inventory does — makes
// the frontend's /keys a 206 naming it in X-Missing-Nodes, whose body is
// exactly the other members' inventory. While it answers in binary the
// answer is complete.
func TestFrontendKeysOldNodeIsPartial(t *testing.T) {
	discard := slog.New(slog.DiscardHandler)
	nodes := memNet{}
	ings := map[string]*telemetry.Ingestor{}
	var oldN2 atomic.Bool
	for _, id := range []string{"n0", "n1", "n2"} {
		ings[id] = telemetry.NewIngestor(telemetry.Config{Shards: 2, QueueLen: 256, Block: true})
		t.Cleanup(func() { ings[id].Close() })
		node := NewNode(NodeConfig{Ing: ings[id], Metrics: obs.NewRegistry(), ID: id, Log: discard})
		nodes[id] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id == "n2" && oldN2.Load() {
				r = r.Clone(r.Context())
				r.Header.Del("Accept") // an old node answers every /keys in JSON
			}
			node.ServeHTTP(w, r)
		})
	}
	f, err := NewFrontend(FrontendConfig{
		Peers: []string{"n0", "n1", "n2"}, URLs: map[string]string{"n0": "http://n0", "n1": "http://n1", "n2": "http://n2"},
		Partitions: 8, ProbeEvery: time.Hour, Client: &http.Client{Timeout: time.Second, Transport: nodes}, Log: discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for i := 0; i < 96; i++ {
		e := telemetry.Envelope{V: telemetry.SchemaVersion, TS: int64(i+1) * 100, Kind: telemetry.KindPing,
			Metric: telemetry.MetricRTT, User: i, Region: fmt.Sprintf("r%02d", i%12), Net: []string{"wifi", "lte"}[i%2], Value: float64(i)}
		ings[f.Map.Owner(f.Map.PartitionOf(e.Key()))].Offer(e)
	}
	var others []telemetry.KeyCount
	for _, id := range []string{"n0", "n1", "n2"} {
		ings[id].Flush()
		if id != "n2" {
			others = append(others, ings[id].Keys()...)
		}
	}
	slices.SortFunc(others, func(a, b telemetry.KeyCount) int { return a.Key.Compare(b.Key) })
	if len(ings["n2"].Keys()) == 0 || len(others) == 0 {
		t.Fatal("fixture: every member must hold keys")
	}

	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/keys", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusOK || rec.Header().Get("X-Missing-Nodes") != "" {
		t.Fatalf("complete /keys: status %d, X-Missing-Nodes %q", rec.Code, rec.Header().Get("X-Missing-Nodes"))
	}
	oldN2.Store(true)
	rec := get()
	if rec.Code != http.StatusPartialContent || rec.Header().Get("X-Missing-Nodes") != "n2" {
		t.Fatalf("/keys beside an old node: status %d, X-Missing-Nodes %q; want 206, n2", rec.Code, rec.Header().Get("X-Missing-Nodes"))
	}
	want, _ := json.MarshalIndent(others, "", "  ")
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Fatalf("partial /keys body:\n%s\nwant the other members' keys:\n%s", got, want)
	}
}
