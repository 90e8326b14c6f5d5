package core

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edgescope/internal/scenario"
)

// render returns the rendered bytes of every artifact in a result set,
// keyed by artifact ID, skipping substrate rows.
func renderAll(t *testing.T, results []ArtifactResult) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, r := range results {
		if r.Artifact == nil {
			continue
		}
		var buf bytes.Buffer
		if err := r.Artifact.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", r.ID, err)
		}
		out[r.ID] = buf.Bytes()
	}
	return out
}

// TestRunAllParallelismInvariance is the engine's headline contract: for a
// fixed seed, every artifact is byte-identical whether built by one worker
// or many. The worker count bounds both levels — the DAG pool and the
// fan-out inside a node — so the stress case runs fig14 alone, where one
// node's per-VM fan-out (60 HW VMs, 4 LSTM VMs) is all the parallelism.
func TestRunAllParallelismInvariance(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		scenario string
		seed     uint64
		only     []string
	}{
		{"small", 3, nil},
		{"stress", 1, []string{"fig14"}},
	} {
		run := func(parallelism int) map[string][]byte {
			sp := scenario.MustGet(tc.scenario)
			sp.Seed = tc.seed
			s, err := NewSuiteFromSpec(sp)
			if err != nil {
				t.Fatal(err)
			}
			results, err := s.RunArtifacts(ctx, parallelism, tc.only, false)
			if err != nil {
				t.Fatal(err)
			}
			return renderAll(t, results)
		}
		sr, pr := run(1), run(8)
		if len(sr) != len(pr) {
			t.Fatalf("%s: artifact counts differ: %d vs %d", tc.scenario, len(sr), len(pr))
		}
		for id, sb := range sr {
			pb, ok := pr[id]
			if !ok {
				t.Fatalf("%s: artifact %s missing from parallel run", tc.scenario, id)
			}
			if !bytes.Equal(sb, pb) {
				t.Fatalf("%s: artifact %s differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", tc.scenario, id, sb, pb)
			}
		}
	}
}

// TestParallelismOneIsSerial: a run at parallelism 1 is one goroutine doing
// one thing at a time — the pool has one worker and every fan-out under it
// (observeUser per user, FitPredict per VM) runs inline on that worker. All
// of the engine's concurrency is goroutines it starts, so the test watches
// the process's goroutine count from outside while the run is in flight; the
// parallelism-4 run shows the watcher does see a fan-out when there is one.
func TestParallelismOneIsSerial(t *testing.T) {
	peakExtra := func(parallelism int) int {
		s := newSmall(t, 1)
		base := runtime.NumGoroutine()
		done := make(chan struct{})
		peak := make(chan int)
		go func() {
			hi := 0
			for {
				select {
				case <-done:
					peak <- hi
					return
				default:
					hi = max(hi, runtime.NumGoroutine())
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
		_, err := s.RunArtifacts(context.Background(), parallelism, []string{"fig2a", "fig5", "fig14"}, false)
		close(done)
		hi := <-peak
		if err != nil {
			t.Fatal(err)
		}
		return hi - base - 1 // the watcher itself
	}
	if extra := peakExtra(1); extra > 1 {
		t.Fatalf("parallelism 1: up to %d goroutines at work, want the pool's one worker", extra)
	}
	if extra := peakExtra(4); extra < 2 {
		t.Fatalf("parallelism 4: the watcher saw %d goroutines at work; it cannot see a fan-out", extra)
	}
}

// TestRunAllMatchesSerialAll pins a pooled RunAll to the serial pass
// (parallelism 1): same artifacts byte for byte, listed in paper order
// whatever order they completed in.
func TestRunAllMatchesSerialAll(t *testing.T) {
	results, err := newSmall(t, 5).RunAll(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, results)
	serial, err := newSmall(t, 5).RunAll(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, serial)
	if len(got) != len(want) {
		t.Fatalf("RunAll built %d artifacts, the serial pass %d", len(got), len(want))
	}
	for id, b := range want {
		if !bytes.Equal(b, got[id]) {
			t.Fatalf("artifact %s differs between the serial pass and RunAll", id)
		}
	}
	// Paper order must be preserved in the result list.
	ids := ArtifactIDs()
	idx := 0
	for _, r := range results {
		if r.Artifact == nil {
			continue
		}
		if r.ID != ids[idx] {
			t.Fatalf("result %d = %s, want %s (paper order)", idx, r.ID, ids[idx])
		}
		idx++
	}
}

func TestRunArtifactsSubset(t *testing.T) {
	results, err := newSmall(t, 1).RunArtifacts(context.Background(), 2, []string{"fig8", "table7"}, false)
	if err != nil {
		t.Fatal(err)
	}
	var subs, arts []string
	for _, r := range results {
		if r.Artifact == nil {
			subs = append(subs, r.ID)
		} else {
			arts = append(arts, r.ID)
		}
	}
	if len(arts) != 2 || arts[0] != "fig8" || arts[1] != "table7" {
		t.Fatalf("artifacts = %v", arts)
	}
	// fig8 needs both traces; table7 needs nothing; the campaign and the
	// observation sets must not have been scheduled.
	for _, s := range subs {
		if s == subCampaign || s == subLatency || s == subThroughput {
			t.Fatalf("unneeded substrate %s scheduled", s)
		}
	}
	if len(subs) != 2 {
		t.Fatalf("substrates = %v, want the two traces", subs)
	}
}

// TestRunArtifactsUnknownID pins the typo UX: an unknown -only ID fails
// fast and the error names every valid ID so the caller can self-correct.
func TestRunArtifactsUnknownID(t *testing.T) {
	_, err := newSmall(t, 1).RunArtifacts(context.Background(), 1, []string{"nope"}, false)
	if err == nil {
		t.Fatal("expected error for unknown artifact ID")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nope"`) {
		t.Errorf("error does not name the bad ID: %v", err)
	}
	for _, id := range ArtifactIDs() {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list valid ID %q: %v", id, err)
		}
	}
}

// TestArtifactIDsCoverRegistry keeps the helper honest against the specs.
func TestArtifactIDsCoverRegistry(t *testing.T) {
	ids := ArtifactIDs()
	if len(ids) != len(specs()) {
		t.Fatalf("ArtifactIDs has %d entries, registry %d", len(ids), len(specs()))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate artifact ID %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"table1", "fig14", "ext-telemetry"} {
		if !seen[want] {
			t.Fatalf("ArtifactIDs missing %q", want)
		}
	}
}

func TestRunAllWithExtensions(t *testing.T) {
	results, err := newSmall(t, 1).RunArtifacts(context.Background(), 8, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range results {
		if r.Artifact != nil {
			n++
		}
	}
	if n != 26 { // 21 paper artifacts + 5 extensions
		t.Fatalf("artifacts = %d, want 26", n)
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newSmall(t, 1).RunAll(ctx, 4); err == nil {
		t.Fatal("expected error from cancelled context")
	}
}

// TestConcurrentSubstrateAccess hammers every lazy accessor from many
// goroutines; run with -race to verify the sync.Once guards. All callers
// must observe the same built substrate.
func TestConcurrentSubstrateAccess(t *testing.T) {
	s := newSmall(t, 2)
	const n = 16
	var wg sync.WaitGroup
	campaigns := make([]any, n)
	neps := make([]any, n)
	clouds := make([]any, n)
	lats := make([]int, n)
	thrs := make([]int, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			campaigns[i] = s.Campaign()
			neps[i] = s.NEPTrace()
			clouds[i] = s.CloudTrace()
			lats[i] = s.LatencyStore().Len()
			thrs[i] = len(s.ThroughputObs())
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if campaigns[i] != campaigns[0] || neps[i] != neps[0] || clouds[i] != clouds[0] {
			t.Fatal("substrate pointers differ across goroutines")
		}
		if lats[i] != lats[0] || thrs[i] != thrs[0] {
			t.Fatal("observation counts differ across goroutines")
		}
	}
	if lats[0] == 0 || thrs[0] == 0 {
		t.Fatal("no observations built")
	}
}
