package telemetry

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgescope/internal/crowd"
	"edgescope/internal/faultinject"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
)

// builtinScenarios are the six registered experiment scenarios the chaos
// acceptance criterion runs over.
var builtinScenarios = []string{
	"small", "paper", "dense-metro", "rural-sparse", "flash-crowd", "stress",
}

// scenarioEvents materialises a scenario's latency campaign as envelopes —
// the same substrate telemetryd -replay streams.
func scenarioEvents(t *testing.T, sp *scenario.Spec) []Envelope {
	t.Helper()
	r := rng.New(sp.Seed)
	c := crowd.NewCampaign(r.Fork("campaign"), sp.Crowd)
	return LatencyEvents(crowd.NewObservationStore(c, r.Fork("latency")))
}

// chaosRun streams events through a fault injector + retrying client into a
// fresh ingestor and returns the ingestor's fingerprint and fault trace.
func chaosRun(t *testing.T, events []Envelope, fault *faultinject.Spec, seed uint64, shards int) ([]byte, []faultinject.TraceEntry, faultinject.Stats) {
	t.Helper()
	ing := NewIngestor(Config{Shards: shards, QueueLen: 1024, Block: true})
	defer ing.Close()
	inj := faultinject.New[Envelope](fault, seed)
	client := NewRetryClient(func(e Envelope) bool {
		return inj.Offer(e, e.Key().ShardOf(shards), ing.Offer)
	}, rng.New(seed).Fork("client"), RetryConfig{
		Sleep: func(time.Duration) {}, // faults are event-counted; no wall-clock backoff needed
	})
	for i, e := range events {
		if !client.Send(e) {
			t.Fatalf("event %d lost despite retries", i)
		}
	}
	inj.Drain(ing.Offer)
	if lost := inj.Stats().HeldLost; lost != 0 {
		t.Fatalf("%d held-back events refused on redelivery (silent loss)", lost)
	}
	ing.Flush()
	return queryFingerprint(t, ing), inj.Trace(), inj.Stats()
}

// TestChaosEquivalenceAcrossScenarios is the chaos acceptance pin: for each
// built-in scenario, a seeded fault plan injecting >=1% drops, duplicates
// and reorders — survived by the retrying client and the sequence dedup —
// answers every quantile/CDF/count query byte-identically to a clean run,
// and the same seed reproduces the same fault trace.
func TestChaosEquivalenceAcrossScenarios(t *testing.T) {
	for _, name := range builtinScenarios {
		t.Run(name, func(t *testing.T) {
			sp := scenario.MustGet(name)
			events := scenarioEvents(t, sp)
			const shards = 4

			clean := NewIngestor(Config{Shards: shards, QueueLen: 1024, Block: true})
			defer clean.Close()
			if st := Replay(clean, events); st.Dropped != 0 {
				t.Fatalf("clean replay dropped %d", st.Dropped)
			}
			want := queryFingerprint(t, clean)

			fault := &faultinject.Spec{Drop: 0.02, Duplicate: 0.02, Reorder: 0.02}
			got, trace, fst := chaosRun(t, events, fault, sp.Seed, shards)
			if fst.Dropped == 0 || fst.Duplicated == 0 || fst.Reordered == 0 {
				t.Fatalf("fault plan under-injected: %+v", fst)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("chaos run diverged from clean run under %+v\nfaults: %+v", *fault, fst)
			}

			got2, trace2, _ := chaosRun(t, events, fault, sp.Seed, shards)
			if !bytes.Equal(got2, want) {
				t.Fatal("chaos rerun diverged")
			}
			if !reflect.DeepEqual(trace, trace2) {
				t.Fatalf("same seed produced different fault traces: %d vs %d entries",
					len(trace), len(trace2))
			}
		})
	}
}

// TestChaosStallSurvivedByRetry: a stalled shard refuses whole spans of
// offers; stalls half as long as the client's attempt budget are outlasted
// and delivery is still exactly-once.
func TestChaosStallSurvivedByRetry(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	const shards = 4

	clean := NewIngestor(Config{Shards: shards, QueueLen: 1024, Block: true})
	defer clean.Close()
	Replay(clean, events)
	want := queryFingerprint(t, clean)

	fault := &faultinject.Spec{ShardStall: 0.01, StallSpan: maxAttempts / 2}
	got, _, fst := chaosRun(t, events, fault, sp.Seed, shards)
	if fst.Stalled == 0 {
		t.Fatalf("no stalls injected: %+v", fst)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stall chaos diverged from clean run")
	}
}

// TestChaosShortWriteNeverCorruptsRecovery: torn WAL writes degrade
// durability (the shard goes memory-only and Health says so) but never
// poison recovery — a later Open must succeed on whatever reached disk.
func TestChaosShortWriteNeverCorruptsRecovery(t *testing.T) {
	sp := scenario.MustGet("small")
	events := scenarioEvents(t, sp)
	cfg := Config{Shards: 2, QueueLen: 1024, Block: true,
		WAL: WALConfig{Dir: "/data", SyncEvery: 16}}

	// The disk sees one segment write per flush (every SyncEvery records),
	// not per record — the rate is per flushed batch. Each shard directory
	// draws from its own fork, so the cuts do not depend on how the shard
	// workers interleave.
	disk := newMemFS()
	src, cuts := map[string]*rng.Source{}, 0
	disk.faultWrite = func(path string, b []byte) (int, error) {
		dir := filepath.Dir(path)
		if src[dir] == nil {
			src[dir] = rng.New(sp.Seed).Fork("shortwrite-" + dir)
		}
		if !strings.HasSuffix(path, walSuffix) || !src[dir].Bernoulli(0.25) {
			return len(b), nil
		}
		cuts++
		return len(b) / 2, fmt.Errorf("short write (%d of %d bytes)", len(b)/2, len(b))
	}
	ing := mustOpen(t, cfg, disk)
	ing.OfferAll(events)
	ing.Flush()
	disk.mu.Lock()
	injected := cuts
	disk.mu.Unlock()
	if injected == 0 {
		t.Fatal("no short writes injected")
	}
	if h := ing.Health(); h.Status != "degraded" {
		t.Fatalf("health = %s after WAL short write, want degraded", h.Status)
	}
	// Live answers are unaffected: ingest carried on memory-only.
	clean := NewIngestor(Config{Shards: 2, QueueLen: 1024, Block: true})
	defer clean.Close()
	Replay(clean, events)
	if got, want := queryFingerprint(t, ing), queryFingerprint(t, clean); !bytes.Equal(got, want) {
		t.Fatal("degraded ingest lost live data")
	}
	ing.Crash()

	// Recovery over the torn logs: a valid (possibly partial) state, never
	// a corruption error or panic.
	disk.mu.Lock()
	disk.faultWrite = nil
	disk.mu.Unlock()
	rec2, _, err := open(cfg, disk)
	if err != nil {
		t.Fatalf("recovery after short-write chaos: %v", err)
	}
	defer rec2.Close()
	if got := rec2.TotalStats().Processed; got > uint64(len(events)) {
		t.Fatalf("recovered %d events from a %d-event stream", got, len(events))
	}
}
