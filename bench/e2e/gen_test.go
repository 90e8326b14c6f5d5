package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"edgescope/internal/telemetry"
)

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a := newWorld(7).events("live/x/0", 2000)
	w := newWorld(7)
	w.events("some/other/stream", 10) // drawing one stream must not shift another
	b := w.events("live/x/0", 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream gave different events")
	}
	if reflect.DeepEqual(a, newWorld(8).events("live/x/0", 2000)) {
		t.Fatal("seeds 7 and 8 gave the same events")
	}
	if reflect.DeepEqual(a, newWorld(7).events("live/x/1", 2000)) {
		t.Fatal("two streams of one seed gave the same events")
	}
}

func TestKeySpaceIsPinned(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		w := newWorld(seed)
		keys := map[telemetry.Key]bool{}
		streams := map[[2]any]bool{}
		perMetric := map[string]int{}
		const n = 200_000
		for _, e := range w.events("cardinality", n) {
			if e.Region != w.users[e.User].region || e.Net != w.users[e.User].net {
				t.Fatalf("seed %d: user %d left home", seed, e.User)
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d: invalid event: %v", seed, err)
			}
			keys[e.Key()] = true
			streams[[2]any{e.Key(), e.User}] = true
			perMetric[e.Metric]++
		}
		if len(keys) != nRegions*nNets*nMetrics {
			t.Errorf("seed %d: %d rollup keys, want %d", seed, len(keys), nRegions*nNets*nMetrics)
		}
		if len(streams) != nUsers*nMetrics {
			t.Errorf("seed %d: %d (key, user) streams, want %d", seed, len(streams), nUsers*nMetrics)
		}
		for i, want := range []float64{0.5, 0.25, 0.25} {
			if got := float64(perMetric[metricNames[i]]) / n; math.Abs(got-want) > 0.01 {
				t.Errorf("seed %d: %s is %.3f of the events, want %.2f", seed, metricNames[i], got, want)
			}
		}
	}
}

func TestStampRoundTripsThroughDecodeLine(t *testing.T) {
	events := newWorld(3).events("stamp", 50)
	b, err := encodeBatch(events)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, ms := range []int64{1_790_000_000_123, 1_790_000_999_000} {
		buf = b.stamp(buf, ms)
		if len(buf) != len(b.body) {
			t.Fatalf("stamping changed the body length: %d → %d", len(b.body), len(buf))
		}
		lines := bytes.Split(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n"))
		if len(lines) != len(events) {
			t.Fatalf("%d lines for %d events", len(lines), len(events))
		}
		want := b.stamped(ms)
		for i, line := range lines {
			got, err := telemetry.DecodeLine(line)
			if err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			if got != want[i] {
				t.Fatalf("line %d decoded to %+v, want %+v", i, got, want[i])
			}
		}
	}
	if bytes.Equal(buf, b.body) {
		t.Fatal("stamp left the placeholder in place")
	}
	var sum int
	for _, n := range b.perMetric {
		sum += n
	}
	if sum != len(events) {
		t.Fatalf("perMetric counts %d events of %d", sum, len(events))
	}
}

func TestSplitByOwnerKeepsOrderAndLosesNothing(t *testing.T) {
	events := newWorld(5).events("split", 500)
	b, err := encodeBatch(events)
	if err != nil {
		t.Fatal(err)
	}
	ownerOf := func(k telemetry.Key) string { return nodeIDs[k.ShardOf(len(nodeIDs))] }
	split, err := splitByOwner(b, nodeIDs, ownerOf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for node, nb := range split {
		total += len(nb.events)
		if len(nb.tsOff) != len(nb.events) {
			t.Fatalf("%s: %d ts offsets for %d events", node, len(nb.tsOff), len(nb.events))
		}
		// The node's events must be the original sequence filtered by owner.
		i := 0
		for _, e := range events {
			if ownerOf(e.Key()) != node {
				continue
			}
			if nb.events[i] != e {
				t.Fatalf("%s: event %d out of order", node, i)
			}
			i++
		}
		if i != len(nb.events) {
			t.Fatalf("%s: holds %d events, owns %d", node, len(nb.events), i)
		}
	}
	if total != len(events) {
		t.Fatalf("split holds %d of %d events", total, len(events))
	}
}

func TestPreloadTimesAscendAndEndBeforeBoot(t *testing.T) {
	t0 := time.Unix(1_790_000_000, 0)
	const n = 240
	prev := int64(0)
	for j := 0; j < n; j++ {
		ts := preloadTS(t0, j, n)
		if ts < prev {
			t.Fatalf("batch %d stamped %d, before batch %d at %d", j, ts, j-1, prev)
		}
		prev = ts
	}
	if first := preloadTS(t0, 0, n); first != t0.Add(-preloadSpan).UnixMilli() {
		t.Errorf("first batch at %d, want %d", first, t0.Add(-preloadSpan).UnixMilli())
	}
	if prev >= t0.UnixMilli() {
		t.Errorf("last batch at %d is not before boot at %d", prev, t0.UnixMilli())
	}
}

func TestQuerySpecsEndAtBoot(t *testing.T) {
	in := &servingInputs{narrow: []userDims{{"r01", "lte"}, {"r02", "5g"}}}
	t0 := time.Unix(1_790_000_000, 0)
	qs := querySpecs(in, t0)
	if len(qs) != 3 || qs[0].class != classWide || qs[1].class != classNarrow {
		t.Fatalf("got %d specs, want wide + 2 narrow", len(qs))
	}
	for _, q := range qs {
		if !q.spec.To.Equal(t0) {
			t.Errorf("%s ends at %v, want boot time %v", q.path, q.spec.To, t0)
		}
	}
	if got := qs[0].spec.To.Sub(qs[0].spec.From); got != preloadSpan {
		t.Errorf("wide spans %v, want %v", got, preloadSpan)
	}
	if got := qs[1].spec.To.Sub(qs[1].spec.From); got != narrowSpan {
		t.Errorf("narrow spans %v, want %v", got, narrowSpan)
	}
	want := "/query?cdf=10%2C50%2C100&from=2026-09-21T14%3A13%3A05Z&metric=rtt_ms&net=lte&q=0.5%2C0.95%2C0.99&region=r01&to=2026-09-21T14%3A13%3A20Z"
	if qs[1].path != want {
		t.Errorf("narrow path\n got %s\nwant %s", qs[1].path, want)
	}
}
