package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"edgescope/internal/scenario"
	"edgescope/internal/telemetry"
)

// TestExtTelemetryDeterministic renders the streaming-vs-batch artifact
// twice through the parallel engine and requires byte-identical output: the
// replay pipeline (fixed shard count, single ordered producer) must be as
// deterministic as every other artifact.
func TestExtTelemetryDeterministic(t *testing.T) {
	render := func(parallelism int) []byte {
		results, err := newSmall(t, 4).RunArtifacts(context.Background(),
			parallelism, []string{"ext-telemetry"}, true)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range results {
			if r.Artifact == nil {
				continue
			}
			if err := r.Artifact.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b := render(1), render(8)
	if !bytes.Equal(a, b) {
		t.Fatalf("ext-telemetry differs across runs/parallelism:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	out := string(a)
	for _, col := range []string{"stream-p95", "batch-p99", "max-rank-err", "all-access", "WiFi"} {
		if !strings.Contains(out, col) {
			t.Fatalf("artifact missing %q:\n%s", col, out)
		}
	}
}

// TestLatencyEventsGolden pins the latency envelope stream absolutely: the
// SHA-256 of the JSONL encoding of LatencyEvents over the scenario's latency
// store. It is the exact stream `telemetryd -replay` sends before the
// throughput envelopes, so any change to the campaign walk, the store or the
// envelope mapping that moves a byte fails here.
func TestLatencyEventsGolden(t *testing.T) {
	for _, tc := range []struct{ scenario, sha string }{
		{"small", "d24f09c26bb99c0d6e5915e32af32aaba5c53a5274799971da45d02427c815b7"},
		{"paper", "8a3be24b15a8a204274644ade5c60755e02f2cd55c563bb1de5450f8800391e2"},
	} {
		sp, err := scenario.Resolve(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSuiteFromSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, e := range telemetry.LatencyEvents(s.LatencyStore()) {
			if buf, err = telemetry.AppendJSONL(buf, e); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: latency envelope stream SHA-256 = %s, want %s", tc.scenario, got, tc.sha)
		}
	}
}
