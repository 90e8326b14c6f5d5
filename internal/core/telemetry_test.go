package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
