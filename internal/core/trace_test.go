package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"edgescope/internal/obs"
)

// TestRunAllTraceCoversEveryNode: a traced RunArtifacts run records one span
// per scheduled node — every artifact and every substrate — under a single
// root, each attributed to a worker, and the trace serializes to valid
// Chrome trace JSON.
func TestRunAllTraceCoversEveryNode(t *testing.T) {
	s := newSmall(t, 1)
	tr := obs.NewTracer(nil)
	s.SetTracer(tr)
	results, err := s.RunArtifacts(context.Background(), 4, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byName := map[string]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["runall"]
	if !ok || root.Parent != 0 {
		t.Fatalf("missing root span: %+v", root)
	}
	for _, r := range results {
		sp, ok := byName[r.ID]
		if !ok {
			t.Errorf("no span for scheduled node %s", r.ID)
			continue
		}
		if sp.Parent == 0 {
			t.Errorf("span %s not parented under the run root", r.ID)
		}
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %s ends before it starts: %+v", r.ID, sp)
		}
		if sp.Worker != r.Worker {
			t.Errorf("span %s worker = %d, result says %d", r.ID, sp.Worker, r.Worker)
		}
	}
	// The campaign substrate propagates the tracer into the observation walk.
	found := false
	for _, sp := range spans {
		if sp.Name == "observe-chunk" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no observe-chunk spans: campaign did not inherit the tracer")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(results) {
		t.Fatalf("trace has %d events for %d scheduled nodes", len(doc.TraceEvents), len(results))
	}
}

// TestTracedRunMatchesUntraced pins the observer-effect contract: attaching
// a tracer must not change a single byte of any artifact.
func TestTracedRunMatchesUntraced(t *testing.T) {
	render := func(traced bool) []byte {
		s := newSmall(t, 1)
		if traced {
			s.SetTracer(obs.NewTracer(nil))
		}
		results, err := s.RunArtifacts(context.Background(), 2, []string{"table1", "fig2a"}, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range results {
			if r.Artifact != nil {
				if err := r.Artifact.Render(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(false), render(true)) {
		t.Fatal("tracing changed artifact output")
	}
}
