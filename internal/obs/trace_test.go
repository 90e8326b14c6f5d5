package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fakeClock is the explicit deterministic clock: each call advances 1µs.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

func buildTrace(t *Tracer) {
	root := t.Begin("runall", 0)
	a := t.Begin("substrate/campaign", root)
	t.SetWorker(a, 1)
	t.Annotate(a, "kind", "substrate")
	t.End(a)
	b := t.Begin("table1", root)
	t.SetWorker(b, 2)
	t.Annotate(b, "kind", "artifact")
	t.End(b)
	t.End(root)
}

func TestTracerRecordsSpanTree(t *testing.T) {
	tr := NewTracer(fakeClock())
	buildTrace(tr)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	root, a, b := spans[0], spans[1], spans[2]
	if root.Name != "runall" || root.Parent != 0 {
		t.Fatalf("bad root: %+v", root)
	}
	if a.Parent != 1 || b.Parent != 1 {
		t.Fatalf("children must point at root: %+v %+v", a, b)
	}
	if a.Worker != 1 || b.Worker != 2 {
		t.Fatalf("worker attribution lost: %+v %+v", a, b)
	}
	if a.EndNS <= a.StartNS || root.EndNS <= b.EndNS {
		t.Fatalf("clock ordering violated: %+v %+v", a, root)
	}
	if len(a.Attrs) != 1 || a.Attrs[0] != (Attr{"kind", "substrate"}) {
		t.Fatalf("attrs lost: %+v", a.Attrs)
	}
}

func TestExplicitClockTraceIsDeterministic(t *testing.T) {
	render := func() []byte {
		tr := NewTracer(fakeClock())
		buildTrace(tr)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("explicit-clock traces differ:\n%s\n%s", a, b)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(fakeClock())
	buildTrace(tr)
	unfinished := tr.Begin("never-ended", 0)
	_ = unfinished
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var meta, complete int
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			byName[ev.Name] = i
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event %s without non-negative dur", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if meta != 3 { // workers 0, 1, 2
		t.Fatalf("thread_name events = %d, want 3", meta)
	}
	ev := doc.TraceEvents[byName["table1"]]
	if ev.TID != 2 || ev.Args["parent_name"] != "runall" || ev.Args["kind"] != "artifact" {
		t.Fatalf("table1 event lost attribution: %+v", ev)
	}
	if nv := doc.TraceEvents[byName["never-ended"]]; *nv.Dur != 0 {
		t.Fatalf("unfinished span must render zero duration, got %v", *nv.Dur)
	}
}

func TestBeginEndAllocationFreeAfterReserve(t *testing.T) {
	tr := NewTracer(fakeClock())
	tr.Reserve(2100)
	if n := testing.AllocsPerRun(1000, func() {
		id := tr.Begin("span", 0)
		tr.End(id)
	}); n != 0 {
		t.Fatalf("Begin/End over reserved capacity allocates %v/op", n)
	}
}
