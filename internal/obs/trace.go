package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span tracer. Spans are explicit-clock records — name, parent, worker
// (track) attribution, start/end, attrs — appended to a flat in-memory
// store. With the default monotonic clock a trace shows real wall time;
// with an explicit clock (a counter in tests) the whole record set is
// deterministic, which is what makes trace-shape assertions exact. The
// store serializes to Chrome trace-event JSON (WriteChromeTrace), viewable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.

// SpanID identifies one span within its tracer: a 1-based index into the
// span store. 0 means "no span" and is a safe parent/operand everywhere.
type SpanID uint32

// Attr is one span annotation.
type Attr struct {
	Key, Val string
}

// Span is one recorded interval. EndNS == 0 marks a span never ended
// (rendered with zero duration).
type Span struct {
	Name    string
	Parent  SpanID
	Worker  int
	StartNS int64
	EndNS   int64
	Attrs   []Attr
}

// Tracer records spans. All methods are safe for concurrent use and are
// no-ops on a nil receiver, so instrumented code calls unconditionally and
// an untraced run pays one branch per call site. Begin/End over reserved
// capacity are allocation-free (pinned by BenchmarkObsSpan).
type Tracer struct {
	mu    sync.Mutex
	clock func() int64
	spans []Span
}

// NewTracer builds a tracer over an explicit clock returning nanoseconds on
// any fixed, monotonic axis. nil uses wall time relative to the tracer's
// creation (monotonic under the hood).
func NewTracer(clock func() int64) *Tracer {
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return int64(time.Since(epoch)) }
	}
	return &Tracer{clock: clock}
}

// Reserve grows the span store's capacity to at least n spans, making the
// next n Begin calls allocation-free.
func (t *Tracer) Reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if cap(t.spans)-len(t.spans) < n {
		grown := make([]Span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
	t.mu.Unlock()
}

// Begin starts a span under parent (0 = root) and returns its ID.
func (t *Tracer) Begin(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, StartNS: now})
	id := SpanID(len(t.spans))
	t.mu.Unlock()
	return id
}

// End closes a span. Ending span 0 (or an already-ended span again) is a
// no-op; the second End of a span keeps the first end time.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := t.clock()
	t.mu.Lock()
	if sp := &t.spans[id-1]; sp.EndNS == 0 {
		sp.EndNS = now
	}
	t.mu.Unlock()
}

// SetWorker attributes a span to a worker (a Chrome trace track), so the
// rendered timeline shows which pool slot ran what.
func (t *Tracer) SetWorker(id SpanID, worker int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Worker = worker
	t.mu.Unlock()
}

// Annotate attaches one key/value attr to a span (rendered as Chrome trace
// args).
func (t *Tracer) Annotate(id SpanID, key, val string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Attrs = append(t.spans[id-1].Attrs, Attr{key, val})
	t.mu.Unlock()
}

// Len reports how many spans have been recorded (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of every recorded span, in Begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// chromeEvent is one Chrome trace-event object. Complete events ("ph":"X")
// carry ts/dur in microseconds; metadata events ("ph":"M") name the tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace serializes the span store as Chrome trace-event JSON
// ({"traceEvents":[...]}), one complete ("X") event per span on the track of
// its worker, with parent name/ID and attrs in args, preceded by
// thread_name metadata naming each worker track. Perfetto and
// chrome://tracing open the output directly. The output depends only on the
// recorded spans, so an explicit-clock trace is byte-deterministic.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans)+8)

	workers := map[int]bool{}
	for _, sp := range spans {
		workers[sp.Worker] = true
	}
	wids := make([]int, 0, len(workers))
	for id := range workers {
		wids = append(wids, id)
	}
	sort.Ints(wids)
	for _, id := range wids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("worker-%d", id)},
		})
	}

	for i, sp := range spans {
		end := sp.EndNS
		if end < sp.StartNS {
			end = sp.StartNS
		}
		dur := float64(end-sp.StartNS) / 1e3
		args := map[string]any{"id": i + 1}
		if sp.Parent != 0 {
			args["parent"] = int(sp.Parent)
			args["parent_name"] = spans[sp.Parent-1].Name
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Val
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X",
			TS: float64(sp.StartNS) / 1e3, Dur: &dur,
			PID: 1, TID: sp.Worker, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
