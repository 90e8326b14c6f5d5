// Package obs is edgescope's self-observability plane: a zero-dependency,
// low-overhead metrics registry with Prometheus text-format exposition
// (metrics.go) and an explicit-clock span tracer that serializes to Chrome
// trace-event JSON (trace.go).
//
// Design constraints, in order:
//
//   - Allocation-free hot paths. Instrument handles are resolved once at
//     setup (Registry.CounterVec(...).With(...)); the per-event operations —
//     Counter.Inc/Add, Gauge.Set, Histogram.Observe, Tracer.Begin/End over
//     reserved capacity — are a nil check plus atomic ops, zero allocations,
//     pinned by BenchmarkObsCounterInc/BenchmarkObsSpan and the CI alloc gate.
//   - Nil-safety everywhere. Every instrument method is a no-op on a nil
//     receiver, so instrumented code never branches on "is observability
//     configured" — an unconfigured component pays one predictable branch.
//   - Observation must not perturb the experiment. Nothing in this package
//     draws randomness, touches the ambient clock on the metrics path, or
//     writes to stdout; reproall output stays byte-identical with tracing on.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the exposition metric types.
type Kind int

// The three instrument kinds the registry serves.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as Prometheus TYPE text.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing uint64 cell. The zero value is ready
// to use. All methods are safe on a nil receiver and for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 cell that may go up and down. Zero value ready; nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: per-bucket atomic counts over
// ascending upper bounds plus an implicit +Inf bucket, a count, and a sum.
// Observe is allocation-free: a linear scan over the (short, cache-resident)
// bounds slice and three atomic ops. Nil-safe.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// histogramBounds validates and copies a family's bucket bounds, which
// every series of the family then shares.
func histogramBounds(buckets []float64) []float64 {
	b := make([]float64, len(buckets))
	copy(b, buckets)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", buckets))
		}
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the Prometheus base unit,
// so *_seconds histograms read naturally in standard dashboards.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefBuckets are general-purpose latency buckets in seconds (Prometheus's
// defaults): 5µs-scale WAL appends through multi-second recoveries all land
// mid-range somewhere.
var DefBuckets = []float64{.000005, .00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// series is one label-value tuple's instrument within a family. The
// instruments live inline and a one-label tuple is stored in one, so a
// private registry (every Open with a nil Metrics builds one) costs few
// allocations per series.
type series struct {
	labelVals []string
	one       [1]string
	c         Counter
	g         Gauge
	h         Histogram
}

// family is one metric name: its type, help, label schema and series set.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	buckets    []float64 // a histogram family's validated bounds

	mu    sync.Mutex
	byKey map[string]*series
}

// resolve returns (creating once) the series for a label-value tuple.
func (f *family) resolve(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{}
	if len(vals) == 1 {
		s.one[0] = vals[0]
		s.labelVals = s.one[:]
	} else {
		s.labelVals = append([]string(nil), vals...)
	}
	if f.kind == KindHistogram {
		s.h.bounds, s.h.counts = f.buckets, make([]atomic.Uint64, len(f.buckets))
	}
	f.byKey[key] = s
	return s
}

// Registry holds metric families and renders them. A Registry is safe for
// concurrent registration, instrument operations and exposition. Instrument
// names are registered at most once: re-registering a name (even with a
// different type or label schema) panics, because two owners of one series
// is always a wiring bug.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	hooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// OnCollect registers a hook run before every Snapshot/WritePrometheus —
// the place to refresh gauges that mirror live state (queue depths, WAL
// lag) without paying for them on the hot path. Hooks run in registration
// order, outside the registry lock, so they may freely touch instruments.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// register validates and installs a family.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic("obs: invalid label name " + strconv.Quote(l) + " on metric " + name)
		}
	}
	f := &family{name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), byKey: map[string]*series{}}
	if kind == KindHistogram {
		f.buckets = histogramBounds(buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic("obs: metric " + name + " registered twice")
	}
	r.fams[name] = f
	return f
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers an unlabeled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	return &r.register(name, help, KindCounter, nil, nil).resolve(nil).c
}

// Gauge registers an unlabeled gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &r.register(name, help, KindGauge, nil, nil).resolve(nil).g
}

// Histogram registers an unlabeled histogram over the given ascending bucket
// upper bounds (nil = DefBuckets) and returns its handle.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &r.register(name, help, KindHistogram, nil, buckets).resolve(nil).h
}

// CounterVec is a labeled counter family; With resolves one series.
type CounterVec family

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return (*CounterVec)(r.register(name, help, KindCounter, labels, nil))
}

// With returns (creating once) the counter for a label-value tuple. Resolve
// once at setup and keep the handle: With itself takes the family lock.
func (v *CounterVec) With(vals ...string) *Counter { return &(*family)(v).resolve(vals).c }

// GaugeVec is a labeled gauge family.
type GaugeVec family

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return (*GaugeVec)(r.register(name, help, KindGauge, labels, nil))
}

// With returns (creating once) the gauge for a label-value tuple.
func (v *GaugeVec) With(vals ...string) *Gauge { return &(*family)(v).resolve(vals).g }

// HistogramVec is a labeled histogram family.
type HistogramVec family

// HistogramVec registers a labeled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return (*HistogramVec)(r.register(name, help, KindHistogram, labels, buckets))
}

// With returns (creating once) the histogram for a label-value tuple.
func (v *HistogramVec) With(vals ...string) *Histogram { return &(*family)(v).resolve(vals).h }

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

// Sample is one exposed time-series point. Histograms expand exactly as in
// the text format: <name>_bucket with cumulative counts per "le" bound
// (+Inf included), <name>_sum and <name>_count.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of a label by name ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Snapshot runs the collect hooks and returns every sample in exposition
// order (families by name, series by label values) — the in-process consumer
// API the HTTP endpoint and future control loops share.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	r.collect(func(s Sample) { out = append(out, s) }, nil)
	return out
}

// Find returns the first snapshot sample matching name and every given
// label pair, and whether one matched — a test/consumer convenience.
func Find(samples []Sample, name string, labelPairs ...string) (Sample, bool) {
	if len(labelPairs)%2 != 0 {
		panic("obs: Find wants name, k1, v1, k2, v2, ...")
	}
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if s.Label(labelPairs[i]) != labelPairs[i+1] {
				continue next
			}
		}
		return s, true
	}
	return Sample{}, false
}

// collect walks families in sorted-name order, series in sorted label-value
// order, invoking emit per sample and (when non-nil) fam once per family.
func (r *Registry) collect(emit func(Sample), fam func(name, help string, kind Kind)) {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.mu.Lock()
		series := make([]*series, 0, len(f.byKey))
		for _, s := range f.byKey {
			series = append(series, s)
		}
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool {
			a, b := series[i].labelVals, series[j].labelVals
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		if fam != nil {
			fam(f.name, f.help, f.kind)
		}
		for _, s := range series {
			base := make([]Label, len(f.labels))
			for i, l := range f.labels {
				base[i] = Label{l, s.labelVals[i]}
			}
			switch f.kind {
			case KindCounter:
				emit(Sample{f.name, base, float64(s.c.Value())})
			case KindGauge:
				emit(Sample{f.name, base, s.g.Value()})
			case KindHistogram:
				// Cumulative buckets, as the text format requires.
				var cum uint64
				for i, ub := range s.h.bounds {
					cum += s.h.counts[i].Load()
					emit(Sample{f.name + "_bucket",
						append(append([]Label{}, base...), Label{"le", formatFloat(ub)}),
						float64(cum)})
				}
				cum += s.h.inf.Load()
				emit(Sample{f.name + "_bucket",
					append(append([]Label{}, base...), Label{"le", "+Inf"}),
					float64(cum)})
				emit(Sample{f.name + "_sum", base, s.h.Sum()})
				emit(Sample{f.name + "_count", base, float64(s.h.count.Load())})
			}
		}
	}
}

// ExpositionContentType is the Content-Type of the Prometheus text format.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with its # HELP and
// # TYPE header, series sorted by label values, histogram buckets cumulative
// with the +Inf bound explicit.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	r.collect(func(s Sample) {
		b.WriteString(s.Name)
		if len(s.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Name)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l.Value))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.Value))
		b.WriteByte('\n')
	}, func(name, help string, kind Kind) {
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(help))
		b.WriteString("\n# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(kind.String())
		b.WriteByte('\n')
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value: integral values without an exponent
// (counters read naturally), everything else in Go's shortest 'g' form,
// which the exposition grammar accepts.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash, quote
// and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes help text: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
