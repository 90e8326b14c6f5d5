package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs processed")
	g := r.Gauge("depth", "queue depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var reg *Registry
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	reg.OnCollect(func() {})
	id := tr.Begin("x", 0)
	tr.End(id)
	tr.SetWorker(id, 1)
	tr.Annotate(id, "k", "v")
	tr.Reserve(10)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must be empty")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	samples := r.Snapshot()
	wantCum := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	for le, want := range wantCum {
		s, ok := Find(samples, "lat_seconds_bucket", "le", le)
		if !ok || s.Value != want {
			t.Fatalf("bucket le=%s = %+v ok=%v, want %v", le, s, ok, want)
		}
	}
	if s, ok := Find(samples, "lat_seconds_count"); !ok || s.Value != 5 {
		t.Fatalf("count sample = %+v ok=%v", s, ok)
	}
}

func TestLabeledFamiliesResolveOnce(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("shard_events_total", "events per shard", "shard")
	a, b := v.With("0"), v.With("0")
	if a != b {
		t.Fatal("With must resolve one series per label tuple")
	}
	v.With("1").Add(7)
	a.Inc()
	samples := r.Snapshot()
	if s, ok := Find(samples, "shard_events_total", "shard", "1"); !ok || s.Value != 7 {
		t.Fatalf("shard 1 = %+v ok=%v, want 7", s, ok)
	}
	if s, ok := Find(samples, "shard_events_total", "shard", "0"); !ok || s.Value != 1 {
		t.Fatalf("shard 0 = %+v ok=%v, want 1", s, ok)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("b_total", "with \"quotes\" and\nnewline", "region")
	v.With("cn\"north\"").Inc()
	r.Gauge("a_depth", "a gauge").Set(1.5)
	r.Histogram("c_seconds", "hist", []float64{0.5}).Observe(0.25)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP a_depth a gauge
# TYPE a_depth gauge
a_depth 1.5
# HELP b_total with "quotes" and\nnewline
# TYPE b_total counter
b_total{region="cn\"north\""} 1
# HELP c_seconds hist
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="+Inf"} 1
c_seconds_sum 0.25
c_seconds_count 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := LintExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("own exposition must lint clean: %v", err)
	}
}

func TestLintExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_declared 1\n",
		"# TYPE x counter\nx one\n",
		"# TYPE x counter\nx{le=\"oops} 1\n",
		"# TYPE x counter\nx{bad name=\"v\"} 1\n",
		"# TYPE x wat\nx 1\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"",
	}
	for _, tc := range bad {
		if err := LintExposition(strings.NewReader(tc)); err == nil {
			t.Fatalf("lint accepted malformed exposition %q", tc)
		}
	}
	good := "# HELP x ok\n# TYPE x counter\nx 1\nx{a=\"b\",c=\"d\"} 2.5e3 1700000000000\n"
	if err := LintExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
}

func TestOnCollectRefreshesGauges(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("live_depth", "refreshed at scrape")
	depth := 0
	r.OnCollect(func() { g.Set(float64(depth)) })
	depth = 42
	if s, ok := Find(r.Snapshot(), "live_depth"); !ok || s.Value != 42 {
		t.Fatalf("collect hook did not run: %+v ok=%v", s, ok)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.Counter("9starts_with_digit", "") },
		func() { r.Counter("has-dash", "") },
		func() { r.CounterVec("ok_total", "", "le") },
		func() { r.Histogram("bad_buckets", "", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("alloc_total", "", "shard").With("3")
	g := r.Gauge("alloc_depth", "")
	h := r.Histogram("alloc_seconds", "", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// TestConcurrentScrapeDuringWrites is the -race pin: scraping must be safe
// while every instrument is being hammered.
func TestConcurrentScrapeDuringWrites(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("rc_total", "", "w").With("0")
	g := r.Gauge("rc_depth", "")
	h := r.Histogram("rc_seconds", "", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Set(1)
					h.Observe(0.01)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
		if err := LintExposition(strings.NewReader(sb.String())); err != nil {
			t.Errorf("mid-run exposition malformed: %v", err)
		}
		r.Snapshot()
	}
	close(stop)
	wg.Wait()
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
