package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // dropped: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Add(-1.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	snap := r.Snapshot()
	want := map[string]float64{
		`lat_seconds_bucket{le="0.1"}`:  1,
		`lat_seconds_bucket{le="1"}`:    3,
		`lat_seconds_bucket{le="10"}`:   4,
		`lat_seconds_bucket{le="+Inf"}`: 5,
		`lat_seconds_count`:             5,
	}
	for k, v := range want {
		if snap.Get(k) != v {
			t.Errorf("snapshot[%s] = %v, want %v", k, snap.Get(k), v)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "quantile fixture", []float64{10, 20, 40})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	// 10 observations in [0,10), 10 in [10,20): the median sits at the
	// bucket boundary and p75 interpolates halfway into the second.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("p75 = %v, want 15", got)
	}
	if got := h.Quantile(1); math.Abs(got-20) > 1e-9 {
		t.Errorf("p100 = %v, want 20 (upper edge of last occupied bucket)", got)
	}
	// Out-of-range and NaN arguments clamp or propagate, never panic.
	if got := h.Quantile(-3); got > h.Quantile(0.01) {
		t.Errorf("q<0 should clamp to the low tail, got %v", got)
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Error("NaN quantile should be NaN")
	}
	// An observation beyond every bound lands in the +Inf bucket; the
	// quantile degrades to the highest finite bound rather than +Inf.
	h.Observe(1e9)
	if got := h.Quantile(0.9999); math.IsInf(got, 1) {
		t.Error("quantile in the +Inf bucket should stay finite")
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "by route/code", "route", "code")
	v.With("/v1/allocate", "2xx").Add(3)
	v.With("/v1/allocate", "5xx").Inc()
	v.With("/v1/jobs", "2xx").Inc()
	snap := r.Snapshot()
	if got := snap.Get(`http_requests_total{route="/v1/allocate",code="2xx"}`); got != 3 {
		t.Fatalf("labeled counter = %v, want 3", got)
	}
	hv := r.HistogramVec("h", "", []float64{1}, "alg")
	hv.With("appro").Observe(0.5)
	if got := r.Snapshot().Get(`h_count{alg="appro"}`); got != 1 {
		t.Fatalf("labeled histogram count = %v, want 1", got)
	}
}

func TestFuncBackedAndEscaping(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("live", "from fn", func() float64 { return n })
	r.CounterFunc("seen_total", "from fn", func() float64 { return 41 })
	v := r.CounterVec("weird", "", "l")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE live gauge\nlive 7\n",
		"# TYPE seen_total counter\nseen_total 41\n",
		`weird{l="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	n = 9
	if got := r.Snapshot().Get("live"); got != 9 {
		t.Fatalf("func gauge = %v, want 9", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
	if len(DefBuckets()) < 5 {
		t.Fatal("DefBuckets too coarse")
	}
}

// TestConcurrentIncrementSnapshot is the race-detector gate for the
// registry: many goroutines hammer every instrument kind while others
// snapshot and expose concurrently; final totals must be exact.
func TestConcurrentIncrementSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{0.5, 1})
	vec := r.CounterVec("v_total", "", "worker")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%3) / 2)
				vec.With(lbl).Inc()
			}
		}(w)
	}
	// Concurrent readers: snapshots and exposition must not race.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for i := 0; i < 3; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Snapshot()
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Fatalf("counter = %v, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Fatalf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	snap := r.Snapshot()
	var vecSum float64
	for w := 0; w < workers; w++ {
		vecSum += snap.Get(`v_total{worker="` + string(rune('a'+w)) + `"}`)
	}
	if vecSum != total {
		t.Fatalf("vec sum = %v, want %d", vecSum, total)
	}
}
