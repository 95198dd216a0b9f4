// Package metrics is the observability substrate of the allocation
// service: a dependency-free registry of atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition and a
// Snapshot API for direct assertions in tests and CLI stats dumps.
//
// Instruments are cheap enough for hot paths (a counter increment is a
// single atomic add; a histogram observation is two atomic adds plus a
// CAS loop for the sum) and registration is idempotent: asking a
// registry for an already-registered name returns the existing
// instrument, so package-level instrumentation can be declared in plain
// var blocks without sync.Once ceremony. Names and label sets follow
// Prometheus conventions (snake_case, _total suffix on counters,
// _seconds unit suffixes).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count. The zero value is not
// registered; obtain one from a Registry.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be ≥ 0 (negative deltas are dropped to keep
// the counter monotone).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed cumulative buckets and
// tracks their sum, Prometheus-style. Bucket upper bounds are set at
// registration; a +Inf bucket is implicit.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts, interpolating linearly inside the containing bucket — the
// standard Prometheus histogram_quantile estimator. Samples that landed
// in the +Inf bucket are reported as the largest finite bound (a lower
// bound on the true value). Returns NaN when the histogram is empty or
// q is NaN. The estimate is read from live atomic counts; concurrent
// observations may skew it by at most the races' sample count.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	q = math.Min(1, math.Max(0, q))
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var acc uint64
	lower := 0.0
	for i, upper := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(acc)+float64(c) >= rank {
			frac := (rank - float64(acc)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(upper-lower)
		}
		acc += c
		lower = upper
	}
	return lower
}

// cumulative returns the per-bound cumulative counts (excluding +Inf).
func (h *Histogram) cumulative() []uint64 {
	out := make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// DefBuckets are general-purpose latency buckets in seconds, spanning
// 100 µs to ~100 s.
func DefBuckets() []float64 {
	return ExpBuckets(1e-4, 4, 11)
}

// ExpBuckets returns n exponential bucket bounds start, start·factor, …
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// series is one (labelValues → instrument) entry of a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // func-backed counter/gauge
}

// family is one named metric with a fixed kind and label-name set.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

func (f *family) get(labelValues []string, mk func() *series) *series {
	key := renderLabels(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = key
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// renderLabels formats a label set as it appears in the exposition,
// e.g. `{route="/v1/allocate",code="2xx"}`; empty for no labels.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(values) != len(names) {
		panic(fmt.Sprintf("metrics: got %d label values for %d label names %v",
			len(values), len(names), names))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry holds metric families. The zero value is not usable;
// construct with NewRegistry or use the process-wide Default registry.
// All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used by package-level
// instrumentation (internal/exp, internal/solve, internal/wal,
// internal/wire) and by cmd binaries.
func Default() *Registry { return defaultRegistry }

// family returns the family for name, creating it on first use and
// panicking on a kind or label-set mismatch (a programming error: two
// call sites disagree about what the metric is).
func (r *Registry) family(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v, was %s%v",
				name, kind, labelNames, f.kind, f.labelNames))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return f.get(nil, func() *series { return &series{ctr: &Counter{}} }).ctr
}

// CounterFunc registers a counter whose value is read from fn at
// exposition/snapshot time (for counts already tracked elsewhere, e.g.
// cache hit totals). Re-registering the same name replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, KindCounter, nil, nil)
	s := f.get(nil, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return f.get(nil, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition/snapshot time. Re-registering the same name replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, KindGauge, nil, nil)
	s := f.get(nil, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (+Inf implicit; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	f := r.family(name, help, KindHistogram, nil, buckets)
	return f.get(nil, func() *series { return &series{hist: newHistogram(f.buckets)} }).hist
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in the order the
// label names were registered), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() *series { return &series{ctr: &Counter{}} }).ctr
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labelNames, nil)}
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues, func() *series { return &series{hist: newHistogram(v.f.buckets)} }).hist
}

// HistogramVec registers (or fetches) a labeled histogram family with
// shared bucket bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	return &HistogramVec{r.family(name, help, KindHistogram, labelNames, buckets)}
}

// families returns the registered families in registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.fams[name])
	}
	return out
}

// snapshotSeries returns a family's series in creation order.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, f.series[k])
	}
	return out
}
