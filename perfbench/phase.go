package main

import (
	"context"
	"runtime"
	"sort"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/metrics"
	"mobisink/internal/online"
)

// phase is one measured stretch of a workload — the untraced run or the
// traced run — and everything it sampled.
type phase struct {
	traced    bool
	tr        *tracer // nil when untraced
	attempted int
	failed    int
	samples   map[string][]float64
	// walEst is wal time spent inside the measured operations that no
	// span can isolate (the sink journals inside RunTour); the traced run
	// estimates it from the out-of-band journal probe.
	walEst time.Duration
	// gammaTau is the physical interval Γ·τ in seconds.
	gammaTau float64
	// quality holds each distinct instance's online data and offline
	// share of the upper bound; both are deterministic per instance.
	quality map[int]quality
	// snap0/snap1 bracket the phase in the process-global metrics
	// registry, so earlier phases' tours do not leak into its histograms.
	snap0, snap1 metrics.Values
}

func newPhase(traced bool) *phase {
	p := &phase{traced: traced, samples: make(map[string][]float64), quality: make(map[int]quality)}
	if traced {
		p.tr = newTracer()
	}
	return p
}

type quality struct{ dataMb, fracUB float64 }

// qualityMeans averages the per-instance quality in instance order, so
// the same instances always give bit-identical means.
func (p *phase) qualityMeans() (dataMb, fracUB float64) {
	keys := make([]int, 0, len(p.quality))
	for k := range p.quality {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var d, f []float64
	for _, k := range keys {
		d = append(d, p.quality[k].dataMb)
		f = append(f, p.quality[k].fracUB)
	}
	return mean(d), mean(f)
}

// intervalTail is the phase's interval_ms tail. On sweep it is the
// median of the per-pass tails (see runSweepPass), passes counts them,
// and the level and count describe one pass.
func (p *phase) intervalTail() (t tailStat, passes int) {
	all, perPass := p.samples["interval_ms"], p.samples["pass_tail_ms"]
	if len(perPass) == 0 {
		return tail(all), 0
	}
	t = tail(all[:len(all)/len(perPass)])
	t.Value = median(perPass)
	return t, len(perPass)
}

func (p *phase) add(name string, vs ...float64) {
	p.samples[name] = append(p.samples[name], vs...)
}

// span runs fn as a span called name under parent and returns its wall
// time; fn receives the span's id for its own children.
func (p *phase) span(op, parent int, name string, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := p.tr.open(op, parent, name, start)
	err := fn(id)
	end := time.Now()
	p.tr.close(id, end)
	return end.Sub(start), err
}

// memDelta brackets an operation with runtime.ReadMemStats in the traced
// run and records its allocation, malloc and GC-pause deltas.
type memDelta struct {
	p      *phase
	before runtime.MemStats
}

func (p *phase) memStart() *memDelta {
	if !p.traced {
		return nil
	}
	m := &memDelta{p: p}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() {
	if m == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.p.add("go_alloc_bytes", float64(after.TotalAlloc-m.before.TotalAlloc))
	m.p.add("go_mallocs", float64(after.Mallocs-m.before.Mallocs))
	m.p.add("go_gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// timedScheduler wraps the workload's scheduler. It always records each
// call's entry time (the interval boundaries); with busy set it also
// records the return time and the registration count.
type timedScheduler struct {
	online.Scheduler
	busy  bool
	calls []schedCall
}

func (t *timedScheduler) Schedule(ctx context.Context, inst *core.Instance, iv online.Interval, regs []online.Registration) (map[int]int, error) {
	c := schedCall{Interval: iv.Index, Start: time.Now(), Regs: len(regs)}
	assign, err := t.Scheduler.Schedule(ctx, inst, iv, regs)
	if t.busy {
		c.End = time.Now()
	}
	t.calls = append(t.calls, c)
	return assign, err
}

// recordTour turns one tour's scheduler calls into its per-interval loop
// times, which it returns, and, when traced, into scheduler samples and
// spans under parent.
func (p *phase) recordTour(op, parent int, sched *timedScheduler, start, end time.Time, intervals int) []float64 {
	loop, nonsched := intervalSamples(start, end, sched.calls, intervals)
	if !p.traced {
		return loop
	}
	p.add("nonsched_ms", nonsched...)
	p.add("sched_calls", float64(len(sched.calls)))
	for _, c := range sched.calls {
		p.add("sched_ms", ms(c.busy()))
		p.add("sched_regs", float64(c.Regs))
		p.tr.add(op, parent, "sched.schedule", c.Start, c.End)
	}
	return loop
}

// busyTotal is the scheduler time of one wrapped run.
func busyTotal(sched *timedScheduler) time.Duration {
	var d time.Duration
	for _, c := range sched.calls {
		d += c.busy()
	}
	return d
}
