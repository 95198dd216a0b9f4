package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobisink/internal/online"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100, 99, ..., 1: order must not matter
	}
	got := tail(xs)
	// The eleventh-largest of 1..100 is 90, at the 90th percentile.
	if got.Value != 90 || got.Beyond != 10 || got.N != 100 || got.Level != 90 {
		t.Fatalf("tail(1..100) = %+v, want 90 at p90 with 10 beyond", got)
	}
	got = tail(xs[:11])
	if got.Value != 90 || got.Beyond != 10 {
		t.Fatalf("tail of 11 samples = %+v, want the minimum 90 with 10 beyond", got)
	}
	got = tail([]float64{3, 1, 2})
	if got.Value != 3 || got.Beyond != 0 || got.Level != 100 {
		t.Fatalf("tail of 3 samples = %+v, want the maximum with nothing beyond", got)
	}
	if !math.IsNaN(tail(nil).Value) {
		t.Fatal("tail of no samples should be NaN")
	}
}

func TestHistogramTail(t *testing.T) {
	// 100 observations: 89 in (0,1], 11 in (2,4]. With ten beyond, the
	// tail sits at the 90th percentile, inside the (2,4] bucket.
	before := map[string]float64{}
	after := map[string]float64{
		`h_bucket{le="1"}`: 89, `h_bucket{le="2"}`: 89, `h_bucket{le="4"}`: 100,
		`h_bucket{le="+Inf"}`: 100, "h_count": 100, "h_sum": 150,
	}
	h := deltaHist(before, after, "h")
	if h.Count != 100 || h.Sum != 150 {
		t.Fatalf("delta count/sum = %v/%v", h.Count, h.Sum)
	}
	tl := h.tail()
	if tl.Beyond != 10 || tl.Level != 90 || tl.Value <= 2 || tl.Value > 4 {
		t.Fatalf("histogram tail = %+v, want p90 inside (2,4]", tl)
	}
	if q := h.quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("median %v outside the first bucket", q)
	}
	// Deltas: observations already present before do not count.
	d := deltaHist(after, after, "h")
	if d.Count != 0 || !math.IsNaN(d.quantile(0.5)) {
		t.Fatalf("empty delta = %+v", d)
	}
}

func TestIntervalSamplesFromSchedulerTimestamps(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Five intervals; the scheduler ran in 0, 1 and 3 (interval 2 and 4
	// had no registrations, so it was skipped there), busy 2 ms each.
	calls := []schedCall{
		{Interval: 0, Start: at(5), End: at(7)},
		{Interval: 1, Start: at(20), End: at(22)},
		{Interval: 3, Start: at(60), End: at(62)},
	}
	loop, nonsched := intervalSamples(at(0), at(100), calls, 5)
	// Cycles: 5→20 ms (interval 0 to 1), 20→60 ms (1 to 3, shared by two
	// intervals), and the wrapped head 0→5 ms plus stub 60→100 ms (3 to
	// the end and round to 0: two intervals' worth). Each span holds one
	// 2 ms scheduler run.
	wantLoop := []float64{15, 20, 20, 22.5, 22.5}
	wantNon := []float64{13, 19, 19, 21.5, 21.5}
	if !equalFloats(loop, wantLoop) || !equalFloats(nonsched, wantNon) {
		t.Fatalf("loop %v nonsched %v, want %v and %v", loop, nonsched, wantLoop, wantNon)
	}
	if s := sum(loop); s != 100 {
		t.Fatalf("interval samples sum to %v ms, want the tour's 100 ms", s)
	}

	// Entry timestamps only (untraced): nothing is subtracted.
	for i := range calls {
		calls[i].End = time.Time{}
	}
	loop, nonsched = intervalSamples(at(0), at(100), calls, 5)
	if !equalFloats(loop, wantLoop) || !equalFloats(nonsched, wantLoop) {
		t.Fatalf("untraced: loop %v nonsched %v", loop, nonsched)
	}

	// Every interval scheduled: the head and the stub make one cycle.
	full := []schedCall{{Interval: 0, Start: at(10)}, {Interval: 1, Start: at(40)}, {Interval: 2, Start: at(70)}}
	loop, _ = intervalSamples(at(0), at(90), full, 3)
	if !equalFloats(loop, []float64{30, 30, 30}) {
		t.Fatalf("every interval scheduled: %v", loop)
	}

	// A tour whose scheduler never ran is one gap over every interval.
	loop, _ = intervalSamples(at(0), at(30), nil, 3)
	if !equalFloats(loop, []float64{10, 10, 10}) {
		t.Fatalf("no scheduler calls: %v", loop)
	}
}

func TestSweepTailIsMedianOfPassTails(t *testing.T) {
	p := newPhase(false)
	// Two passes of 20 samples; the second pass is slower throughout.
	for pass := 0; pass < 2; pass++ {
		var xs []float64
		for i := 1; i <= 20; i++ {
			xs = append(xs, float64(i+100*pass))
		}
		p.add("interval_ms", xs...)
		p.add("pass_tail_ms", tail(xs).Value)
	}
	got, passes := p.intervalTail()
	// Per pass the tail is the 11th largest of 20: 10 and 110.
	if passes != 2 || got.Value != 60 || got.N != 20 || got.Beyond != 10 {
		t.Fatalf("intervalTail = %+v over %d passes, want 60 over 2 passes of 20", got, passes)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	root := tr.open(0, 0, "op", at(0))
	tour := tr.open(0, root, "wire.tour", at(10))
	tr.add(0, tour, "sched.schedule", at(20), at(30))
	tr.close(tour, at(90))
	tr.close(root, at(100))
	tr.add(0, 0, "check", at(100), at(150)) // outside the measured op
	self, total := tr.selfTimes("op", span.layer)
	if total != 100*time.Millisecond {
		t.Fatalf("total %v", total)
	}
	want := map[string]time.Duration{"bench": 20 * time.Millisecond, "wire": 70 * time.Millisecond, "sched": 10 * time.Millisecond}
	for l, d := range want {
		if self[l] != d {
			t.Fatalf("self[%s] = %v, want %v (all: %v)", l, self[l], d, self)
		}
	}
	if largest(self) != "wire" {
		t.Fatalf("largest = %s", largest(self))
	}
}

// tinyOptions shrinks every workload so a smoke run takes seconds.
func tinyOptions(t *testing.T, workload string, traced bool) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 7
	o.seconds = 200 * time.Millisecond
	o.traced = traced
	o.out = t.TempDir()
	o.fleet = wireConfig{N: 24, PathLen: 800, Offset: 40, QualityTours: 2,
		Sched: func() online.Scheduler { return &online.Greedy{} }}
	o.durable = wireConfig{N: 24, PathLen: 800, Offset: 40, QualityTours: 2,
		Sched: func() online.Scheduler { return &online.Appro{} }, WAL: true}
	o.sweep = sweepConfig{Sizes: []int{10, 30}, Cycles: 2}
	return o
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "fleet,durable,sweep" {
		t.Fatalf("workloads %v", names)
	}
	if len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, perfbench %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		if b.EndToEnd[i].Name != d.name || b.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d] = %+v, perfbench prints %s [%s]", i, b.EndToEnd[i], d.name, d.unit)
		}
	}
	for i, d := range perLayerDefs {
		if b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, perfbench prints %s [%s]", i, b.PerLayer[i], d.name, d.unit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each metric is printed by name with its unit and that no
// operation failed.
func TestSmoke(t *testing.T) {
	for _, workload := range []string{"fleet", "durable", "sweep"} {
		for _, traced := range []bool{false, true} {
			name := workload
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := tinyOptions(t, workload, traced)
				r, err := run(context.Background(), o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < minOps {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
				}
				if !strings.Contains(out.String(), "error_rate 0)") {
					t.Fatalf("error_rate 0 not reported:\n%s", out.String())
				}
				defs := endToEndDefs
				if traced {
					defs = perLayerDefs
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s [%s] missing or mis-united: %+v", d.name, d.unit, m)
					}
				}
				for _, d := range endToEndDefs { // printed in every mode
					if !strings.Contains(out.String(), d.name) {
						t.Errorf("%s not printed", d.name)
					}
				}
				for _, d := range endToEndDefs[:5] {
					if r.Metrics[d.name].Value <= 0 && !traced {
						t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
					}
				}
				if traced {
					spans := filepath.Join(o.out, "spans", workload+"-seed7.jsonl")
					if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
						t.Fatalf("span file %s: %v", spans, err)
					}
					if !strings.Contains(out.String(), "largest self time: ") {
						t.Fatalf("no self-time verdict:\n%s", out.String())
					}
				}
			})
		}
	}
}

// TestDataIsDeterministicPerSeed pins the acceptance rule that data_mb
// repeats exactly for a seed, whatever the number of tours measured.
func TestDataIsDeterministicPerSeed(t *testing.T) {
	var first float64
	for i := 0; i < 2; i++ {
		o := tinyOptions(t, "durable", false)
		o.seconds = time.Duration(i+1) * 100 * time.Millisecond
		r, err := run(context.Background(), o, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		v := r.Metrics["data_mb"].Value
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("data_mb %v then %v for the same seed", first, v)
		}
	}
}
