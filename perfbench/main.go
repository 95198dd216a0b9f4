// Command perfbench is the repository's benchmark: it runs one seeded
// workload as a closed loop (one tour or instance in flight), checks
// every output, and prints the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a traced run — as the last line of standard
// output, one JSON object. Layers are timed from outside, around calls
// into each package's public API; nothing inside the program is traced.
//
//	perfbench --workload fleet|durable|sweep --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds and runs it from the repository root; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/metrics"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string // spans and scratch journals go under here
	fleet    wireConfig
	durable  wireConfig
	sweep    sweepConfig
}

func defaultOptions() options {
	return options{seed: 1, seconds: 10 * time.Second, out: ".bench_build",
		fleet: fleetConfig, durable: durableConfig, sweep: sweepDefault}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds a whole invocation, builds excluded, well inside
// the three minutes a run may take.
const runDeadline = 170 * time.Second

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, durable or sweep")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed; the same seed gives the same inputs")
	secs := flag.Int("seconds", 10, "measurement time, seconds")
	trace := flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	flag.StringVar(&o.out, "out", o.out, "directory for the span file and scratch journals")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(*secs) * time.Second
	o.traced = *trace == 1
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	r, err := run(ctx, o, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures the workload and returns the result line. An untraced
// invocation measures for the full time; a traced one measures an
// untraced half and a traced half, so the tracing overhead is the
// difference between the two halves' end-to-end metrics.
func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	switch o.workload {
	case "fleet", "durable", "sweep":
	default:
		return nil, fmt.Errorf("unknown workload %q (want fleet, durable or sweep)", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	unit := "tour"
	if o.workload == "sweep" {
		unit = "instance"
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d GOMAXPROCS=%d, closed loop, one %s in flight\n",
		o.workload, o.seed, runtime.GOMAXPROCS(0), unit)

	// The sweep pool is built once and shared by every phase, so no
	// phase starts by freeing one ~90 MB pool and faulting in the next.
	// Set-up is timed on the chunk rebuilt after each pass.
	var pool []*core.Instance
	if o.workload == "sweep" {
		if pool, err = buildPool(newPhase(false), o.sweep, o.seed); err != nil {
			return nil, err
		}
	}

	// One unmeasured operation first, so lazy runtime set-up (heap
	// growth, goroutine stacks, page cache) does not land in the first
	// measured samples. Its outcome still counts.
	warm, err := measure(ctx, o, dir, pool, false, 0, 1)
	if err != nil {
		return nil, err
	}
	span := o.seconds
	if o.traced {
		span /= 2
	}
	plain, err := measure(ctx, o, dir, pool, false, span, minOps)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(plain)
	if err != nil {
		return nil, err
	}
	report(w, "untraced", plain, e2e)
	r := &result{Attempted: warm.attempted + plain.attempted, Failed: warm.failed + plain.failed, Metrics: e2e}
	if o.traced {
		traced, err := measure(ctx, o, dir, pool, true, span, minOps)
		if err != nil {
			return nil, err
		}
		te2e, err := endToEnd(traced)
		if err != nil {
			return nil, err
		}
		report(w, "traced", traced, te2e)
		reportOverhead(w, e2e, te2e)
		if r.Metrics, err = perLayer(w, o.workload, traced); err != nil {
			return nil, err
		}
		spans := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		if err := traced.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(traced.tr.spans), spans)
		r.Attempted += traced.attempted
		r.Failed += traced.failed
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// minOps is the fewest tours (or sweep passes) a measured phase runs,
// so medians never rest on one sample.
const minOps = 3

// measure runs the workload's closed loop until the time d is up and at
// least minRuns tours (sweep: passes over pool) have run. Failed
// operations are counted and logged; the loop goes on.
func measure(ctx context.Context, o options, dir string, pool []*core.Instance, traced bool, d time.Duration, minRuns int) (*phase, error) {
	p := newPhase(traced)
	if traced {
		p.snap0 = metrics.Snapshot()
	}
	deadline := time.Now().Add(d)
	switch o.workload {
	case "fleet", "durable":
		cfg := o.fleet
		if o.workload == "durable" {
			cfg = o.durable
		}
		if minRuns > 1 { // a measured phase reaches every deployment data_mb averages
			minRuns = max(minRuns, cfg.QualityTours)
		}
		for op := 0; op < minRuns || time.Now().Before(deadline); op++ {
			if ctx.Err() != nil {
				break
			}
			p.attempted++
			if err := runWireOp(ctx, p, cfg, o.seed, op, dir); err != nil {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s tour %d: %v\n", o.workload, op, err)
			}
		}
	case "sweep":
		for pass := 0; pass < minRuns || time.Now().Before(deadline); pass++ {
			if ctx.Err() != nil {
				break
			}
			probeDir := ""
			if traced && pass == 0 {
				probeDir = dir
			}
			if err := runSweepPass(ctx, p, pool, pass*len(pool), probeDir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: sweep pass %d: %v\n", pass, err)
			}
			// Set-up sample: one chunk of the pool rebuilt (identical
			// instances, dropped), so the samples spread over the run.
			if _, err := buildChunk(p, o.sweep, o.seed, pass%o.sweep.chunks()); err != nil {
				return nil, err
			}
		}
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, ctx.Err())
	}
	if traced {
		p.snap1 = metrics.Snapshot()
	}
	return p, nil
}

// endToEndDefs are the end-to-end metrics, in BENCHMARK.json order.
var endToEndDefs = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tour_s", "s"},
	{"interval_ms.p50", "ms"},
	{"interval_ms.tail", "ms"},
	{"inst_per_s", "1/s"},
	{"data_mb", "Mb"},
	{"offline_frac_ub", "ratio"},
	{"max_rss_mb", "MiB"},
}

// endToEnd computes the end-to-end metrics of one phase.
func endToEnd(p *phase) (map[string]metric, error) {
	dataMb, fracUB := p.qualityMeans()
	intervalTail, _ := p.intervalTail()
	vals := map[string]float64{
		"setup_s":          median(p.samples["setup_s"]),
		"tour_s":           median(p.samples["tour_s"]),
		"interval_ms.p50":  median(p.samples["interval_ms"]),
		"interval_ms.tail": intervalTail.Value,
		"inst_per_s":       median(p.samples["op_rate"]),
		"data_mb":          dataMb,
		"offline_frac_ub":  fracUB,
		"max_rss_mb":       maxRSSMiB(),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out, finite(out)
}

// finite rejects a result that could not be measured, such as a median
// of no samples when every operation failed.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no samples (every operation failed?)", name)
		}
	}
	return nil
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
