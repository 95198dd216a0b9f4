// Command loadgen is the wire transport's open-loop fleet driver: it
// spawns thousands of in-process sensor clients against a sink on an
// arrival schedule (uniform ramp, Poisson process, or instantaneous
// burst), runs one tour, and reports the latency tails — client-side
// join (dial + handshake + session sync) percentiles from exact
// samples, and the sink-side wire histograms (registration roundtrip,
// broadcast fan-out stall, interval commit) at p50/p95/p99/p99.9.
//
//	loadgen -n 1000                         uniform ramp
//	loadgen -n 5000 -arrival burst
//	loadgen -n 1000 -json fleet.json        benchjson-shaped artifact
//
// The -json artifact uses the same row shape as BENCH_wire.json, so a
// before/after pair can be diffed with `benchjson -compare`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/metrics"
	"mobisink/internal/network"
	"mobisink/internal/radio"
	"mobisink/internal/solve"
	"mobisink/internal/wire"
)

type config struct {
	n       int
	algo    string
	seed    int64
	pathLen float64
	offset  float64
	speed   float64
	tau     float64
	arrival string
	ramp    time.Duration
	chaos   float64
	retries int
	window  time.Duration
	jsonOut string
	stats   bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 1000, "fleet size (sensor clients)")
	flag.StringVar(&cfg.algo, "algo", "greedy", "per-interval scheduler: appro, maxmatch, greedy, or sequential")
	flag.Int64Var(&cfg.seed, "seed", 1, "topology, budget, and arrival seed")
	flag.Float64Var(&cfg.pathLen, "path", 2000, "sink path length, m")
	flag.Float64Var(&cfg.offset, "offset", 40, "max sensor offset from the path, m")
	flag.Float64Var(&cfg.speed, "speed", 5, "sink speed, m/s")
	flag.Float64Var(&cfg.tau, "tau", 1, "slot length, s")
	flag.StringVar(&cfg.arrival, "arrival", "uniform", "client arrival process: uniform, poisson, or burst")
	flag.DurationVar(&cfg.ramp, "ramp", 500*time.Millisecond, "arrival ramp length (uniform and poisson)")
	flag.Float64Var(&cfg.chaos, "chaos", 0, "route the fleet through a chaos proxy with this uniform drop rate")
	flag.IntVar(&cfg.retries, "retries", 3, "recovery retransmission rounds (chaos mode)")
	flag.DurationVar(&cfg.window, "window", 100*time.Millisecond, "registration and confirm window (chaos mode)")
	flag.StringVar(&cfg.jsonOut, "json", "", "write a benchjson-shaped latency artifact to this file")
	flag.BoolVar(&cfg.stats, "stats", false, "also dump the raw wire metrics snapshot")
	flag.Parse()

	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is one loadgen campaign's outcome.
type report struct {
	Sensors   int
	Intervals int
	DataMb    float64
	TourWall  time.Duration
	// Join percentiles are exact (computed from every client's sample):
	// dial + Hello + Sync, the client-observed cost of entering the
	// fleet.
	JoinP50, JoinP95, JoinP99, JoinP999 time.Duration
	// Sink-side histogram percentiles, nanoseconds.
	RegRoundtripP99    float64
	BroadcastFanoutP99 float64
	IntervalCommitP99  float64
}

// arrivalOffsets builds the open-loop arrival schedule: each client
// dials at its offset from campaign start, regardless of how earlier
// dials are faring (that independence is what makes the driver
// open-loop rather than feedback-throttled).
func arrivalOffsets(cfg config) []time.Duration {
	out := make([]time.Duration, cfg.n)
	switch cfg.arrival {
	case "burst":
		// all zero: every client dials at once
	case "poisson":
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x10adfeed))
		mean := float64(cfg.ramp) / float64(cfg.n)
		at := 0.0
		for i := range out {
			at += rng.ExpFloat64() * mean
			out[i] = time.Duration(at)
		}
	default: // uniform
		for i := range out {
			out[i] = cfg.ramp * time.Duration(i) / time.Duration(cfg.n)
		}
	}
	return out
}

func buildInstance(cfg config) (*core.Instance, error) {
	dep, err := network.Generate(network.Params{
		N: cfg.n, PathLength: cfg.pathLen, MaxOffset: cfg.offset, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 10000/cfg.speed, 0.2, rng); err != nil {
		return nil, err
	}
	return core.BuildInstance(dep, radio.Paper2013(), cfg.speed, cfg.tau)
}

// run drives one campaign: build the instance, start the sink, ramp the
// fleet in on the arrival schedule, run the tour, and report the tails.
// It is the testable core of the command.
func run(cfg config, out io.Writer) (*report, error) {
	if cfg.arrival != "uniform" && cfg.arrival != "poisson" && cfg.arrival != "burst" {
		return nil, fmt.Errorf("unknown arrival process %q (want uniform, poisson, or burst)", cfg.arrival)
	}
	inst, err := buildInstance(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := solve.NewScheduler(cfg.algo, solve.Options{})
	if err != nil {
		return nil, err
	}
	var rec *wire.Recovery
	if cfg.chaos > 0 {
		rec = &wire.Recovery{MaxRetries: cfg.retries, RegWindow: cfg.window, ConfirmWindow: cfg.window}
	}
	sink, err := wire.NewSink(wire.SinkConfig{Inst: inst, Scheduler: sched, Recovery: rec})
	if err != nil {
		return nil, err
	}
	defer sink.Close()

	addr := sink.Addr()
	var proxy *wire.ChaosProxy
	var inj *fault.Injector
	if cfg.chaos > 0 {
		plan := fault.Plan{
			Seed: cfg.seed, DropProbe: cfg.chaos, DropAck: cfg.chaos,
			DropSchedule: cfg.chaos, DropFinish: cfg.chaos, MaxRetries: cfg.retries,
		}
		proxy, err = wire.NewChaosProxy(addr, wire.ChaosConfig{Plan: plan}, cfg.n, inst.T)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		addr = proxy.Addr()
		if inj, err = fault.NewInjector(plan, cfg.n, inst.T); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(out, "loadgen: %d sensors, %s arrival over %v, %s scheduler\n",
		cfg.n, cfg.arrival, cfg.ramp, sched.Name())

	// Ramp the fleet in. Every client records its join latency (dial
	// through the received Sync) and then runs its protocol loop.
	offsets := arrivalOffsets(cfg)
	joins := make(chan time.Duration, cfg.n)
	dialErrs := make(chan error, cfg.n)
	runErrs := make(chan error, cfg.n)
	clients := make([]*wire.SensorClient, cfg.n)
	start := time.Now()
	for i := 0; i < cfg.n; i++ {
		i := i
		go func() {
			if d := time.Until(start.Add(offsets[i])); d > 0 {
				time.Sleep(d)
			}
			scfg := wire.SensorConfigFor(inst, i)
			scfg.Faults = inj
			dialAt := time.Now()
			c, err := wire.DialSensor(addr, scfg)
			if err != nil {
				dialErrs <- fmt.Errorf("dial sensor %d: %w", i, err)
				return
			}
			joins <- time.Since(dialAt)
			clients[i] = c
			dialErrs <- nil
			runErrs <- c.Run(context.Background())
		}()
	}
	for i := 0; i < cfg.n; i++ {
		if err := <-dialErrs; err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		return nil, err
	}
	tourAt := time.Now()
	res, err := sink.RunTour(ctx)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Sensors:   cfg.n,
		Intervals: res.Intervals,
		DataMb:    core.ThroughputMb(res.Data),
		TourWall:  time.Since(tourAt),
	}
	// Clients close first so Run returns nil through the userClosed
	// path; closing the sink first races its conn teardown against
	// clients still draining their final frames, which at fleet scale
	// can surface as a spurious connection reset.
	for _, c := range clients {
		c.Close()
	}
	sink.Close()
	if proxy != nil {
		proxy.Close()
	}
	for i := 0; i < cfg.n; i++ {
		if err := <-runErrs; err != nil {
			return nil, fmt.Errorf("sensor client: %w", err)
		}
	}

	lat := make([]time.Duration, 0, cfg.n)
	for len(lat) < cfg.n {
		lat = append(lat, <-joins)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	rep.JoinP50 = exactQuantile(lat, 0.50)
	rep.JoinP95 = exactQuantile(lat, 0.95)
	rep.JoinP99 = exactQuantile(lat, 0.99)
	rep.JoinP999 = exactQuantile(lat, 0.999)

	hists := wire.LatencyHistograms()
	rep.RegRoundtripP99 = 1e9 * hists["wire_registration_roundtrip_seconds"].Quantile(0.99)
	rep.BroadcastFanoutP99 = hists["wire_broadcast_fanout_ns"].Quantile(0.99)
	rep.IntervalCommitP99 = hists["wire_interval_commit_ns"].Quantile(0.99)

	printReport(out, rep, hists)
	if cfg.stats {
		dumpSnapshot(out)
	}
	if cfg.jsonOut != "" {
		if err := writeJSON(cfg.jsonOut, cfg, rep); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "loadgen: wrote %s\n", cfg.jsonOut)
	}
	return rep, nil
}

// exactQuantile reads the q-th quantile from sorted samples (nearest-
// rank method; exact, unlike the histograms' in-bucket interpolation).
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func printReport(out io.Writer, rep *report, hists map[string]*metrics.Histogram) {
	fmt.Fprintf(out, "tour: %.3f Mb over %d intervals in %v\n",
		rep.DataMb, rep.Intervals, rep.TourWall.Round(time.Millisecond))
	fmt.Fprintf(out, "join latency (exact, %d samples): p50 %v  p95 %v  p99 %v  p99.9 %v\n",
		rep.Sensors, rep.JoinP50.Round(time.Microsecond), rep.JoinP95.Round(time.Microsecond),
		rep.JoinP99.Round(time.Microsecond), rep.JoinP999.Round(time.Microsecond))
	names := make([]string, 0, len(hists))
	for name, h := range hists {
		if h.Count() > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-40s %12s %12s %12s %12s\n", "sink histogram", "p50", "p95", "p99", "p99.9")
	for _, name := range names {
		h := hists[name]
		fmt.Fprintf(out, "%-40s %12s %12s %12s %12s\n", name,
			fmtLatency(name, h.Quantile(0.50)), fmtLatency(name, h.Quantile(0.95)),
			fmtLatency(name, h.Quantile(0.99)), fmtLatency(name, h.Quantile(0.999)))
	}
}

// fmtLatency renders a histogram value as a duration, picking the unit
// from the metric-name suffix (_seconds vs _ns).
func fmtLatency(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		v *= 1e9
	}
	return time.Duration(v).Round(time.Microsecond).String()
}

func dumpSnapshot(out io.Writer) {
	snap := metrics.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, "wire_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "--- wire metrics snapshot ---")
	for _, k := range keys {
		fmt.Fprintf(out, "%s %g\n", k, snap[k])
	}
}

// jsonRow matches cmd/benchjson's Result shape, so loadgen artifacts
// from two builds can be gated against each other with -compare.
type jsonRow struct {
	Name       string  `json:"name"`
	Case       string  `json:"case,omitempty"`
	N          int     `json:"n,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

func writeJSON(path string, cfg config, rep *report) error {
	row := func(kind string, v float64) jsonRow {
		return jsonRow{
			Name:       fmt.Sprintf("Loadgen/%s/N=%d", kind, cfg.n),
			Case:       kind,
			N:          cfg.n,
			Iterations: 1,
			NsPerOp:    v,
		}
	}
	rows := []jsonRow{
		row("TourWall", float64(rep.TourWall.Nanoseconds())),
		row("JoinP50", float64(rep.JoinP50.Nanoseconds())),
		row("JoinP99", float64(rep.JoinP99.Nanoseconds())),
		row("JoinP999", float64(rep.JoinP999.Nanoseconds())),
		row("RegRoundtripP99", rep.RegRoundtripP99),
		row("BroadcastFanoutP99", rep.BroadcastFanoutP99),
		row("IntervalCommitP99", rep.IntervalCommitP99),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
