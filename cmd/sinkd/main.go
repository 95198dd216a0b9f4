// Command sinkd runs the mobile sink as a network server speaking the
// internal/wire protocol over TCP. Three modes:
//
//	sinkd                      demo: serve on loopback, launch an in-process
//	                           sensor fleet, run one tour, print the outcome
//	                           (with -chaos, interpose the chaos proxy)
//	sinkd -serve               serve and wait for remote sensor clients
//	sinkd -connect host:port   run the sensor fleet against a remote sink
//
// Both sides derive the same instance from the same flags (-n, -seed,
// -path, -offset, -speed, -tau), so a -serve sink and a -connect fleet
// started with identical parameters reproduce the demo tour across
// machines. On a fault-free demo tour the result is checked byte-for-byte
// against the in-process online.Run.
//
// Durability and liveness: -wal journals every interval commit so a
// restarted sink resumes the tour where its predecessor died (the
// -crash-demo mode rehearses exactly that, mid-tour, and still passes
// the parity check); -heartbeat turns on idle keepalives plus derived
// read/write deadlines, and -session-ttl bounds how long a disconnected
// sensor may take to reconnect and resume its session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/metrics"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
	"mobisink/internal/solve"
	"mobisink/internal/wire"
)

type config struct {
	addr       string
	serve      bool
	connect    string
	algo       string
	n          int
	seed       int64
	pathLen    float64
	offset     float64
	speed      float64
	tau        float64
	chaos      float64
	delay      time.Duration
	retries    int
	window     time.Duration
	stats      bool
	wal        string
	sessionTTL time.Duration
	heartbeat  time.Duration
	crashDemo  bool
	fleet      int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:0", "listen address (sink modes)")
	flag.BoolVar(&cfg.serve, "serve", false, "serve and wait for remote sensor clients instead of running the built-in fleet")
	flag.StringVar(&cfg.connect, "connect", "", "run as the sensor fleet against the sink at this address")
	flag.StringVar(&cfg.algo, "algo", "appro", "per-interval scheduler: appro, maxmatch, greedy, or sequential")
	flag.IntVar(&cfg.n, "n", 100, "number of sensors")
	flag.Int64Var(&cfg.seed, "seed", 1, "topology and budget seed")
	flag.Float64Var(&cfg.pathLen, "path", 2000, "sink path length, m")
	flag.Float64Var(&cfg.offset, "offset", 40, "max sensor offset from the path, m")
	flag.Float64Var(&cfg.speed, "speed", 5, "sink speed, m/s")
	flag.Float64Var(&cfg.tau, "tau", 1, "slot length, s")
	flag.Float64Var(&cfg.chaos, "chaos", 0, "demo mode: uniform message drop rate injected by the chaos proxy")
	flag.DurationVar(&cfg.delay, "delay", 0, "demo mode: max per-frame chaos delay")
	flag.IntVar(&cfg.retries, "retries", 3, "recovery retransmission rounds (chaos mode)")
	flag.DurationVar(&cfg.window, "window", 100*time.Millisecond, "registration and confirm window (chaos and -serve modes)")
	flag.BoolVar(&cfg.stats, "stats", false, "dump the wire metrics snapshot after the tour")
	flag.StringVar(&cfg.wal, "wal", "", "journal interval commits to this file; an existing journal resumes the tour")
	flag.DurationVar(&cfg.sessionTTL, "session-ttl", time.Minute, "how long a disconnected sensor's session stays resumable")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 0, "idle keepalive period; also derives read (3×) and write (1×) deadlines on every connection")
	flag.BoolVar(&cfg.crashDemo, "crash-demo", false, "demo mode: kill the sink mid-tour and restart it from the journal, then check parity")
	flag.IntVar(&cfg.fleet, "fleet", 0, "convenience: demo with this many in-process sensors and print the latency percentile snapshot on exit (overrides -n, implies -stats)")
	flag.Parse()
	if cfg.fleet > 0 {
		cfg.n = cfg.fleet
		cfg.stats = true
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sinkd:", err)
		os.Exit(1)
	}
}

// buildInstance derives the tour's allocation problem from the shared
// flags, the same construction as the experiment harness.
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

// connOpts derives per-connection deadlines from the heartbeat period:
// reads tolerate three missed beats, writes get one period.
func connOpts(hb time.Duration) wire.ConnOptions {
	if hb <= 0 {
		return wire.ConnOptions{}
	}
	return wire.ConnOptions{ReadTimeout: 3 * hb, WriteTimeout: hb}
}

func run(cfg config) error {
	inst, err := buildInstance(cfg)
	if err != nil {
		return err
	}
	if cfg.connect != "" {
		return runFleet(cfg, inst)
	}
	sched, err := solve.NewScheduler(cfg.algo, solve.Options{})
	if err != nil {
		return err
	}
	var rec *wire.Recovery
	if cfg.chaos > 0 || cfg.serve {
		// A real network (or a lossy one) needs the timed recovery
		// protocol; only the loopback demo can run the idealized
		// no-timer exchange.
		rec = &wire.Recovery{MaxRetries: cfg.retries, RegWindow: cfg.window, ConfirmWindow: cfg.window}
	}
	walPath := cfg.wal
	if cfg.crashDemo {
		if cfg.serve {
			return fmt.Errorf("-crash-demo needs the built-in fleet (drop -serve)")
		}
		if walPath == "" {
			tmp, err := os.CreateTemp("", "sinkd-crash-*.wal")
			if err != nil {
				return err
			}
			walPath = tmp.Name()
			tmp.Close()
			defer os.Remove(walPath)
		}
	}
	sinkCfg := wire.SinkConfig{
		Inst: inst, Scheduler: sched, Addr: cfg.addr, Recovery: rec,
		WALPath: walPath, SessionTTL: cfg.sessionTTL,
		Heartbeat: cfg.heartbeat, Conn: connOpts(cfg.heartbeat),
	}
	if cfg.crashDemo {
		intervals := (inst.T + inst.Gamma - 1) / inst.Gamma
		sinkCfg.HaltAfter = intervals / 2
	}
	sink, err := wire.NewSink(sinkCfg)
	if err != nil {
		return err
	}
	defer sink.Close()
	fmt.Printf("sinkd: %s scheduler, %d sensors, T=%d slots, Γ=%d, listening on %s\n",
		sched.Name(), len(inst.Sensors), inst.T, inst.Gamma, sink.Addr())

	addr := sink.Addr()
	var proxy *wire.ChaosProxy
	var inj *fault.Injector
	if !cfg.serve && cfg.chaos > 0 {
		plan := fault.Plan{
			Seed: cfg.seed, DropProbe: cfg.chaos, DropAck: cfg.chaos,
			DropSchedule: cfg.chaos, DropFinish: cfg.chaos, MaxRetries: cfg.retries,
		}
		proxy, err = wire.NewChaosProxy(addr, wire.ChaosConfig{Plan: plan, MaxDelay: cfg.delay}, len(inst.Sensors), inst.T)
		if err != nil {
			return err
		}
		defer proxy.Close()
		addr = proxy.Addr()
		if inj, err = fault.NewInjector(plan, len(inst.Sensors), inst.T); err != nil {
			return err
		}
		fmt.Printf("sinkd: chaos proxy on %s (drop %.0f%%, delay ≤ %v)\n", addr, 100*cfg.chaos, cfg.delay)
	}

	ctx := context.Background()
	errs := make(chan error, len(inst.Sensors))
	var clients []*wire.SensorClient
	if !cfg.serve {
		for i := range inst.Sensors {
			scfg := wire.SensorConfigFor(inst, i)
			scfg.Faults = inj
			scfg.Conn = connOpts(cfg.heartbeat)
			scfg.Heartbeat = cfg.heartbeat
			if cfg.crashDemo {
				// The fleet must outlive the simulated crash and find the
				// restarted sink.
				scfg.Redial = &wire.Redial{
					MaxAttempts: 200, Base: 10 * time.Millisecond,
					Max: 200 * time.Millisecond, Seed: cfg.seed,
				}
			}
			client, err := wire.DialSensor(addr, scfg)
			if err != nil {
				return fmt.Errorf("dial sensor %d: %w", i, err)
			}
			clients = append(clients, client)
			go func() { errs <- client.Run(ctx) }()
		}
	} else {
		fmt.Printf("sinkd: waiting for %d sensor clients...\n", len(inst.Sensors))
	}
	if err := sink.WaitSensors(ctx); err != nil {
		return err
	}

	start := time.Now()
	res, err := sink.RunTour(ctx)
	if cfg.crashDemo && errors.Is(err, wire.ErrHalted) {
		bound := sink.Addr()
		fmt.Printf("crash-demo: sink halted after %d intervals; killing it and restarting from %s\n",
			sinkCfg.HaltAfter, walPath)
		sink.Close() // the simulated crash: connections severed, no End record
		restartCfg := sinkCfg
		restartCfg.Addr = bound // rebind so the redialing fleet finds us
		restartCfg.HaltAfter = 0
		sink, err = wire.NewSink(restartCfg)
		if err != nil {
			return fmt.Errorf("crash-demo restart: %w", err)
		}
		defer sink.Close()
		if err := sink.WaitSensors(ctx); err != nil {
			return err
		}
		res, err = sink.RunTour(ctx)
		if err == nil {
			fmt.Println("crash-demo: journal replayed, tour resumed and completed")
		}
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	sink.Close()
	if proxy != nil {
		proxy.Close()
	}
	if !cfg.serve {
		// Explicitly close the fleet so redial-enabled clients exit now
		// instead of exhausting their reconnect budget against a dead sink.
		for _, client := range clients {
			client.Close()
		}
		for range inst.Sensors {
			if err := <-errs; err != nil {
				return fmt.Errorf("sensor client: %w", err)
			}
		}
	}
	report(cfg, inst, sched, res, elapsed, proxy)
	if cfg.stats {
		dumpStats()
	}
	return nil
}

// report prints the tour outcome and, on a fault-free demo, the
// byte-for-byte parity check against the in-process runner.
func report(cfg config, inst *core.Instance, sched online.Scheduler, res *online.Result, elapsed time.Duration, proxy *wire.ChaosProxy) {
	fmt.Printf("tour: %.3f Mb over %d intervals in %v (wall clock)\n",
		core.ThroughputMb(res.Data), res.Intervals, elapsed.Round(time.Millisecond))
	m := res.Messages
	fmt.Printf("messages: %d probes, %d acks, %d schedules, %d finishes, %d retransmits, %d repairs (total %d)\n",
		m.Probes, m.Acks, m.Schedules, m.Finishes, m.Retransmits, m.RepairUnicasts, m.Total())
	if res.Fault != nil {
		fmt.Printf("recovery: %d retransmission rounds, %d budget clamps, %d missed schedules, %d repaired / %d lost slots, %d degraded intervals\n",
			res.Fault.ProbeRetransmissions, res.Fault.BudgetClamps, res.Fault.SchedulesMissed,
			res.Fault.RepairedSlots, res.Fault.LostSlots, res.Fault.DegradedIntervals)
	}
	if proxy != nil {
		cs := proxy.Stats()
		fmt.Printf("chaos: dropped %d frames (%d probes, %d acks, %d schedules, %d repairs, %d finishes), delayed %d\n",
			cs.Dropped(), cs.DroppedProbes, cs.DroppedAcks, cs.DroppedSchedules, cs.DroppedRepairs, cs.DroppedFinishes, cs.Delayed)
	}
	if err := res.CheckLemma1(); err != nil {
		fmt.Println("lemma 1: VIOLATED:", err)
	} else {
		fmt.Println("lemma 1: ok (every sensor registered in ≤ 2 consecutive intervals)")
	}
	if cfg.serve || cfg.chaos > 0 {
		return
	}
	want, err := online.Run(inst, sched)
	if err != nil {
		fmt.Println("parity: in-process run failed:", err)
		return
	}
	switch {
	case res.Data != want.Data:
		fmt.Printf("parity: MISMATCH — wire %v bits, in-process %v bits\n", res.Data, want.Data)
	case !reflect.DeepEqual(res.Alloc.SlotOwner, want.Alloc.SlotOwner):
		fmt.Println("parity: MISMATCH — slot assignments diverge")
	case res.Messages != want.Messages:
		fmt.Printf("parity: MISMATCH — wire %+v, in-process %+v\n", res.Messages, want.Messages)
	default:
		fmt.Println("parity: wire tour byte-identical to in-process online.Run")
	}
}

// runFleet is -connect mode: the sensor side only, built from the same
// flags as the remote sink.
func runFleet(cfg config, inst *core.Instance) error {
	ctx := context.Background()
	errs := make(chan error, len(inst.Sensors))
	for i := range inst.Sensors {
		scfg := wire.SensorConfigFor(inst, i)
		scfg.Conn = connOpts(cfg.heartbeat)
		scfg.Heartbeat = cfg.heartbeat
		// A remote fleet reconnects and resumes on transport failures
		// (including a sink restart from its journal).
		scfg.Redial = &wire.Redial{
			MaxAttempts: 30, Base: 20 * time.Millisecond,
			Max: 500 * time.Millisecond, Seed: cfg.seed,
		}
		client, err := wire.DialSensor(cfg.connect, scfg)
		if err != nil {
			return fmt.Errorf("dial sensor %d: %w", i, err)
		}
		go func() { errs <- client.Run(ctx) }()
	}
	fmt.Printf("sinkd: %d sensor clients connected to %s; serving until the sink closes\n",
		len(inst.Sensors), cfg.connect)
	for range inst.Sensors {
		if err := <-errs; err != nil {
			return fmt.Errorf("sensor client: %w", err)
		}
	}
	fmt.Println("sinkd: tour complete, sink closed the connections")
	return nil
}

// dumpStats prints the wire metrics from the process snapshot, sorted
// for stable diffing.
func dumpStats() {
	snap := metrics.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, "wire_") || strings.HasPrefix(k, "wal_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Println("--- wire metrics snapshot ---")
	for _, k := range keys {
		fmt.Printf("%s %g\n", k, snap[k])
	}
	dumpPercentiles()
}

// dumpPercentiles prints the wire latency histograms as a p50/p95/p99/
// p99.9 table — the -fleet mode's exit report.
func dumpPercentiles() {
	hists := wire.LatencyHistograms()
	names := make([]string, 0, len(hists))
	for name, h := range hists {
		if h.Count() > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("--- latency percentiles ---")
	fmt.Printf("%-40s %12s %12s %12s %12s\n", "histogram", "p50", "p95", "p99", "p99.9")
	for _, name := range names {
		h := hists[name]
		fmt.Printf("%-40s %12s %12s %12s %12s\n", name,
			fmtLatency(name, h.Quantile(0.50)), fmtLatency(name, h.Quantile(0.95)),
			fmtLatency(name, h.Quantile(0.99)), fmtLatency(name, h.Quantile(0.999)))
	}
}

// fmtLatency renders one histogram value as a duration, using the
// metric-name suffix to pick the recorded unit.
func fmtLatency(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		v *= 1e9
	}
	return time.Duration(v).Round(time.Microsecond).String()
}
