package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/metrics"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
	"mobisink/internal/wal"
	"mobisink/internal/wire"
)

// Sink speed r_s (m/s) and slot length τ (s) of every workload.
const (
	speed = 5.0
	tau   = 1.0
)

// wireConfig is a loopback-TCP tour workload: one sink, N sensor
// clients in this process, one tour in flight at a time.
type wireConfig struct {
	N       int
	PathLen float64 // m
	Offset  float64 // max sensor distance from the path, m
	Sched   func() online.Scheduler
	// Every tour gets its own deployment, so a run's timings spread over
	// many topologies rather than resting on a few. data_mb and
	// offline_frac_ub average the first QualityTours deployments only:
	// every run measures those, so the two repeat exactly per seed.
	QualityTours int
	// WAL journals every commit (fsync'd) and restarts a sink on the
	// completed journal after each tour.
	WAL bool
}

var (
	fleetConfig = wireConfig{
		N: 1000, PathLen: 4000, Offset: 40, QualityTours: 4,
		Sched: func() online.Scheduler { return &online.Greedy{} },
	}
	durableConfig = wireConfig{
		N: 300, PathLen: 2000, Offset: 40, QualityTours: 8,
		Sched: func() online.Scheduler { return &online.Appro{} },
		WAL:   true,
	}
)

// buildWireInstance generates the tour's deployment and budgets the way
// cmd/sinkd does (sunny panel, one tour of accrual over the paper's 10 km
// reference path, 20% jitter) and builds the allocation instance.
func buildWireInstance(p *phase, op, parent int, cfg wireConfig, seed int64) (*core.Instance, error) {
	var dep *network.Deployment
	_, err := p.span(op, parent, "core.generate", func(int) error {
		var err error
		dep, err = network.Generate(network.Params{N: cfg.N, PathLength: cfg.PathLen, MaxOffset: cfg.Offset, Seed: seed})
		if err != nil {
			return err
		}
		return dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 10000/speed, 0.2, rand.New(rand.NewSource(seed)))
	})
	if err != nil {
		return nil, err
	}
	var inst *core.Instance
	d, err := p.span(op, parent, "core.build", func(int) error {
		var err error
		inst, err = core.BuildInstance(dep, radio.Paper2013(), speed, tau)
		return err
	})
	p.add("core_build_ms", ms(d))
	return inst, err
}

// tourSeed is the deployment seed of a run's op-th tour.
func tourSeed(seed int64, op int) int64 { return seed*100000 + int64(op) }

// fleet is the in-process sensor side of one tour.
type fleet struct {
	clients []*wire.SensorClient
	errs    chan error
	cancel  context.CancelFunc
}

// join dials every sensor in index order, timing each DialSensor call,
// and starts its protocol loop.
func join(ctx context.Context, p *phase, op, parent int, inst *core.Instance, addr string) (*fleet, error) {
	ctx, cancel := context.WithCancel(ctx)
	f := &fleet{errs: make(chan error, len(inst.Sensors)), cancel: cancel}
	for i := range inst.Sensors {
		var c *wire.SensorClient
		d, err := p.span(op, parent, "wire.join", func(int) error {
			var err error
			c, err = wire.DialSensor(addr, wire.SensorConfigFor(inst, i))
			return err
		})
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("dial sensor %d: %w", i, err)
		}
		if p.traced {
			p.add("join_ms", ms(d))
		}
		f.clients = append(f.clients, c)
		go func() { f.errs <- c.Run(ctx) }()
	}
	return f, nil
}

// stop closes every client and waits for each protocol loop to return,
// reporting the first client error. Clients close before their sink, so
// Run returns through the local close rather than racing the sink's
// teardown.
func (f *fleet) stop() error {
	for _, c := range f.clients {
		c.Close()
	}
	var first error
	for range f.clients {
		if err := <-f.errs; err != nil && first == nil {
			first = fmt.Errorf("sensor client: %w", err)
		}
	}
	f.cancel()
	return first
}

// awaitLedgers waits until every client's residual budget and queue
// equal the sink's, bit for bit: the last Finish is in flight when
// RunTour returns.
func (f *fleet) awaitLedgers(res *online.Result) error {
	deadline := time.Now().Add(10 * time.Second)
	for i, c := range f.clients {
		for c.Residual() != res.Residual[i] || c.ResidualData() != res.ResidualData[i] {
			if time.Now().After(deadline) {
				return fmt.Errorf("sensor %d ledger: client %v J / %v bits, sink %v J / %v bits",
					i, c.Residual(), c.ResidualData(), res.Residual[i], res.ResidualData[i])
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// sameResult reports the first difference between two tour results.
func sameResult(got, want *online.Result) error {
	switch {
	case !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner):
		return errors.New("slot owners differ")
	case math.Float64bits(got.Data) != math.Float64bits(want.Data):
		return fmt.Errorf("data %v bits, want %v", got.Data, want.Data)
	case got.Messages != want.Messages:
		return fmt.Errorf("messages %+v, want %+v", got.Messages, want.Messages)
	case got.Intervals != want.Intervals:
		return fmt.Errorf("%d intervals, want %d", got.Intervals, want.Intervals)
	case !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn):
		return errors.New("registrations differ")
	}
	for i := range want.Residual {
		if math.Float64bits(got.Residual[i]) != math.Float64bits(want.Residual[i]) ||
			math.Float64bits(got.ResidualData[i]) != math.Float64bits(want.ResidualData[i]) {
			return fmt.Errorf("sensor %d residual differs", i)
		}
	}
	return nil
}

// wireTour is what one measured tour hands to its checks.
type wireTour struct {
	inst    *core.Instance
	res     *online.Result
	restart *online.Result // replay-only tour on the journal (WAL only)
	journal string
}

// runWireOp runs operation op: set-up (instance, sink, fleet join), the
// tour, teardown and, with a WAL, a restart on the completed journal;
// then the output checks and, when traced, the journal probe.
func runWireOp(ctx context.Context, p *phase, cfg wireConfig, seed int64, op int, dir string) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	var before metrics.Values
	if p.traced {
		before = metrics.Snapshot()
	}
	mem := p.memStart()
	var t wireTour
	opStart := time.Now()
	root := p.tr.open(op, 0, "op", opStart)
	err := wireTourOp(ctx, p, cfg, seed, op, root, dir, opStart, &t)
	opEnd := time.Now()
	p.tr.close(root, opEnd)
	mem.stop()
	if t.journal != "" {
		defer os.Remove(t.journal)
	}
	if err != nil {
		return err
	}
	p.add("op_rate", 1/opEnd.Sub(opStart).Seconds())
	if p.traced {
		after := metrics.Snapshot()
		p.add("frames_sent", sumPrefix(after, "wire_frames_sent_total")-sumPrefix(before, "wire_frames_sent_total"))
		p.add("frames_recv", sumPrefix(after, "wire_frames_received_total")-sumPrefix(before, "wire_frames_received_total"))
	}
	p.gammaTau = float64(t.inst.Gamma) * t.inst.Tau

	var recs []wal.Record
	if _, err := p.span(op, 0, "check", func(id int) error {
		var err error
		recs, err = checkWireTour(p, op, id, cfg, &t)
		return err
	}); err != nil {
		return err
	}
	if !p.traced {
		return nil
	}
	_, err = p.span(op, 0, "probe", func(id int) error {
		return probe(p, op, id, filepath.Join(dir, "probe.wal"), recs, cfg.WAL)
	})
	return err
}

// wireTourOp is the measured part of one wire operation.
func wireTourOp(ctx context.Context, p *phase, cfg wireConfig, seed int64, op, root int, dir string, opStart time.Time, t *wireTour) error {
	inst, err := buildWireInstance(p, op, root, cfg, tourSeed(seed, op))
	if err != nil {
		return err
	}
	t.inst = inst
	sched := &timedScheduler{Scheduler: cfg.Sched(), busy: p.traced}
	scfg := wire.SinkConfig{Inst: inst, Scheduler: sched}
	if cfg.WAL {
		t.journal = filepath.Join(dir, fmt.Sprintf("tour-%d.wal", op))
		if err := os.Remove(t.journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		scfg.WALPath = t.journal
	}
	var sink *wire.Sink
	if _, err := p.span(op, root, "wire.sink_start", func(int) error {
		sink, err = wire.NewSink(scfg)
		return err
	}); err != nil {
		return err
	}
	defer sink.Close()
	f, err := join(ctx, p, op, root, inst, sink.Addr())
	if err != nil {
		return err
	}
	if _, err := p.span(op, root, "wire.wait", func(int) error { return sink.WaitSensors(ctx) }); err != nil {
		f.stop()
		return err
	}
	p.add("setup_s", time.Since(opStart).Seconds())

	tourStart := time.Now()
	tourID := p.tr.open(op, root, "wire.tour", tourStart)
	res, err := sink.RunTour(ctx)
	tourEnd := time.Now()
	p.tr.close(tourID, tourEnd)
	if err != nil {
		f.stop()
		return err
	}
	t.res = res
	p.add("tour_s", tourEnd.Sub(tourStart).Seconds())
	p.add("interval_ms", p.recordTour(op, tourID, sched, tourStart, tourEnd, res.Intervals)...)

	if _, err := p.span(op, root, "wire.teardown", func(int) error {
		ledgers := f.awaitLedgers(res)
		stopErr := f.stop()
		sink.Close()
		return errors.Join(ledgers, stopErr)
	}); err != nil {
		return err
	}
	if !cfg.WAL {
		return nil
	}
	d, err := p.span(op, root, "wire.restart", func(int) error {
		scfg.Scheduler = cfg.Sched()
		again, err := wire.NewSink(scfg)
		if err != nil {
			return err
		}
		defer again.Close()
		t.restart, err = again.RunTour(ctx)
		return err
	})
	p.add("restart_ms", ms(d))
	return err
}

// checkWireTour verifies one tour: bit-equal to online.Run on the same
// instance, feasible, Lemma 1, within the upper bound; with a WAL, the
// restarted sink's replay equals the live tour and the journal holds
// exactly the tour's commits. It returns the tour's journal records.
func checkWireTour(p *phase, op, parent int, cfg wireConfig, t *wireTour) ([]wal.Record, error) {
	inst, res := t.inst, t.res
	ref, err := referenceRun(p, op, parent, inst, cfg.Sched())
	if err != nil {
		return nil, err
	}
	if err := sameResult(res, ref); err != nil {
		return nil, fmt.Errorf("wire tour vs online.Run: %w", err)
	}
	q, err := checkBounds(p, op, parent, inst, res)
	if err != nil {
		return nil, err
	}
	if op < cfg.QualityTours {
		p.quality[op] = q
	}
	if !cfg.WAL {
		return tourRecords(inst, res, 0), nil
	}
	if err := sameResult(t.restart, res); err != nil {
		return nil, fmt.Errorf("replay-only tour vs live tour: %w", err)
	}
	recs, err := scanJournal(t.journal)
	if err != nil {
		return nil, err
	}
	b, ok := recs[0].(wal.Begin)
	if !ok {
		return nil, errors.New("journal does not start with Begin")
	}
	if err := sameRecords(recs, tourRecords(inst, res, b.Fingerprint)); err != nil {
		return nil, err
	}
	return recs, nil
}

// referenceRun runs the in-process tour on inst, timing it and its
// scheduler calls.
func referenceRun(p *phase, op, parent int, inst *core.Instance, s online.Scheduler) (*online.Result, error) {
	sched := &timedScheduler{Scheduler: s, busy: p.traced}
	var res *online.Result
	d, err := p.span(op, parent, "online.run", func(id int) error {
		var err error
		res, err = online.Run(inst, sched)
		for _, c := range sched.calls {
			p.tr.add(op, id, "sched.schedule", c.Start, c.End)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if p.traced {
		p.add("online_run_ms", ms(d))
		p.add("online_protocol_ms", ms(d-busyTotal(sched)))
	}
	return res, nil
}

// checkBounds validates the online allocation, Lemma 1, and that both
// it and Offline_Appro stay within the instance's upper bound; it
// returns the collected data and the offline share of the bound.
func checkBounds(p *phase, op, parent int, inst *core.Instance, res *online.Result) (quality, error) {
	if _, err := inst.Validate(res.Alloc); err != nil {
		return quality{}, err
	}
	if err := res.CheckLemma1(); err != nil {
		return quality{}, err
	}
	var ub float64
	d, _ := p.span(op, parent, "core.upper_bound", func(int) error {
		ub = inst.UpperBound()
		return nil
	})
	p.add("core_ub_ms", ms(d))
	var off *core.Allocation
	d, err := p.span(op, parent, "core.offline_appro", func(int) error {
		var err error
		off, err = core.OfflineAppro(inst, core.Options{})
		return err
	})
	if err != nil {
		return quality{}, err
	}
	p.add("core_offline_ms", ms(d))
	offData, err := inst.Validate(off)
	if err != nil {
		return quality{}, fmt.Errorf("Offline_Appro: %w", err)
	}
	slack := 1 + 1e-9
	if res.Data > ub*slack || offData > ub*slack {
		return quality{}, fmt.Errorf("collected %v (online) / %v (offline) bits above the upper bound %v", res.Data, offData, ub)
	}
	if ub <= 0 {
		return quality{}, errors.New("upper bound is zero: the instance collects nothing")
	}
	return quality{dataMb: core.ThroughputMb(res.Data), fracUB: offData / ub}, nil
}

// probe journals the tour's records out of band and records the wal
// layer's append and replay times and the journal size. When the tour
// itself journaled (inSink), the probe's append and replay times are the
// estimate of the wal share inside RunTour and the restart.
func probe(p *phase, op, parent int, path string, recs []wal.Record, inSink bool) error {
	w, err := probeJournal(path, recs)
	if err != nil {
		return err
	}
	for _, a := range w.appends {
		p.tr.add(op, parent, "wal.append", a.start, a.end)
		p.add("wal_append_us", float64(a.end.Sub(a.start))/float64(time.Microsecond))
		if inSink {
			p.walEst += a.end.Sub(a.start)
		}
	}
	p.tr.add(op, parent, "wal.replay", w.replay.start, w.replay.end)
	p.add("wal_replay_ms", ms(w.replay.end.Sub(w.replay.start)))
	p.add("wal_bytes", float64(w.bytes))
	if inSink {
		p.walEst += w.replay.end.Sub(w.replay.start)
	}
	return nil
}
