package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
)

// sweepConfig is the paper's Figure 2 cell run in process: a pool of
// Cycles × len(Sizes) distinct instances on the paper's topology
// (10 km path, 180 m offset), each solved by Offline_Appro, Online_Appro
// and the upper bound, one instance in flight at a time.
type sweepConfig struct {
	Sizes  []int
	Cycles int
}

var sweepDefault = sweepConfig{Sizes: []int{100, 300, 600}, Cycles: 32}

// setupSamples is how many set-up samples the pool build yields: the
// cycles are built in this many equal chunks, each timed.
const setupSamples = 8

// buildSweepInstance builds one Figure 2 instance: sunny 10×10 mm panel,
// three tours of steady-state accrual, 50% budget jitter, multi-rate
// Paper2013 radio.
func buildSweepInstance(p *phase, op int, n int, seed int64) (*core.Instance, error) {
	dep, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		return nil, err
	}
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 3*10000/speed, 0.5, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	var inst *core.Instance
	d, err := p.span(op, 0, "core.build", func(int) error {
		var err error
		inst, err = core.BuildInstance(dep, radio.Paper2013(), speed, tau)
		return err
	})
	p.add("core_build_ms", ms(d))
	return inst, err
}

// chunkCycles is how many size cycles one set-up sample builds.
func (cfg sweepConfig) chunkCycles() int { return max(1, cfg.Cycles/setupSamples) }

// chunks is how many chunks make up the pool.
func (cfg sweepConfig) chunks() int {
	step := cfg.chunkCycles()
	return (cfg.Cycles + step - 1) / step
}

// buildChunk builds chunk k of the pool — its k-th run of chunkCycles
// size cycles; pool instance i has seed 1000·seed+i — and records the
// build's wall time as one set-up sample.
func buildChunk(p *phase, cfg sweepConfig, seed int64, k int) ([]*core.Instance, error) {
	step := cfg.chunkCycles()
	var insts []*core.Instance
	start := time.Now()
	for c := k * step; c < min((k+1)*step, cfg.Cycles); c++ {
		for j, n := range cfg.Sizes {
			inst, err := buildSweepInstance(p, -1, n, seed*1000+int64(c*len(cfg.Sizes)+j))
			if err != nil {
				return nil, fmt.Errorf("sweep instance n=%d: %w", n, err)
			}
			insts = append(insts, inst)
		}
	}
	p.add("setup_s", time.Since(start).Seconds())
	return insts, nil
}

// buildPool builds the sweep's instances chunk by chunk.
func buildPool(p *phase, cfg sweepConfig, seed int64) ([]*core.Instance, error) {
	var pool []*core.Instance
	for k := 0; k < cfg.chunks(); k++ {
		insts, err := buildChunk(p, cfg, seed, k)
		if err != nil {
			return nil, err
		}
		pool = append(pool, insts...)
	}
	return pool, nil
}

// runSweepPass solves every pool instance once and records the pass's
// throughput and interval tail. Instance k of the pool is operation
// base+k. The tail is taken within a pass because later passes repeat
// the same instances: pooled over passes, the "ten samples beyond" would
// be one slow instance solved ten times.
func runSweepPass(ctx context.Context, p *phase, pool []*core.Instance, base int, probeDir string) error {
	var busy time.Duration
	var err error
	first := len(p.samples["interval_ms"])
	for k, inst := range pool {
		if err = ctx.Err(); err != nil {
			break
		}
		p.attempted++
		d, opErr := runSweepOp(p, inst, base+k, k, probeDir)
		if opErr != nil {
			p.failed++
			err = fmt.Errorf("instance %d (n=%d): %w", k, len(inst.Sensors), opErr)
			continue
		}
		busy += d
	}
	if err == nil {
		p.add("op_rate", float64(len(pool))/busy.Seconds())
		p.add("pass_tail_ms", tail(p.samples["interval_ms"][first:]).Value)
	}
	return err
}

// runSweepOp solves pool instance key as operation op — online.Run with
// Online_Appro, Offline_Appro and the upper bound, in that order — and
// checks the outputs. It returns the measured wall time of the three
// calls.
func runSweepOp(p *phase, inst *core.Instance, op, key int, probeDir string) (time.Duration, error) {
	mem := p.memStart()
	var res *online.Result
	sched := &timedScheduler{Scheduler: &online.Appro{}, busy: p.traced}
	opStart := time.Now()
	root := p.tr.open(op, 0, "op", opStart)
	tourStart := time.Now()
	tourID := p.tr.open(op, root, "online.run", tourStart)
	res, err := online.Run(inst, sched)
	tourEnd := time.Now()
	p.tr.close(tourID, tourEnd)
	if err == nil {
		p.add("tour_s", tourEnd.Sub(tourStart).Seconds())
		// One interval sample per instance, its mean. Single intervals'
		// p99.8 here is the GC assists the one busy goroutine takes
		// when the idle vCPU wakes late; it read 0.8 or 2.5 ms with the
		// host's load, not with the engine's work.
		p.recordTour(op, tourID, sched, tourStart, tourEnd, res.Intervals)
		p.add("interval_ms", ms(tourEnd.Sub(tourStart))/float64(res.Intervals))
		if p.traced {
			p.add("online_run_ms", ms(tourEnd.Sub(tourStart)))
			p.add("online_protocol_ms", ms(tourEnd.Sub(tourStart)-busyTotal(sched)))
		}
		var q quality
		if q, err = checkBounds(p, op, root, inst, res); err == nil {
			p.quality[key] = q
		}
	}
	opEnd := time.Now()
	p.tr.close(root, opEnd)
	mem.stop()
	if err != nil {
		return 0, err
	}
	if p.traced && probeDir != "" {
		_, err = p.span(op, 0, "probe", func(id int) error {
			return probe(p, op, id, filepath.Join(probeDir, "probe.wal"), tourRecords(inst, res, 0), false)
		})
	}
	return opEnd.Sub(opStart), err
}
