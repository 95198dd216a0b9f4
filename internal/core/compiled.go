package core

import (
	"context"
	"errors"
	"sync"

	"mobisink/internal/gap"
)

// Compiled is the reusable solving form of OfflineAppro for one
// instance: the sensor order, the GAP reduction, and the per-entry
// quantized-weight tables are computed once, so repeated solves (batch
// jobs, benchmarks, cached serving) skip the per-call reduction entirely.
// A Compiled is safe for concurrent solves; it assumes the underlying
// Instance's sensors, horizon, and budgets are not mutated after
// compilation (DataCaps may change — the Appro reduction does not read
// them).
type Compiled struct {
	inst  *Instance
	order []int
	g     *gap.Compiled
}

// CompileAppro builds the solving form of the paper's Offline_Appro for
// inst under opts: the GAP reduction written straight into a gap.Builder
// in the paper's sensor order.
func CompileAppro(inst *Instance, opts Options) (*Compiled, error) {
	c, err := compileAppro(inst, opts, new(gap.Builder))
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// compileAppro is CompileAppro into b; the result shares b's arrays and
// is valid until b's next Reset.
func compileAppro(inst *Instance, opts Options, b *gap.Builder) (Compiled, error) {
	if inst == nil {
		return Compiled{}, errors.New("core: nil instance")
	}
	quantum, eps := opts.Oracle(inst)
	order := sensorOrder(inst)
	g, err := inst.compileGAP(b, order, inst.slotGroups(), quantum, eps)
	if err != nil {
		return Compiled{}, err
	}
	return Compiled{inst: inst, order: order, g: g}, nil
}

// builderPool recycles the builders OfflineApproCtx compiles into: its
// compiled form lives only for the one solve, so the builder's arrays
// serve the next call.
var builderPool = sync.Pool{New: func() any { return new(gap.Builder) }}

// itemBinPool recycles the per-solve slot→bin arrays.
var itemBinPool = sync.Pool{New: func() any { return new([]int32) }}

// Solve runs the local-ratio sweep on the compiled form, with the oracle
// CompileAppro's options chose.
func (c *Compiled) Solve(ctx context.Context) (*Allocation, error) {
	bp := itemBinPool.Get().(*[]int32)
	defer itemBinPool.Put(bp)
	if cap(*bp) < c.inst.T {
		*bp = make([]int32, c.inst.T)
	}
	itemBin := (*bp)[:c.inst.T]
	if _, err := c.g.SolveInto(ctx, nil, itemBin); err != nil {
		return nil, err
	}
	return c.inst.allocation(c.order, itemBin), nil
}
