package online

import (
	"context"

	"mobisink/internal/core"
)

// Sequential is the per-interval scheduler for instances with finite data
// queues (core.Instance.DataCaps): registered sensors are processed in
// (clipped start, clipped end) order and each solves a knapsack over the
// still-unclaimed interval slots, doubly constrained by its residual
// energy budget and its residual data. On uncapped instances it degrades to
// plain sequential packing (a 1/2-approximation for separable assignment).
type Sequential struct {
	Opts core.Options
}

// Name implements Scheduler.
func (s *Sequential) Name() string { return "Online_Sequential" }

// CapAware marks the scheduler as safe for data-capped instances.
func (s *Sequential) CapAware() bool { return true }

// Schedule implements Scheduler. It runs gap.Compiled.Sequential over the
// interval's GAP, one bin per claim in claim order, each capped at the
// claim's DataLeft.
func (s *Sequential) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	sc := gapPool.Get().(*gapScratch)
	defer gapPool.Put(sc)
	sc.order = claimOrder(regs, sc.order)
	quantum, eps := s.Opts.Oracle(inst)
	c, err := sc.compile(inst, iv, regs, quantum, eps)
	if err != nil {
		return nil, err
	}
	sc.caps = sc.caps[:0]
	for _, k := range sc.order {
		sc.caps = append(sc.caps, regs[k].DataLeft)
	}
	if _, err := c.Sequential(ctx, &sc.s, nil, sc.caps, inst.RateQuantumBits(), sc.itemBin); err != nil {
		return nil, err
	}
	return sc.plan(iv, regs), nil
}
