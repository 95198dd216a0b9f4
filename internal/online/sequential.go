package online

import (
	"context"

	"mobisink/internal/core"
	"mobisink/internal/gap"
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
	ws := gap.GetWorkspace()
	defer ws.Release()
	order := claimOrder(regs, ws.Order(len(regs)))
	quantum, eps := s.Opts.Oracle(inst)
	c, err := compile(ws.Builder(), inst, iv, regs, order, quantum, eps)
	if err != nil {
		return nil, err
	}
	caps := ws.Caps(len(order))
	for b, k := range order {
		caps[b] = regs[k].DataLeft
	}
	itemBin := ws.ItemBin(c.NumItems)
	if err := c.Sequential(ctx, ws.Scratch(), nil, caps, inst.RateQuantumBits(), itemBin); err != nil {
		return nil, err
	}
	return plan(iv, regs, order, itemBin), nil
}
