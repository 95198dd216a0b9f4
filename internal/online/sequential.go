package online

import (
	"context"
	"math"

	"mobisink/internal/core"
	"mobisink/internal/knapsack"
)

// Sequential is the per-interval scheduler for instances with finite data
// queues (core.Instance.DataCaps): registered sensors are processed in
// (clipped start, clipped end) order and each solves an exact knapsack over
// the still-unclaimed interval slots, doubly constrained by its residual
// energy budget and its residual data. On uncapped instances it degrades to
// plain sequential packing (a 1/2-approximation for separable assignment).
type Sequential struct {
	Opts core.Options
}

// Name implements Scheduler.
func (s *Sequential) Name() string { return "Online_Sequential" }

// CapAware marks the scheduler as safe for data-capped instances.
func (s *Sequential) CapAware() bool { return true }

// Schedule implements Scheduler.
func (s *Sequential) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	order := claimOrder(regs, nil)
	assign := make(map[int]int)
	solve := s.Opts.SolverCtx(inst)
	quantum := inst.RateQuantumBits()
	var items []knapsack.Item
	var slots []int
	for _, k := range order {
		r := regs[k]
		sen := &inst.Sensors[r.Sensor]
		items = items[:0]
		slots = slots[:0]
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if _, taken := assign[j]; taken {
				continue
			}
			rate, pw := sen.RateAt(j), sen.PowerAt(j)
			if rate <= 0 || pw <= 0 {
				continue
			}
			items = append(items, knapsack.Item{Profit: rate * inst.Tau, Weight: pw * inst.Tau})
			slots = append(slots, j)
		}
		var sol knapsack.Solution
		var err error
		if math.IsInf(r.DataLeft, 1) {
			sol, err = solve(ctx, items, r.Budget)
		} else {
			sol, err = knapsack.MaxProfitUnderCtx(ctx, items, r.Budget, r.DataLeft, quantum)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range sol.Picked {
			assign[slots[p]] = r.Sensor
		}
	}
	return assign, nil
}
