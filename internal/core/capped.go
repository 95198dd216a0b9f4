package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mobisink/internal/knapsack"
)

// SetDataCaps attaches finite data queues to the instance: caps[i] is the
// number of bits sensor i has available to upload this tour. The paper
// assumes every sensor "has stored enough sensing data" (unbounded); data
// caps lift that assumption for workload-driven scenarios (see
// internal/traffic). A nil slice restores the unbounded model.
func (inst *Instance) SetDataCaps(caps []float64) error {
	if caps == nil {
		inst.DataCaps = nil
		return nil
	}
	if len(caps) != len(inst.Sensors) {
		return fmt.Errorf("core: %d caps for %d sensors", len(caps), len(inst.Sensors))
	}
	for i, c := range caps {
		if c < 0 || math.IsNaN(c) {
			return fmt.Errorf("core: invalid data cap %v for sensor %d", c, i)
		}
	}
	inst.DataCaps = append([]float64(nil), caps...)
	return nil
}

// DataCapOf returns sensor i's cap, or +Inf when unbounded.
func (inst *Instance) DataCapOf(i int) float64 {
	if inst.DataCaps == nil {
		return math.Inf(1)
	}
	return inst.DataCaps[i]
}

// RateQuantumBits returns a common divisor of all per-slot data volumes
// (r·τ), in bits, for the exact capped DP. The discrete rate table makes
// this a coarse quantum (400·τ bits for the paper's tiers); continuous
// models fall back to a 1-bit quantum, which stays exact because data
// volumes are integral in practice. Like WeightQuantum it is derived once
// per instance; safe for concurrent use.
func (inst *Instance) RateQuantumBits() float64 { return inst.oracle().rate }

// scanRateQuantum derives RateQuantumBits from the link tables.
func (inst *Instance) scanRateQuantum() float64 {
	g := int64(0)
	fine := false
	accum := func(rates []float64) {
		for _, r := range rates {
			if r <= 0 || fine {
				continue
			}
			v := int64(math.Round(r * inst.Tau))
			if v <= 0 {
				fine = true
				return
			}
			g = gcd64(g, v)
		}
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		accum(s.Rates)
		for wi := range s.More {
			accum(s.More[wi].Rates)
		}
	}
	if fine || g <= 0 {
		return 1
	}
	return float64(g)
}

// OfflineSequential packs sensors one by one in the paper's
// (start slot, end slot) order: each sensor solves an exact knapsack over
// the *still unclaimed* slots of its window — doubly constrained by its
// energy budget and, when data caps are set, by its available data. For
// separable assignment problems this sequential scheme with an exact
// single-bin oracle is a 1/2-approximation, and unlike the local-ratio
// profit decomposition it remains sound under per-sensor data caps
// (the objective of each subproblem *is* the capped quantity).
func OfflineSequential(inst *Instance, opts Options) (*Allocation, error) {
	return OfflineSequentialCtx(context.Background(), inst, opts)
}

// OfflineSequentialCtx is OfflineSequential with cancellation: the context
// is polled per sensor and threaded into each per-sensor knapsack.
func OfflineSequentialCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	order := sensorOrder(inst)
	alloc := inst.NewAllocation()
	quantum := inst.RateQuantumBits()
	solve := opts.SolverCtx(inst)
	fleet := inst.NumSinks() > 1
	var items []knapsack.Item
	var slots []int
	for _, si := range order {
		s := &inst.Sensors[si]
		items = items[:0]
		slots = slots[:0]
		collect := func(start int, rates, powers []float64) {
			for k, r := range rates {
				j := start + k
				if alloc.SlotOwner[j] != -1 {
					continue
				}
				p := powers[k]
				if r <= 0 || p <= 0 {
					continue
				}
				items = append(items, knapsack.Item{Profit: r * inst.Tau, Weight: p * inst.Tau})
				slots = append(slots, j)
			}
		}
		if s.Start >= 0 {
			collect(s.Start, s.Rates, s.Powers)
		}
		for wi := range s.More {
			w := &s.More[wi]
			collect(w.Start, w.Rates, w.Powers)
		}
		if fleet {
			items, slots = reduceByAbsSlot(inst, items, slots)
		}
		var sol knapsack.Solution
		var err error
		if cap := inst.DataCapOf(si); math.IsInf(cap, 1) {
			sol, err = solve(ctx, items, s.Budget)
		} else {
			sol, err = knapsack.MaxProfitUnderCtx(ctx, items, s.Budget, cap, quantum)
		}
		if err != nil {
			return nil, err
		}
		for _, k := range sol.Picked {
			alloc.SlotOwner[slots[k]] = si
		}
	}
	inst.RecomputeData(alloc)
	return alloc, nil
}

// reduceByAbsSlot thins a fleet sensor's candidate slots to at most one
// per absolute time slot — the dominant candidate (max profit, tie min
// weight, tie first seen) — so the group-blind per-sensor knapsack of the
// sequential packer can never produce a cross-sink conflict.
func reduceByAbsSlot(inst *Instance, items []knapsack.Item, slots []int) ([]knapsack.Item, []int) {
	best := make(map[int]int, len(slots)) // absolute slot → index in the kept prefix
	n := 0
	for k := range slots {
		a := inst.AbsSlot(slots[k])
		if bi, ok := best[a]; ok {
			cur, cand := items[bi], items[k]
			if cand.Profit > cur.Profit || (cand.Profit == cur.Profit && cand.Weight < cur.Weight) {
				items[bi], slots[bi] = cand, slots[k]
			}
			continue
		}
		items[n], slots[n] = items[k], slots[k]
		best[a] = n
		n++
	}
	return items[:n], slots[:n]
}

// validateDataCaps checks the per-sensor data constraint of an allocation.
func (inst *Instance) validateDataCaps(a *Allocation) error {
	if inst.DataCaps == nil {
		return nil
	}
	per := make([]float64, len(inst.Sensors))
	for j, i := range a.SlotOwner {
		if i >= 0 && i < len(per) {
			per[i] += inst.Sensors[i].RateAt(j) * inst.Tau
		}
	}
	for i, v := range per {
		if v > inst.DataCaps[i]+1e-6 {
			return fmt.Errorf("core: sensor %d uploads %v bits > data cap %v", i, v, inst.DataCaps[i])
		}
	}
	return nil
}
