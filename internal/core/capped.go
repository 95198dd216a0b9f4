package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mobisink/internal/gap"
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
	accum := func(runs []LinkRun) {
		for _, run := range runs {
			if run.Rate <= 0 || fine {
				continue
			}
			v := int64(math.Round(run.Rate * inst.Tau))
			if v <= 0 {
				fine = true
				return
			}
			g = gcd64(g, v)
		}
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		accum(s.Runs)
		for wi := range s.More {
			accum(s.More[wi].Runs)
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
// (the objective of each subproblem *is* the capped quantity). A fleet
// sensor takes at most one sink per absolute slot.
func OfflineSequential(inst *Instance, opts Options) (*Allocation, error) {
	return OfflineSequentialCtx(context.Background(), inst, opts)
}

// OfflineSequentialCtx is OfflineSequential with cancellation: the
// context is polled per sensor and inside each per-sensor knapsack. It
// runs gap.Compiled.Sequential over the GAP reduction, with the oracle
// opts choose, in a pooled gap.Workspace.
func OfflineSequentialCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	ws := gap.GetWorkspace()
	defer ws.Release()
	order := sensorOrder(inst, ws.Order(len(inst.Sensors)))
	quantum, eps := opts.Oracle(inst)
	g, err := inst.compileGAP(ws.Builder(), order, nil, quantum, eps)
	if err != nil {
		return nil, err
	}
	var caps []float64
	if inst.DataCaps != nil {
		caps = ws.Caps(len(order))
		for b, si := range order {
			caps[b] = inst.DataCaps[si]
		}
	}
	itemBin := ws.ItemBin(inst.T)
	if err := g.Sequential(ctx, ws.Scratch(), inst.slotGroups(), caps, inst.RateQuantumBits(), itemBin); err != nil {
		return nil, err
	}
	return inst.allocation(order, itemBin), nil
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
