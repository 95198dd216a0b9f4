// Package fair provides fairness-oriented slot allocation and fairness
// metrics. The paper maximizes total collected data; the related work it
// builds on (Liu et al., its refs. [14][16]) instead targets lexicographic
// max-min fairness across sensors. WaterFill is a progressive-filling
// heuristic for that objective on the same slot/energy model, enabling the
// throughput-vs-fairness comparison; JainIndex quantifies the difference.
package fair

import (
	"context"
	"errors"
	"sort"

	"mobisink/internal/core"
)

// WaterFill allocates slots by progressive filling: repeatedly give the
// currently poorest sensor (least collected data) its highest-rate
// affordable unassigned slot, freezing sensors that cannot be improved.
// The result approximates lexicographic max-min fairness; it is always
// feasible. On fleet instances every sink's window competes, and a sensor
// never claims two slots of the same absolute time slot (the cross-sink
// constraint).
func WaterFill(inst *core.Instance) (*core.Allocation, error) {
	return WaterFillCtx(context.Background(), inst)
}

// WaterFillCtx is WaterFill with cancellation: the context is polled once
// per filling step (each step scans one sensor's windows).
func WaterFillCtx(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
	if inst == nil {
		return nil, errors.New("fair: nil instance")
	}
	alloc := inst.NewAllocation()
	n := len(inst.Sensors)
	data := make([]float64, n)
	budget := make([]float64, n)
	active := make([]bool, n)
	for i := range inst.Sensors {
		budget[i] = inst.Sensors[i].Budget
		active[i] = inst.Sensors[i].Start >= 0
	}
	// Order of consideration among equal-data sensors: by id, for
	// determinism.
	remaining := 0
	for _, a := range active {
		if a {
			remaining++
		}
	}
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Poorest active sensor.
		pick := -1
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			if pick == -1 || data[i] < data[pick] {
				pick = i
			}
		}
		s := &inst.Sensors[pick]
		// Its best affordable unassigned slot across every window.
		bestSlot, bestRate := -1, 0.0
		consider := func(runs []core.LinkRun) {
			for _, run := range runs {
				r, p := run.Rate, run.Power
				if r <= 0 || p <= 0 || p*inst.Tau > budget[pick]+1e-12 {
					continue
				}
				for j := run.Start; j <= run.End && r > bestRate; j++ {
					if alloc.SlotOwner[j] == -1 && !holdsAbsSlot(inst, alloc.SlotOwner, pick, j) {
						bestRate, bestSlot = r, j
					}
				}
			}
		}
		consider(s.Runs)
		for wi := range s.More {
			consider(s.More[wi].Runs)
		}
		if bestSlot == -1 {
			active[pick] = false
			remaining--
			continue
		}
		alloc.SlotOwner[bestSlot] = pick
		budget[pick] -= s.PowerAt(bestSlot) * inst.Tau
		data[pick] += bestRate * inst.Tau
	}
	inst.RecomputeData(alloc)
	return alloc, nil
}

// holdsAbsSlot reports whether sensor i transmits during global slot j's
// absolute slot, in any sink's segment of a fleet's slot space (the
// cross-sink constraint). Each segment holds that absolute slot at the
// same offset, so the allocation's slot owners answer it.
func holdsAbsSlot(inst *core.Instance, owner []int, i, j int) bool {
	a := inst.AbsSlot(j)
	for _, sk := range inst.Sinks {
		if a < sk.T && owner[sk.Offset+a] == i {
			return true
		}
	}
	return false
}

// PerSensorData returns each sensor's collected data under an allocation,
// in bits.
func PerSensorData(inst *core.Instance, a *core.Allocation) []float64 {
	out := make([]float64, len(inst.Sensors))
	for j, i := range a.SlotOwner {
		if i >= 0 && i < len(out) {
			out[i] += inst.Sensors[i].RateAt(j) * inst.Tau
		}
	}
	return out
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over the
// *served* population given by xs; it is 1 for perfectly equal shares and
// 1/n when one member takes everything. Empty or all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CoverageStats summarizes how the collected data is spread over sensors.
type CoverageStats struct {
	Served    int     // sensors with any collected data
	Eligible  int     // sensors with a nonempty window and positive budget
	MinServed float64 // minimum nonzero per-sensor data, bits
	Jain      float64 // Jain index over eligible sensors
}

// Coverage computes CoverageStats of an allocation.
func Coverage(inst *core.Instance, a *core.Allocation) CoverageStats {
	per := PerSensorData(inst, a)
	var st CoverageStats
	var eligibleData []float64
	for i, x := range per {
		s := &inst.Sensors[i]
		eligible := s.Start >= 0 && s.Budget > 0
		if eligible {
			st.Eligible++
			eligibleData = append(eligibleData, x)
		}
		if x > 0 {
			st.Served++
			if st.MinServed == 0 || x < st.MinServed {
				st.MinServed = x
			}
		}
	}
	st.Jain = JainIndex(eligibleData)
	return st
}

// MinData returns the minimum per-sensor data over sensors that could have
// been served (nonempty window, budget covering at least one of their
// slots); this is the quantity lexicographic max-min maximizes first.
func MinData(inst *core.Instance, a *core.Allocation) float64 {
	per := PerSensorData(inst, a)
	min := -1.0
	for i, x := range per {
		s := &inst.Sensors[i]
		if s.Start < 0 {
			continue
		}
		affordable := false
		check := func(runs []core.LinkRun) {
			for _, run := range runs {
				if p := run.Power; p > 0 && p*inst.Tau <= s.Budget+1e-12 && run.Rate > 0 {
					affordable = true
					return
				}
			}
		}
		check(s.Runs)
		for wi := range s.More {
			if affordable {
				break
			}
			check(s.More[wi].Runs)
		}
		if !affordable {
			continue
		}
		if min < 0 || x < min {
			min = x
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// SortedShares returns the per-sensor data vector in ascending order —
// the lexicographic objective the max-min literature compares.
func SortedShares(inst *core.Instance, a *core.Allocation) []float64 {
	per := PerSensorData(inst, a)
	sort.Float64s(per)
	return per
}
