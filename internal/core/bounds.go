package core

import (
	"math"
	"slices"
)

// UpperBound returns an upper bound on the optimal collected data (bits),
// the minimum of two relaxations:
//
//  1. slot relaxation — drop the energy budgets: each slot contributes the
//     best rate any sensor offers in it;
//  2. energy relaxation — drop slot exclusivity: each sensor solves its own
//     fractional knapsack over its window.
//
// OPT never exceeds either, so reported ratios alg/UpperBound are
// conservative fraction-of-optimum figures.
func (inst *Instance) UpperBound() float64 {
	return math.Min(inst.slotBound(), inst.energyBound())
}

func (inst *Instance) slotBound() float64 {
	best := make([]float64, inst.T)
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		for j := s.Start; s.Start >= 0 && j <= s.End; j++ {
			if r := s.Rates[j-s.Start]; r > best[j] {
				best[j] = r
			}
		}
		for wi := range s.More {
			w := &s.More[wi]
			for j := w.Start; j <= w.End; j++ {
				if r := w.Rates[j-w.Start]; r > best[j] {
					best[j] = r
				}
			}
		}
	}
	total := 0.0
	for _, r := range best {
		total += r * inst.Tau
	}
	return total
}

func (inst *Instance) energyBound() float64 {
	total := 0.0
	var slots []slotCost // one buffer, reused sensor after sensor
	for i := range inst.Sensors {
		var v float64
		v, slots = inst.fractionalKnapsack(i, slots[:0])
		total += v
	}
	return total
}

// slotCost is one usable window slot of a sensor: the data it would
// upload there and the energy that costs.
type slotCost struct{ profit, weight float64 }

// fractionalKnapsack returns the LP-relaxed best data volume sensor i could
// upload alone: fill slots in decreasing rate/power density until the
// budget is exhausted, taking a fractional final slot. It lists the slots
// in slots, whose grown backing it returns for the next sensor.
func (inst *Instance) fractionalKnapsack(i int, slots []slotCost) (float64, []slotCost) {
	s := &inst.Sensors[i]
	if s.Start < 0 {
		return 0, slots
	}
	add := func(rates, powers []float64) {
		for k, r := range rates {
			p := powers[k]
			if r <= 0 || p <= 0 {
				continue
			}
			slots = append(slots, slotCost{r * inst.Tau, p * inst.Tau})
		}
	}
	add(s.Rates, s.Powers)
	for wi := range s.More {
		add(s.More[wi].Rates, s.More[wi].Powers)
	}
	slices.SortFunc(slots, func(a, b slotCost) int {
		switch {
		case a.profit*b.weight > b.profit*a.weight:
			return -1
		case b.profit*a.weight > a.profit*b.weight:
			return 1
		}
		return 0
	})
	left := s.Budget
	total := 0.0
	for _, sl := range slots {
		if sl.weight <= left {
			total += sl.profit
			left -= sl.weight
		} else {
			total += sl.profit * left / sl.weight
			break
		}
	}
	return total, slots
}
