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
	fill := func(runs []LinkRun) {
		for _, run := range runs {
			for j := run.Start; j <= run.End; j++ {
				if run.Rate > best[j] {
					best[j] = run.Rate
				}
			}
		}
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		fill(s.Runs)
		for wi := range s.More {
			fill(s.More[wi].Runs)
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
	var runs []slotRun // one buffer, reused sensor after sensor
	for i := range inst.Sensors {
		var v float64
		v, runs = inst.fractionalKnapsack(i, runs[:0])
		total += v
	}
	return total
}

// slotRun is a run of usable window slots of a sensor with one link:
// the data each would upload, the energy that costs, and how many slots
// the run holds.
type slotRun struct {
	profit, weight float64
	count          int
}

// fractionalKnapsack returns the LP-relaxed best data volume sensor i could
// upload alone: fill slots in decreasing rate/power density until the
// budget is exhausted, taking a fractional final slot. It lists the
// windows' usable link runs in runs, merging two of one link that only
// dead slots or a window boundary part, sorts them, and fills slot by
// slot; it returns runs' grown backing for the next sensor.
//
// The fill adds the slots' profits in the order a sort of the slots
// themselves visits them whenever no two different links share a
// density: runs of one link are interchangeable, and distinct densities
// order uniquely. On the paper's rate table every tier has its own
// density; two links of exactly equal density may fill in another order
// than a per-slot sort would.
func (inst *Instance) fractionalKnapsack(i int, runs []slotRun) (float64, []slotRun) {
	s := &inst.Sensors[i]
	if s.Start < 0 {
		return 0, runs
	}
	add := func(links []LinkRun) {
		for _, l := range links {
			if l.Rate <= 0 || l.Power <= 0 {
				continue
			}
			pr, w, count := l.Rate*inst.Tau, l.Power*inst.Tau, l.End-l.Start+1
			if n := len(runs) - 1; n >= 0 && runs[n].profit == pr && runs[n].weight == w {
				runs[n].count += count
				continue
			}
			runs = append(runs, slotRun{pr, w, count})
		}
	}
	add(s.Runs)
	for wi := range s.More {
		add(s.More[wi].Runs)
	}
	slices.SortFunc(runs, func(a, b slotRun) int {
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
	for _, run := range runs {
		for range run.count {
			if run.weight <= left {
				total += run.profit
				left -= run.weight
			} else {
				return total + run.profit*left/run.weight, runs
			}
		}
	}
	return total, runs
}
