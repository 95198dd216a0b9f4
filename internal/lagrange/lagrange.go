// Package lagrange computes tight upper bounds on the data collection
// maximization problem by Lagrangian relaxation of the slot-exclusivity
// constraints (Σ_i x_{i,j} ≤ 1). For multipliers λ_j ≥ 0 the dual
//
//	L(λ) = Σ_j λ_j + Σ_i KNAPSACK_i( profit_{i,j} − λ_j ; budget_i )
//
// separates into one independent knapsack per sensor, so every λ yields a
// valid upper bound ≥ OPT. Subgradient descent on λ tightens the bound far
// below the naive min(slot-bound, energy-bound) relaxation of
// core.UpperBound, enabling honest "fraction of optimum" reporting at full
// experiment scale where exact search is hopeless.
package lagrange

import (
	"context"
	"errors"
	"math"

	"mobisink/internal/core"
	"mobisink/internal/knapsack"
)

// Options tunes the subgradient loop.
type Options struct {
	// Iterations of subgradient descent; 0 means 60.
	Iterations int
	// InitialStep scales the first step size; 0 means 2.0 (relative to the
	// mean positive profit).
	InitialStep float64
}

// Result carries the best bound found and the multiplier trajectory info.
type Result struct {
	// Bound is the best (lowest) valid upper bound on OPT, in bits.
	Bound float64
	// Initial is the bound at λ = 0 (the pure energy relaxation).
	Initial float64
	// Iterations actually performed.
	Iterations int
}

// UpperBound runs subgradient descent and returns the best dual bound.
//
// Each sensor's knapsack must be EXACT or the dual is no upper bound. It
// is the quantized DP when the instance has a weight quantum — exact
// because core.Instance.WeightQuantum accepts nothing but exact-divisor
// quanta (micro-Joule resolution of a discrete power table), so rounding
// weights up changes none — and branch-and-bound otherwise.
func UpperBound(inst *core.Instance, opts Options) (*Result, error) {
	if inst == nil {
		return nil, errors.New("lagrange: nil instance")
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 60
	}
	quantum, dp := inst.WeightQuantum()

	// Flatten per-sensor entries once, from every window. On fleet
	// instances this drops the cross-sink constraint (≤ 1 sink per
	// absolute slot per sensor), which only relaxes the problem further,
	// so the dual stays an upper bound. An entry heavier than its
	// sensor's budget counts toward the mean profit but can never be
	// packed, so it is not kept.
	type entry struct {
		slot   int
		profit float64
		weight float64
		wq     int32 // weight in quanta, on the DP path
	}
	sensors := make([][]entry, len(inst.Sensors))
	meanProfit := 0.0
	nProfit := 0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		collect := func(runs []core.LinkRun) {
			for _, run := range runs {
				r, p := run.Rate, run.Power
				if r <= 0 || p <= 0 {
					continue
				}
				w := p * inst.Tau
				e := entry{profit: r * inst.Tau, weight: w}
				if dp && w <= s.Budget {
					e.wq = knapsack.QuantizeWeight(w, quantum)
				}
				for j := run.Start; j <= run.End; j++ {
					meanProfit += r * inst.Tau
					nProfit++
					if w <= s.Budget {
						e.slot = j
						sensors[i] = append(sensors[i], e)
					}
				}
			}
		}
		collect(s.Runs)
		for wi := range s.More {
			collect(s.More[wi].Runs)
		}
	}
	if nProfit == 0 {
		return &Result{}, nil
	}
	meanProfit /= float64(nProfit)
	step := opts.InitialStep
	if step <= 0 {
		step = 2.0
	}
	step *= meanProfit

	lambda := make([]float64, inst.T)
	usage := make([]int, inst.T)
	var ar knapsack.Arena
	prof := make([]float64, 0, 64)
	wt := make([]float64, 0, 64)
	wq := make([]int32, 0, 64)
	idx := make([]int, 0, 64)

	best := math.Inf(1)
	initial := 0.0
	for it := 0; it < iters; it++ {
		// Evaluate L(λ): Σλ + per-sensor knapsacks on reduced profits.
		dual := 0.0
		for _, l := range lambda {
			dual += l
		}
		for j := range usage {
			usage[j] = 0
		}
		for i := range sensors {
			prof, wt, wq, idx = prof[:0], wt[:0], wq[:0], idx[:0]
			for _, e := range sensors[i] {
				rp := e.profit - lambda[e.slot]
				if rp <= 0 {
					continue
				}
				prof, wt, wq = append(prof, rp), append(wt, e.weight), append(wq, e.wq)
				idx = append(idx, e.slot)
			}
			budget := inst.Sensors[i].Budget
			var picks []int32
			if dp {
				picks, _, _ = ar.DPFlat(context.Background(), prof, wq, int(knapsack.QuantizeCapacity(budget, quantum)))
			} else {
				picks, _, _ = ar.BranchAndBoundFlat(context.Background(), prof, wt, budget)
			}
			// A sensor's packing is summed on its own, in ascending pick
			// order, before it joins the dual: that order fixes the float
			// sum.
			packed := 0.0
			for _, k := range picks {
				packed += prof[k]
				usage[idx[k]]++
			}
			dual += packed
		}
		if it == 0 {
			initial = dual
		}
		if dual < best {
			best = dual
		}
		// Subgradient g_j = (Σ_i x_ij) − 1; λ ← max(0, λ + step·g).
		stepNow := step / float64(1+it)
		for j := range lambda {
			g := float64(usage[j] - 1)
			lambda[j] = math.Max(0, lambda[j]+stepNow*g)
		}
	}
	return &Result{Bound: best, Initial: initial, Iterations: iters}, nil
}
