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
	// Solver is the per-sensor knapsack oracle; it must be EXACT or an
	// upper bound is not guaranteed. Nil selects the quantized DP when
	// possible and branch-and-bound otherwise.
	Solver knapsack.Solver
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
func UpperBound(inst *core.Instance, opts Options) (*Result, error) {
	if inst == nil {
		return nil, errors.New("lagrange: nil instance")
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 60
	}
	solve := opts.Solver
	if solve == nil {
		solve = defaultSolver(inst)
	}

	// Flatten per-sensor entries once, from every window. On fleet
	// instances this drops the cross-sink constraint (≤ 1 sink per
	// absolute slot per sensor), which only relaxes the problem further,
	// so the dual stays an upper bound.
	type entry struct {
		slot   int
		profit float64
		weight float64
	}
	sensors := make([][]entry, len(inst.Sensors))
	meanProfit := 0.0
	nProfit := 0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		collect := func(start int, rates, powers []float64) {
			for k, r := range rates {
				p := powers[k]
				if r <= 0 || p <= 0 {
					continue
				}
				sensors[i] = append(sensors[i], entry{start + k, r * inst.Tau, p * inst.Tau})
				meanProfit += r * inst.Tau
				nProfit++
			}
		}
		if s.Start >= 0 {
			collect(s.Start, s.Rates, s.Powers)
		}
		for wi := range s.More {
			w := &s.More[wi]
			collect(w.Start, w.Rates, w.Powers)
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
	items := make([]knapsack.Item, 0, 64)
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
			items = items[:0]
			idx = idx[:0]
			for _, e := range sensors[i] {
				rp := e.profit - lambda[e.slot]
				if rp <= 0 {
					continue
				}
				items = append(items, knapsack.Item{Profit: rp, Weight: e.weight})
				idx = append(idx, e.slot)
			}
			sol := solve(items, inst.Sensors[i].Budget)
			dual += sol.Profit
			for _, k := range sol.Picked {
				usage[idx[k]]++
			}
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

// defaultSolver mirrors core's automatic choice but insists on exactness:
// the quantized DP rounds weights up, so it is exact only because
// core.Instance.WeightQuantum accepts nothing but exact-divisor quanta
// (micro-Joule resolution of a discrete power table); anything else takes
// branch-and-bound.
func defaultSolver(inst *core.Instance) knapsack.Solver {
	if q, ok := inst.WeightQuantum(); ok {
		return func(items []knapsack.Item, c float64) knapsack.Solution {
			return knapsack.DP(items, c, q)
		}
	}
	return knapsack.BranchAndBound
}
