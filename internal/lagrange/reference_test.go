package lagrange

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// upperBoundRef is the differential reference for UpperBound: the bound
// as it ran before it called the knapsack kernels directly. Each sensor
// and multiplier vector gets a fresh item list, packed by an exact
// per-call oracle — the quantized DP when the instance has a weight
// quantum, with the candidates heavier than the budget dropped first,
// else branch-and-bound — and each packing's profit is its picks' profits
// summed in ascending order.
func upperBoundRef(inst *core.Instance, opts Options) *Result {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 60
	}
	type entry struct {
		slot           int
		profit, weight float64
	}
	sensors := make([][]entry, len(inst.Sensors))
	meanProfit, nProfit := 0.0, 0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		collect := func(start int, rates, powers []float64) {
			for k, r := range rates {
				if p := powers[k]; r > 0 && p > 0 {
					sensors[i] = append(sensors[i], entry{start + k, r * inst.Tau, p * inst.Tau})
					meanProfit += r * inst.Tau
					nProfit++
				}
			}
		}
		window := func(start, end int) {
			rates, powers := make([]float64, 0, end-start+1), make([]float64, 0, end-start+1)
			for j := start; j <= end; j++ {
				rates, powers = append(rates, s.RateAt(j)), append(powers, s.PowerAt(j))
			}
			collect(start, rates, powers)
		}
		if s.Start >= 0 {
			window(s.Start, s.End)
		}
		for wi := range s.More {
			window(s.More[wi].Start, s.More[wi].End)
		}
	}
	if nProfit == 0 {
		return &Result{}
	}
	step := opts.InitialStep
	if step <= 0 {
		step = 2.0
	}
	step *= meanProfit / float64(nProfit)
	q, dp := inst.WeightQuantum()
	solve := func(profit, weight []float64, capacity float64) []int32 {
		a := knapsack.NewArena()
		if !dp {
			picks, _, _ := a.BranchAndBoundFlat(context.Background(), profit, weight, capacity)
			return picks
		}
		var prof []float64
		var wq, remap []int32
		for i := range profit {
			if profit[i] > 0 && weight[i] <= capacity {
				prof = append(prof, profit[i])
				wq = append(wq, knapsack.QuantizeWeight(weight[i], q))
				remap = append(remap, int32(i))
			}
		}
		picks, _, _ := a.DPFlat(context.Background(), prof, wq, int(knapsack.QuantizeCapacity(capacity, q)))
		for x, p := range picks {
			picks[x] = remap[p]
		}
		return picks
	}

	lambda := make([]float64, inst.T)
	usage := make([]int, inst.T)
	best, initial := math.Inf(1), 0.0
	for it := 0; it < iters; it++ {
		dual := 0.0
		for _, l := range lambda {
			dual += l
		}
		clear(usage)
		for i := range sensors {
			var profit, weight []float64
			var idx []int
			for _, e := range sensors[i] {
				if rp := e.profit - lambda[e.slot]; rp > 0 {
					profit, weight = append(profit, rp), append(weight, e.weight)
					idx = append(idx, e.slot)
				}
			}
			packed := 0.0
			for _, k := range solve(profit, weight, inst.Sensors[i].Budget) {
				packed += profit[k]
				usage[idx[k]]++
			}
			dual += packed
		}
		if it == 0 {
			initial = dual
		}
		best = math.Min(best, dual)
		stepNow := step / float64(1+it)
		for j := range lambda {
			lambda[j] = math.Max(0, lambda[j]+stepNow*float64(usage[j]-1))
		}
	}
	return &Result{Bound: best, Initial: initial, Iterations: iters}
}

// TestBoundMatchesReference: UpperBound, on the knapsack kernels
// directly, reads bit for bit what the reference reads — Bound and
// Initial — on instances with a weight quantum (the DP path: tiny tours,
// Fig-2-sized tours and K = 2 fleets) and on path-loss instances, whose
// continuous powers take the branch-and-bound path.
func TestBoundMatchesReference(t *testing.T) {
	pathLoss, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*core.Instance{}
	for seed := int64(0); seed < 6; seed++ {
		insts[fmt.Sprintf("tiny/seed=%d", seed)] = tinyInstance(t, 4, seed, 0.7)
		d, err := network.Generate(network.Params{N: 8, PathLength: 600, MaxOffset: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetUniformBudgets(1.5); err != nil {
			t.Fatal(err)
		}
		if insts[fmt.Sprintf("path-loss/seed=%d", seed)], err = core.BuildInstance(d, pathLoss, 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, k := range []int{1, 2} {
			insts[fmt.Sprintf("paper/K=%d/seed=%d", k, seed)] = paperInstance(t, 100, seed, k)
		}
	}
	bb := 0
	for name, inst := range insts {
		if _, ok := inst.WeightQuantum(); !ok {
			bb++
		}
		opts := Options{Iterations: 20}
		want := upperBoundRef(inst, opts)
		got, err := UpperBound(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Bound) != math.Float64bits(want.Bound) ||
			math.Float64bits(got.Initial) != math.Float64bits(want.Initial) {
			t.Fatalf("%s: bound %v initial %v, reference %v and %v", name, got.Bound, got.Initial, want.Bound, want.Initial)
		}
	}
	if bb == 0 {
		t.Fatal("no instance took the branch-and-bound path")
	}
}

// paperInstance builds n sensors at the paper's scale, budgets from a
// 2000 s sunny accrual, k sinks splitting the path, at 5 m/s and τ = 1 s.
func paperInstance(t *testing.T, n int, seed int64, k int) *core.Instance {
	t.Helper()
	dep, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 2000, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	if err := dep.SplitSinks(k, nil); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildFleetInstance(dep, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
