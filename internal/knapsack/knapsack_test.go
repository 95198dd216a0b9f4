package knapsack

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// item is one candidate as the tests write it; the kernels take the
// profits and weights as parallel arrays.
type item struct {
	Profit float64 // objective contribution if packed
	Weight float64 // capacity consumed if packed
}

// solution is a kernel's packing: the picked positions, ascending, and
// their profit and weight summed in that order.
type solution struct {
	Picked []int
	Profit float64
	Weight float64
}

// solver runs one kernel over items under capacity.
type solver func(items []item, capacity float64) solution

func split(items []item) (profit, weight []float64) {
	profit = make([]float64, len(items))
	weight = make([]float64, len(items))
	for i, it := range items {
		profit[i], weight[i] = it.Profit, it.Weight
	}
	return profit, weight
}

func solutionOf(items []item, picks []int32, err error) solution {
	if err != nil {
		panic(err)
	}
	var s solution
	for _, p := range picks {
		s.Picked = append(s.Picked, int(p))
		s.Profit += items[p].Profit
		s.Weight += items[p].Weight
	}
	return s
}

// branchAndBound runs BranchAndBoundFlat.
func branchAndBound(items []item, capacity float64) solution {
	profit, weight := split(items)
	picks, _, err := NewArena().BranchAndBoundFlat(context.Background(), profit, weight, capacity)
	return solutionOf(items, picks, err)
}

// dp runs DPFlat at quantum, rounding as QuantizeWeight and
// QuantizeCapacity do.
func dp(quantum float64) solver {
	return func(items []item, capacity float64) solution {
		profit, _ := split(items)
		wq := make([]int32, len(items))
		for i, it := range items {
			wq[i] = QuantizeWeight(it.Weight, quantum)
		}
		picks, _, err := NewArena().DPFlat(context.Background(), profit, wq, int(QuantizeCapacity(capacity, quantum)))
		return solutionOf(items, picks, err)
	}
}

// fptas runs FPTASFlat at eps.
func fptas(eps float64) solver {
	return func(items []item, capacity float64) solution {
		profit, weight := split(items)
		picks, _, err := NewArena().FPTASFlat(context.Background(), eps, profit, weight, capacity)
		return solutionOf(items, picks, err)
	}
}

// bruteForce enumerates all subsets — ground truth for small instances.
func bruteForce(items []item, capacity float64) solution {
	n := len(items)
	best := solution{}
	for mask := 0; mask < 1<<n; mask++ {
		var w, p float64
		var picked []int
		ok := true
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if items[i].Profit <= 0 || items[i].Weight < 0 {
				ok = false
				break
			}
			w += items[i].Weight
			p += items[i].Profit
			picked = append(picked, i)
		}
		if ok && w <= capacity && p > best.Profit {
			best = solution{Picked: picked, Profit: p, Weight: w}
		}
	}
	return best
}

func randItems(rng *rand.Rand, n int) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = item{
			Profit: math.Floor(rng.Float64()*1000) / 10,
			Weight: math.Floor(rng.Float64()*500) / 10,
		}
	}
	return items
}

func checkFeasible(t *testing.T, name string, items []item, capacity float64, s solution) {
	t.Helper()
	var w, p float64
	seen := map[int]bool{}
	for _, i := range s.Picked {
		if i < 0 || i >= len(items) {
			t.Fatalf("%s: index %d out of range", name, i)
		}
		if seen[i] {
			t.Fatalf("%s: duplicate index %d", name, i)
		}
		seen[i] = true
		w += items[i].Weight
		p += items[i].Profit
	}
	if !Fits(w, capacity) {
		t.Fatalf("%s: infeasible weight %v > %v", name, w, capacity)
	}
	if math.Abs(w-s.Weight) > 1e-9 || math.Abs(p-s.Profit) > 1e-9 {
		t.Fatalf("%s: reported (p=%v,w=%v) != actual (p=%v,w=%v)", name, s.Profit, s.Weight, p, w)
	}
}

func TestSolversOnKnownInstance(t *testing.T) {
	items := []item{
		{Profit: 60, Weight: 10},
		{Profit: 100, Weight: 20},
		{Profit: 120, Weight: 30},
	}
	const capacity = 50
	want := 220.0 // items 1+2
	for name, solve := range map[string]solver{
		"bb":    branchAndBound,
		"dp":    dp(0.5),
		"fptas": fptas(0.01),
	} {
		s := solve(items, capacity)
		checkFeasible(t, name, items, capacity, s)
		if s.Profit != want {
			t.Errorf("%s: profit = %v, want %v", name, s.Profit, want)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	for name, solve := range map[string]solver{
		"bb":    branchAndBound,
		"dp":    dp(1e-3),
		"fptas": fptas(0.3),
	} {
		if s := solve(nil, 10); len(s.Picked) != 0 || s.Profit != 0 {
			t.Errorf("%s: nil items must give empty solution, got %+v", name, s)
		}
		// All items unusable: zero/negative profit, or too heavy.
		items := []item{{Profit: 0, Weight: 1}, {Profit: -5, Weight: 1}, {Profit: 10, Weight: 99}}
		if s := solve(items, 50); len(s.Picked) != 0 {
			t.Errorf("%s: unusable items must not be picked, got %+v", name, s)
		}
		// Zero-weight positive-profit item must always be packed by exact
		// solvers.
		items2 := []item{{Profit: 5, Weight: 0}, {Profit: 10, Weight: 10}}
		s := solve(items2, 10)
		checkFeasible(t, name, items2, 10, s)
		if name != "fptas" && s.Profit != 15 {
			t.Errorf("%s: profit = %v, want 15", name, s.Profit)
		}
		if name == "fptas" && s.Profit < 15*0.7 {
			t.Errorf("fptas: profit = %v, want >= %v", s.Profit, 15*0.7)
		}
		// Zero capacity: only zero-weight items fit.
		s = solve(items2, 0)
		checkFeasible(t, name, items2, 0, s)
	}
}

func TestExactSolversMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		items := randItems(rng, n)
		capacity := rng.Float64() * 150
		want := bruteForce(items, capacity)
		bb := branchAndBound(items, capacity)
		checkFeasible(t, "bb", items, capacity, bb)
		if math.Abs(bb.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: bb profit %v != optimum %v (items=%v cap=%v)",
				trial, bb.Profit, want.Profit, items, capacity)
		}
		d := dp(0.1)(items, capacity) // weights are multiples of 0.1
		checkFeasible(t, "dp", items, capacity, d)
		if math.Abs(d.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: dp profit %v != optimum %v (items=%v cap=%v)",
				trial, d.Profit, want.Profit, items, capacity)
		}
	}
}

func TestFPTASGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, eps := range []float64{0.1, 0.3, 0.5} {
		solve := fptas(eps)
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(12)
			items := randItems(rng, n)
			capacity := rng.Float64() * 150
			opt := branchAndBound(items, capacity)
			s := solve(items, capacity)
			checkFeasible(t, "fptas", items, capacity, s)
			if s.Profit < (1-eps)*opt.Profit-1e-9 {
				t.Fatalf("eps=%v trial %d: fptas %v < (1-eps)*OPT = %v",
					eps, trial, s.Profit, (1-eps)*opt.Profit)
			}
		}
	}
}

func TestFPTASPanicsOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, -0.5, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FPTASFlat(%v) must panic", eps)
				}
			}()
			NewArena().FPTASFlat(context.Background(), eps, nil, nil, 1)
		}()
	}
}

func TestDPQuantizationIsConservative(t *testing.T) {
	// Coarse quantum must still give a feasible (if suboptimal) packing.
	items := []item{{Profit: 10, Weight: 3.3}, {Profit: 10, Weight: 3.3}, {Profit: 10, Weight: 3.3}}
	s := dp(1.0)(items, 10) // weights round up to 4, cap 10 → 2 items
	checkFeasible(t, "dp-coarse", items, 10, s)
	if len(s.Picked) != 2 {
		t.Errorf("coarse DP picked %d items, want 2 (conservative rounding)", len(s.Picked))
	}
	s = dp(0.1)(items, 10) // exact: 3 items fit (9.9 <= 10)
	if len(s.Picked) != 3 {
		t.Errorf("fine DP picked %d items, want 3", len(s.Picked))
	}
	// The 1e-9 guard: a weight that is a multiple of the quantum up to
	// float noise (0.3/0.1 = 2.9999999999999996) stays that multiple.
	if got := QuantizeWeight(0.3, 0.1); got != 3 {
		t.Errorf("QuantizeWeight(0.3, 0.1) = %d, want 3", got)
	}
	if got := QuantizeCapacity(0.39, 0.1); got != 3 {
		t.Errorf("QuantizeCapacity(0.39, 0.1) = %d, want 3 (rounds down)", got)
	}
}

// TestQuantizeCapacityWholeQuanta: a capacity that is a whole number of
// quanta up to float noise keeps every quantum (0.6/0.2 is
// 2.9999999999999996 and 1.2/0.0002 is 5999.999999999999 in float64), so
// DPFlat packs three 0.2 J items into 0.6 J, as Fits accepts.
func TestQuantizeCapacityWholeQuanta(t *testing.T) {
	for _, c := range []struct {
		capacity, quantum float64
		want              int32
	}{{0.6, 0.2, 3}, {1.2, 0.0002, 6000}} {
		if got := QuantizeCapacity(c.capacity, c.quantum); got != c.want {
			t.Errorf("QuantizeCapacity(%v, %v) = %d, want %d", c.capacity, c.quantum, got, c.want)
		}
	}
	items := []item{{Profit: 1, Weight: 0.2}, {Profit: 1, Weight: 0.2}, {Profit: 1, Weight: 0.2}}
	if !Fits(0.2+0.2+0.2, 0.6) {
		t.Fatal("fixture: three 0.2 J items must fit 0.6 J")
	}
	if s := dp(0.2)(items, 0.6); len(s.Picked) != 3 {
		t.Errorf("DPFlat packed %v of three 0.2 J items into 0.6 J", s.Picked)
	}
}

func TestLargeUniformWeights(t *testing.T) {
	// Mirrors the fixed-power special case: all weights equal, solver must
	// pick the k most profitable items.
	items := make([]item, 40)
	for i := range items {
		items[i] = item{Profit: float64(i + 1), Weight: 2}
	}
	capacity := 10.0 // exactly 5 items
	for name, solve := range map[string]solver{
		"bb":    branchAndBound,
		"dp":    dp(1),
		"fptas": fptas(0.05),
	} {
		s := solve(items, capacity)
		checkFeasible(t, name, items, capacity, s)
		want := 40.0 + 39 + 38 + 37 + 36
		if name == "fptas" {
			if s.Profit < 0.95*want {
				t.Errorf("%s profit %v < 0.95·%v", name, s.Profit, want)
			}
		} else if s.Profit != want {
			t.Errorf("%s profit = %v, want %v", name, s.Profit, want)
		}
	}
}

// benchFixture mimics a per-sensor instance: |A(v)| = 2Γ = n slots, 4
// power tiers; the benchmarks pack it under a tight 2 J budget with one
// reused arena.
func benchFixture(n int) (profit, weight []float64) {
	rng := rand.New(rand.NewSource(1))
	profit = make([]float64, n)
	weight = make([]float64, n)
	weights := []float64{0.17, 0.22, 0.30, 0.33}
	rates := []float64{250e3, 19.2e3, 9.6e3, 4.8e3}
	for i := range profit {
		k := rng.Intn(4)
		profit[i], weight[i] = rates[k], weights[k]
	}
	return profit, weight
}

func BenchmarkBranchAndBound80(b *testing.B) {
	profit, weight := benchFixture(80)
	a := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BranchAndBoundFlat(context.Background(), profit, weight, 2.0)
	}
}

func BenchmarkFPTAS80(b *testing.B) {
	profit, weight := benchFixture(80)
	a := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FPTASFlat(context.Background(), 0.2, profit, weight, 2.0)
	}
}

func BenchmarkDP80(b *testing.B) {
	profit, weight := benchFixture(80)
	wq := make([]int32, len(weight))
	for i, w := range weight {
		wq[i] = QuantizeWeight(w, 0.01)
	}
	a := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DPFlat(context.Background(), profit, wq, int(QuantizeCapacity(2.0, 0.01)))
	}
}

// BenchmarkDP80DenseRows is DPFlat's worst case: random float profits
// make nearly every reachable weight a breakpoint of its row, so each
// merge walks about as many breakpoints as the dense band had cells, at
// more work a step. Weights are 1–33 quanta (the paper's power table is
// 17–33 quanta of 0.01 J) or 1–4,096 (the largest ratio WeightQuantum
// accepts); the capacity is half the total weight.
func BenchmarkDP80DenseRows(b *testing.B) {
	for _, maxW := range []int{33, 4096} {
		b.Run(fmt.Sprintf("maxW=%d", maxW), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			profit := make([]float64, 80)
			wq := make([]int32, 80)
			sum := 0
			for i := range profit {
				profit[i] = rng.Float64() * 100
				wq[i] = int32(1 + rng.Intn(maxW))
				sum += int(wq[i])
			}
			a := NewArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DPFlat(context.Background(), profit, wq, sum/2)
			}
		})
	}
}
