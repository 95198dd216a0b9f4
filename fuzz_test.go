package mobisink_test

// Fuzz targets for the parsing and combinatorial layers. `go test` runs the
// seed corpus as regular tests; `go test -fuzz=FuzzX` explores further.

import (
	"context"
	"math"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/geom"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// FuzzKnapsackSolvers: on random instances, all knapsack kernels must
// return feasible packings and respect the exactness/approximation
// hierarchy.
func FuzzKnapsackSolvers(f *testing.F) {
	f.Add(uint8(3), uint16(100), uint16(50))
	f.Add(uint8(8), uint16(1), uint16(1000))
	f.Fuzz(func(t *testing.T, nRaw uint8, capRaw, scale uint16) {
		n := int(nRaw%10) + 1
		capacity := float64(capRaw) / 10
		profit := make([]float64, n)
		weight := make([]float64, n)
		wq := make([]int32, n)
		x := uint32(scale) + 1
		next := func() float64 { // cheap deterministic generator
			x = x*1664525 + 1013904223
			return float64(x%1000) / 10
		}
		for i := range profit {
			profit[i], weight[i] = next(), next()/2
			wq[i] = knapsack.QuantizeWeight(weight[i], 0.1)
		}
		ctx := context.Background()
		a := knapsack.NewArena()
		pack := func(name string, picks []int32, err error) float64 {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, w := 0.0, 0.0
			for _, k := range picks {
				if k < 0 || int(k) >= n {
					t.Fatalf("%s: index out of range", name)
				}
				p, w = p+profit[k], w+weight[k]
			}
			if !knapsack.Fits(w, capacity) {
				t.Fatalf("%s: infeasible", name)
			}
			return p
		}
		picks, _, err := a.BranchAndBoundFlat(ctx, profit, weight, capacity)
		exactBB := pack("bb", picks, err)
		picks, _, err = a.DPFlat(ctx, profit, wq, int(knapsack.QuantizeCapacity(capacity, 0.1)))
		exactDP := pack("dp", picks, err)
		picks, _, err = a.FPTASFlat(ctx, 0.2, profit, weight, capacity)
		fptas := pack("fptas", picks, err)
		// Weights here are exact multiples of 0.05 so the 0.1-quantum DP can
		// differ from BB only through conservative rounding; it must never
		// exceed BB.
		if exactDP > exactBB+1e-9 {
			t.Fatalf("dp %v above exact bb %v", exactDP, exactBB)
		}
		if fptas < 0.8*exactBB-1e-9 {
			t.Fatalf("fptas %v below (1-eps)·%v", fptas, exactBB)
		}
	})
}

// FuzzBuildAndAllocate: instance construction and every offline
// allocator must never panic, and any allocation they return must pass
// Validate (per-slot exclusivity, per-sensor energy budgets) and stay
// under the instance upper bound — on arbitrary deployments, including
// degenerate ones.
func FuzzBuildAndAllocate(f *testing.F) {
	// Seeds cover the corners that historically break schedulers:
	// a near-zero-length tour (the whole path collapses into one slot),
	// single-slot visibility windows (the sink sprints past every
	// sensor), zero-energy sensors (budget 0 ⇒ nothing schedulable),
	// a fixed-power radio, and a lone sensor sitting on the path.
	f.Add(uint8(3), 1e-3, 10.0, 50.0, 1.0, 0.5, 0.0, int64(1))   // zero-length tour
	f.Add(uint8(4), 400.0, 30.0, 400.0, 1.0, 0.6, 0.0, int64(2)) // single-slot windows
	f.Add(uint8(5), 300.0, 60.0, 10.0, 1.0, 0.0, 0.0, int64(3))  // zero-energy sensors
	f.Add(uint8(6), 500.0, 120.0, 5.0, 2.0, 0.8, 0.3, int64(4))  // fixed transmit power
	f.Add(uint8(1), 50.0, 0.0, 1.0, 0.5, 0.2, 0.0, int64(5))     // lone sensor on the path
	f.Fuzz(func(t *testing.T, nRaw uint8, pathLen, maxOffset, speed, tau, budget, fixedPower float64, seed int64) {
		for _, v := range []float64{pathLen, maxOffset, speed, tau, budget, fixedPower} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if pathLen <= 0 || pathLen > 2000 || maxOffset < 0 || maxOffset > 500 {
			return
		}
		if speed <= 0 || tau <= 0 || budget < 0 || budget > 1e6 || fixedPower < 0 {
			return
		}
		// Bound the slot count so each execution stays cheap.
		if pathLen/(speed*tau) > 512 {
			return
		}
		n := int(nRaw%8) + 1
		dep, err := network.Generate(network.Params{
			N: n, PathLength: pathLen, MaxOffset: maxOffset, Seed: seed,
		})
		if err != nil {
			t.Fatalf("Generate rejected sanitized params: %v", err)
		}
		if err := dep.SetUniformBudgets(budget); err != nil {
			t.Fatalf("SetUniformBudgets(%v): %v", budget, err)
		}
		var model radio.Model = radio.Paper2013()
		if fixedPower > 0 {
			fp, err := radio.NewFixedPower(radio.Paper2013(), fixedPower)
			if err != nil {
				return // power outside the rate table
			}
			model = fp
		}
		inst, err := core.BuildInstance(dep, model, speed, tau)
		if err != nil {
			return
		}
		check := func(name string, a *core.Allocation, err error) {
			if err != nil {
				return // a rejected instance is fine; a panic is not
			}
			data, verr := inst.Validate(a)
			if verr != nil {
				t.Fatalf("%s: infeasible allocation: %v", name, verr)
			}
			if ub := inst.UpperBound(); data > ub+1e-6*(1+ub) {
				t.Fatalf("%s: collected %v above upper bound %v", name, data, ub)
			}
		}
		a, err := core.OfflineAppro(inst, core.Options{})
		check("appro", a, err)
		a, err = core.OfflineAppro(inst, core.Options{Eps: 0.5, ForceFPTAS: true})
		check("appro-fptas", a, err)
		a, err = core.OfflineGreedy(inst)
		check("greedy", a, err)
		a, err = core.OfflineMaxMatch(inst) // errors on multi-rate; must not panic
		check("maxmatch", a, err)
		a, err = core.OfflineSequential(inst, core.Options{})
		check("sequential", a, err)
	})
}

// FuzzLineCover: CoverInterval's reported range must contain only in-range
// points and the window derived from it must be consistent.
func FuzzLineCover(f *testing.F) {
	f.Add(500.0, 30.0, 50.0)
	f.Add(0.0, 0.0, 1.0)
	f.Add(-100.0, 200.0, 150.0)
	f.Fuzz(func(t *testing.T, x, y, r float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(r) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(r, 0) || r <= 0 || r > 1e6 {
			return
		}
		if math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return
		}
		l := geom.HighwayLine(1000)
		p := geom.Point{X: x, Y: y}
		s0, s1, ok := l.CoverInterval(p, r)
		if !ok {
			return
		}
		if s0 < 0 || s1 > 1000 || s0 > s1 {
			t.Fatalf("invalid interval [%v, %v]", s0, s1)
		}
		for _, s := range []float64{s0, (s0 + s1) / 2, s1} {
			if d := l.At(s).Dist(p); d > r*(1+1e-9)+1e-6 {
				t.Fatalf("s=%v at distance %v > %v", s, d, r)
			}
		}
	})
}
