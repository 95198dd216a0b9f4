package lagrange

import (
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/exact"
	"mobisink/internal/geom"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

func tinyInstance(t *testing.T, n int, seed int64, budget float64) *core.Instance {
	t.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: 300, MaxOffset: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.SetUniformBudgets(budget)
	inst, err := core.BuildInstance(d, radio.Paper2013(), 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// optimum is inst's exact optimum, from the branch-and-bound solver.
func optimum(t *testing.T, inst *core.Instance) float64 {
	t.Helper()
	res, err := exact.Solve(inst, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("exact search stopped at its node budget (%d nodes)", res.Nodes)
	}
	return res.Alloc.Data
}

func TestUpperBoundNil(t *testing.T) {
	if _, err := UpperBound(nil, Options{}); err == nil {
		t.Error("expected nil error")
	}
}

func TestBoundDominatesOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst := tinyInstance(t, 3, seed, 0.7)
		res, err := UpperBound(inst, Options{Iterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		opt := optimum(t, inst)
		if res.Bound < opt-1e-6 {
			t.Fatalf("seed %d: lagrangian bound %v below OPT %v", seed, res.Bound, opt)
		}
		if res.Bound > res.Initial+1e-6 {
			t.Fatalf("seed %d: best bound %v above initial %v", seed, res.Bound, res.Initial)
		}
	}
}

// On competitive instances the subgradient loop must tighten the bound
// noticeably below both the λ=0 dual and core.UpperBound.
func TestBoundTightensAtScale(t *testing.T) {
	dep, err := network.Generate(network.PaperParams(150, 7))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sun := energy.PaperSolar(energy.Sunny)
	if err := dep.AssignSteadyStateBudgets(sun, 3*2000, 0.5, rng); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(dep, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := UpperBound(inst, Options{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound >= res.Initial {
		t.Errorf("no tightening: best %v vs initial %v", res.Bound, res.Initial)
	}
	ap, err := core.OfflineAppro(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound < ap.Data-1e-6 {
		t.Fatalf("bound %v below a feasible solution %v", res.Bound, ap.Data)
	}
	// The dual should certify the approximation much tighter than the
	// naive bound does.
	naiveFrac := ap.Data / inst.UpperBound()
	dualFrac := ap.Data / res.Bound
	if dualFrac < naiveFrac-1e-9 {
		t.Errorf("dual bound looser than naive: %v vs %v", dualFrac, naiveFrac)
	}
	if dualFrac < 0.5 {
		t.Errorf("certified fraction %v suspiciously low", dualFrac)
	}
}

func TestEmptyInstanceBound(t *testing.T) {
	// A sensor with zero budget: entries exist but knapsacks return
	// nothing; the bound must still be finite and non-negative.
	dep := &network.Deployment{PathLength: 1000, MaxOffset: 0, Sensors: []network.Sensor{
		{ID: 0, Pos: geom.Point{X: 500, Y: 0}, Budget: 0},
	}}
	inst, err := core.BuildInstance(dep, radio.Paper2013(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Zero budgets: entries exist but knapsacks return nothing; bound must
	// still be finite and non-negative.
	res, err := UpperBound(inst, Options{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound < 0 {
		t.Errorf("negative bound %v", res.Bound)
	}
}

// TestBoundHoldsOnFleets: on K-sink instances every sensor has one window
// per audible sink, and a bound that reads only the first falls below the
// data Offline_Appro collects on most K ≥ 2 instances here. The Lagrangian
// also drops the cross-sink constraint, which only relaxes it, so
// Offline_Appro ≤ bound must hold; at these one-tour budgets sixty
// subgradient steps also beat core.UpperBound.
func TestBoundHoldsOnFleets(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			dep, err := network.Generate(network.PaperParams(200, seed))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			sun := energy.PaperSolar(energy.Sunny)
			if err := dep.AssignSteadyStateBudgets(sun, 2000, 0.2, rng); err != nil {
				t.Fatal(err)
			}
			if err := dep.SplitSinks(k, nil); err != nil {
				t.Fatal(err)
			}
			inst, err := core.BuildFleetInstance(dep, radio.Paper2013(), 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := UpperBound(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ap, err := core.OfflineAppro(inst, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bound < ap.Data-1e-6 {
				t.Errorf("K=%d seed %d: bound %.2f Mb below the %.2f Mb Offline_Appro collects",
					k, seed, core.ThroughputMb(res.Bound), core.ThroughputMb(ap.Data))
			}
			if ub := inst.UpperBound(); res.Bound > ub+1e-6 {
				t.Errorf("K=%d seed %d: bound %.2f Mb above core.UpperBound %.2f Mb",
					k, seed, core.ThroughputMb(res.Bound), core.ThroughputMb(ub))
			}
		}
	}
}
