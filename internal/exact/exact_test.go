package exact

import (
	"math"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

func tinyInstance(t *testing.T, n int, seed int64, budget float64, model radio.Model, speed float64) *core.Instance {
	t.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: 300, MaxOffset: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetUniformBudgets(budget); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(d, model, speed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// exhaustiveOptimum is the ground truth by brute force over slot owners:
// each slot goes to one sensor that can use it, or to nobody, within every
// sensor's budget.
func exhaustiveOptimum(t *testing.T, inst *core.Instance) float64 {
	t.Helper()
	if inst.NumSinks() > 1 || inst.T > 16 {
		t.Fatalf("brute force is for tiny single-sink instances (T = %d)", inst.T)
	}
	used := make([]float64, len(inst.Sensors))
	best := 0.0
	var visit func(j int, data float64)
	visit = func(j int, data float64) {
		if j == inst.T {
			best = max(best, data)
			return
		}
		visit(j+1, data)
		for i := range inst.Sensors {
			s := &inst.Sensors[i]
			r, w := s.RateAt(j), s.PowerAt(j)*inst.Tau
			if r <= 0 || w <= 0 || !knapsack.Fits(used[i]+w, s.Budget) {
				continue
			}
			prev := used[i]
			used[i] += w
			visit(j+1, data+r*inst.Tau)
			used[i] = prev
		}
	}
	visit(0, 0)
	return best
}

func TestSolveNil(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Error("expected nil-instance error")
	}
}

func TestSolveMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		inst := tinyInstance(t, 3, seed, 0.7, radio.Paper2013(), 30)
		res, err := Solve(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("seed %d: tiny instance must solve to optimality", seed)
		}
		if _, err := inst.Validate(res.Alloc); err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		want := exhaustiveOptimum(t, inst)
		if math.Abs(res.Alloc.Data-want) > 1e-6 {
			t.Fatalf("seed %d: exact %v != exhaustive %v", seed, res.Alloc.Data, want)
		}
	}
}

// On the fixed-power special case the matching optimum is known; the B&B
// must reproduce it on mid-size instances far beyond a brute force.
func TestSolveMatchesMatchingOptimum(t *testing.T) {
	// Fixed-power instances are highly symmetric (equal profits and costs
	// abound), which is exactly where fractional bounds prune worst — and
	// exactly why the paper's §VI polynomial algorithm matters. Keep these
	// instances small; the matching solver is the production tool here.
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	for seed := int64(0); seed < 4; seed++ {
		inst := tinyInstance(t, 5, seed, 0.65, fp, 20) // T = 15 slots
		mm, err := core.OfflineMaxMatch(inst)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(inst, Options{Incumbent: mm})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Skipf("seed %d: node budget hit (%d nodes)", seed, res.Nodes)
		}
		if math.Abs(res.Alloc.Data-mm.Data) > 1e-6 {
			t.Fatalf("seed %d: exact %v != matching optimum %v", seed, res.Alloc.Data, mm.Data)
		}
	}
}

func TestSolveDominatesAppro(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		inst := tinyInstance(t, 4, seed, 0.6, radio.Paper2013(), 30)
		ap, err := core.OfflineAppro(inst, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(inst, Options{Incumbent: ap})
		if err != nil {
			t.Fatal(err)
		}
		if res.Alloc.Data < ap.Data-1e-9 {
			t.Fatalf("seed %d: exact %v below incumbent %v", seed, res.Alloc.Data, ap.Data)
		}
		if res.Optimal && ap.Data < res.Alloc.Data/2-1e-9 {
			t.Fatalf("seed %d: appro %v below OPT/2 %v", seed, ap.Data, res.Alloc.Data/2)
		}
		if ub := inst.UpperBound(); res.Alloc.Data > ub+1e-6 {
			t.Fatalf("seed %d: exact %v above upper bound %v", seed, res.Alloc.Data, ub)
		}
	}
}

func TestSolveRejectsBadIncumbent(t *testing.T) {
	inst := tinyInstance(t, 3, 1, 0.5, radio.Paper2013(), 30)
	bad := inst.NewAllocation()
	bad.SlotOwner[0] = 99
	if _, err := Solve(inst, Options{Incumbent: bad}); err == nil {
		t.Error("expected invalid-incumbent error")
	}
}

func TestSolveNodeBudget(t *testing.T) {
	inst := tinyInstance(t, 10, 3, 2.0, radio.Paper2013(), 5) // T = 60, dense
	res, err := Solve(inst, Options{MaxNodes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Skip("instance solved within 200 nodes; cannot exercise truncation")
	}
	if res.Nodes < 200 {
		t.Errorf("nodes = %d, expected to hit the budget", res.Nodes)
	}
	// Best-found must still be feasible.
	if _, err := inst.Validate(res.Alloc); err != nil {
		t.Fatal(err)
	}
}

// TestSolveRefusesFleet: the search reads only each sensor's primary
// window, so it refuses a K-sink fleet instead of reporting an optimum
// below what Offline_Appro collects there (on this instance the search
// read an "optimum" of 2,534,400 bits and Offline_Appro a valid
// 2,956,800).
func TestSolveRefusesFleet(t *testing.T) {
	d, err := network.Generate(network.PaperParams(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetUniformBudgets(50); err != nil {
		t.Fatal(err)
	}
	if err := d.SplitSinks(3, nil); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildFleetInstance(d, radio.Paper2013(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumSinks() != 3 {
		t.Fatalf("built %d sinks, want 3", inst.NumSinks())
	}
	if res, err := Solve(inst, Options{}); err == nil {
		t.Fatalf("Solve accepted a 3-sink fleet (optimum %v bits, optimal %v)", res.Alloc.Data, res.Optimal)
	}
}
