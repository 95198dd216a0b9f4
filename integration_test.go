package mobisink_test

// Cross-module integration tests: the full pipeline from topology
// generation through energy accounting, instance building, every algorithm
// family, the online protocol, and reporting — the flows a downstream user
// strings together.

import (
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/exact"
	"mobisink/internal/fair"
	"mobisink/internal/lagrange"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
	"mobisink/internal/tour"
	"mobisink/internal/traffic"
)

// TestFullPipeline is the canonical end-to-end flow on one mid-size
// topology: every algorithm must produce a feasible allocation, and the
// quality ordering exact ≥ approximations ≥ baselines must hold within
// tolerance.
func TestFullPipeline(t *testing.T) {
	dep, err := network.Generate(network.PaperParams(150, 1234))
	if err != nil {
		t.Fatal(err)
	}
	sun := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(1234))
	if err := dep.AssignSteadyStateBudgets(sun, 3*2000, 0.5, rng); err != nil {
		t.Fatal(err)
	}
	fixed, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(dep, fixed, 5, 1)
	if err != nil {
		t.Fatal(err)
	}

	results := map[string]float64{}
	record := func(name string, a *core.Allocation, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := inst.Validate(a); err != nil {
			t.Fatalf("%s: infeasible: %v", name, err)
		}
		results[name] = a.Data
	}

	mm, err := core.OfflineMaxMatch(inst)
	record("offline_maxmatch", mm, err)
	ap, err := core.OfflineAppro(inst, core.Options{})
	record("offline_appro", ap, err)
	sq, err := core.OfflineSequential(inst, core.Options{})
	record("offline_sequential", sq, err)
	gr, err := core.OfflineGreedy(inst)
	record("offline_greedy", gr, err)
	wf, err := fair.WaterFill(inst)
	record("waterfill", wf, err)
	for name, sched := range map[string]online.Scheduler{
		"online_appro":    &online.Appro{},
		"online_maxmatch": &online.MaxMatch{},
		"online_greedy":   &online.Greedy{},
		"online_seq":      &online.Sequential{},
	} {
		res, err := online.Run(inst, sched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, res.Alloc, nil)
	}

	opt := results["offline_maxmatch"]
	for name, v := range results {
		if v > opt+1e-6 {
			t.Errorf("%s (%v) above the exact optimum (%v)", name, v, opt)
		}
		if v <= 0 {
			t.Errorf("%s collected nothing", name)
		}
	}
	if results["offline_appro"] < opt/2 {
		t.Errorf("offline_appro below its guarantee")
	}

	// The Lagrangian dual certifies the optimum from above.
	lag, err := lagrange.UpperBound(inst, lagrange.Options{Iterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if lag.Bound < opt-1e-6 {
		t.Errorf("dual bound %v below the optimum %v", lag.Bound, opt)
	}
	if lag.Bound > inst.UpperBound()*1.001 {
		t.Logf("note: dual bound %v looser than naive %v", lag.Bound, inst.UpperBound())
	}
}

// TestExactAgreesAtSmallScale cross-checks the independent exact solvers:
// branch-and-bound vs matching on a downsized special-case instance.
func TestExactAgreesAtSmallScale(t *testing.T) {
	dep, err := network.Generate(network.Params{N: 6, PathLength: 400, MaxOffset: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = dep.SetUniformBudgets(0.9)
	fixed, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	inst, err := core.BuildInstance(dep, fixed, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := core.OfflineMaxMatch(inst)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := exact.Solve(inst, exact.Options{Incumbent: mm})
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Optimal {
		t.Skip("node budget hit")
	}
	if math.Abs(bb.Alloc.Data-mm.Data) > 1e-6 {
		t.Fatalf("independent exact solvers disagree: %v vs %v", bb.Alloc.Data, mm.Data)
	}
}

// TestWorkloadDrivenCampaign runs the full applied stack: traffic loads →
// data caps → capped online scheduling → multi-tour energy accounting.
func TestWorkloadDrivenCampaign(t *testing.T) {
	dep, err := network.Generate(network.Params{N: 60, PathLength: 3000, MaxOffset: 120, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	accounts, err := tour.UniformAccounts(dep, energy.PaperBatteryCapacityJ, 4,
		func(i int) energy.Harvester { return energy.PaperSolar(energy.Sunny) })
	if err != nil {
		t.Fatal(err)
	}
	tp := traffic.Params{
		ArrivalRate: 0.05, MeanSpeed: 25, SpeedStdDev: 4,
		DetectRange: 150, BitsPerDetection: 20e3, Seed: 77,
	}
	const period = 1800.0
	total := 0.0
	for tr := 0; tr < 4; tr++ {
		for i := range dep.Sensors {
			dep.Sensors[i].Budget = accounts[i].Budget()
		}
		inst, err := core.BuildInstance(dep, radio.Paper2013(), 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		caps, err := traffic.Load(dep, tp, float64(tr)*period, float64(tr+1)*period)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.SetDataCaps(caps); err != nil {
			t.Fatal(err)
		}
		res, err := online.Run(inst, &online.Sequential{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Validate(res.Alloc); err != nil {
			t.Fatal(err)
		}
		used := inst.EnergyUsed(res.Alloc)
		for i := range accounts {
			if err := accounts[i].EndTour(period, used[i]); err != nil {
				t.Fatalf("tour %d sensor %d: %v", tr, i, err)
			}
		}
		total += res.Data
	}
	if total <= 0 {
		t.Fatal("campaign collected nothing")
	}
}

// TestContinuousPowerRadio swaps the paper's rate table for a
// continuous-power path-loss model, which has no weight quantum, so both
// Offline_Appro and Online_Appro run the FPTAS knapsack oracle end to end.
func TestContinuousPowerRadio(t *testing.T) {
	model, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := network.Generate(network.Params{N: 50, PathLength: 2000, MaxOffset: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = dep.SetUniformBudgets(2)
	inst, err := core.BuildInstance(dep, model, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.OfflineAppro(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := online.Run(inst, &online.Appro{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Data > off.Data*1.01 || off.Data <= 0 {
		t.Errorf("physics pipeline inconsistent: offline %v online %v", off.Data, on.Data)
	}
}
