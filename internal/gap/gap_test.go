package gap

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// solveAt runs the production engine on inst: the Builder, then SolveInto
// with the exact DP oracle at quantum q > 0, or the FPTAS at eps when q
// is 0. Every test instance's weights are multiples of 0.1, so the DP at
// 0.1 is an exact knapsack oracle.
func solveAt(t *testing.T, inst *Instance, q, eps float64) *Assignment {
	t.Helper()
	c, err := Compile(inst, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidate(t *testing.T) {
	good := &Instance{
		NumItems: 2,
		Bins: []Bin{
			{Capacity: 5, Entries: []Entry{{Item: 0, Profit: 1, Weight: 1}, {Item: 1, Profit: 2, Weight: 2}}},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		{NumItems: -1},
		{NumItems: 1, Bins: []Bin{{Capacity: -1}}},
		{NumItems: 1, Bins: []Bin{{Capacity: 1, Entries: []Entry{{Item: 2, Profit: 1, Weight: 1}}}}},
		{NumItems: 1, Bins: []Bin{{Capacity: 1, Entries: []Entry{{Item: 0, Profit: 1, Weight: -1}}}}},
		{NumItems: 1, Bins: []Bin{{Capacity: 1, Entries: []Entry{{Item: 0, Profit: 1, Weight: 1}, {Item: 0, Profit: 2, Weight: 1}}}}},
	}
	for i, inst := range bad {
		if err := inst.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestAssignmentCheck(t *testing.T) {
	inst := &Instance{
		NumItems: 2,
		Bins: []Bin{
			{Capacity: 3, Entries: []Entry{{Item: 0, Profit: 5, Weight: 2}, {Item: 1, Profit: 4, Weight: 2}}},
		},
	}
	a := NewAssignment(2)
	a.ItemBin[0] = 0
	p, err := a.Check(inst)
	if err != nil || p != 5 {
		t.Fatalf("Check = %v, %v", p, err)
	}
	// Overfull bin.
	a.ItemBin[1] = 0
	if _, err := a.Check(inst); err == nil {
		t.Error("expected overfull error")
	}
	// Ineligible assignment.
	b := NewAssignment(2)
	b.ItemBin[0] = 1
	if _, err := b.Check(inst); err == nil {
		t.Error("expected invalid-bin error")
	}
	// Wrong length.
	c := NewAssignment(3)
	if _, err := c.Check(inst); err == nil {
		t.Error("expected length error")
	}
}

// The worked GAP instance: two bins, three items, profits favoring a split.
func TestLocalRatioSmall(t *testing.T) {
	inst := &Instance{
		NumItems: 3,
		Bins: []Bin{
			{Capacity: 2, Entries: []Entry{
				{Item: 0, Profit: 10, Weight: 1},
				{Item: 1, Profit: 9, Weight: 1},
				{Item: 2, Profit: 1, Weight: 1},
			}},
			{Capacity: 1, Entries: []Entry{
				{Item: 0, Profit: 2, Weight: 1},
				{Item: 2, Profit: 8, Weight: 1},
			}},
		},
	}
	a := solveAt(t, inst, 0.1, 0)
	p, err := a.Check(inst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-a.Profit) > 1e-9 {
		t.Errorf("profit mismatch: reported %v recomputed %v", a.Profit, p)
	}
	opt, err := Exhaustive(inst, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit != 27 { // bin0 gets items 0,1; bin1 gets item 2
		t.Fatalf("exhaustive optimum = %v, want 27", opt.Profit)
	}
	if a.Profit < opt.Profit/2-1e-9 {
		t.Errorf("local ratio %v below half optimum %v", a.Profit, opt.Profit)
	}
}

// TestLocalRatioNilSolver: the reference sweep refuses a nil oracle.
func TestLocalRatioNilSolver(t *testing.T) {
	if _, err := LocalRatioCtx(context.Background(), &Instance{}, nil); err == nil {
		t.Error("expected error for nil solver")
	}
}

func TestLocalRatioRejectsInvalid(t *testing.T) {
	inst := &Instance{NumItems: -1}
	if _, err := Compile(inst, 0.1, 0); err == nil {
		t.Error("expected validation error from the builder")
	}
	if _, err := Exhaustive(inst, 100); err == nil {
		t.Error("expected validation error from exhaustive")
	}
}

func randInstance(rng *rand.Rand, bins, items int) *Instance {
	inst := &Instance{NumItems: items}
	for b := 0; b < bins; b++ {
		bin := Bin{Capacity: 1 + rng.Float64()*4}
		for j := 0; j < items; j++ {
			if rng.Float64() < 0.7 {
				bin.Entries = append(bin.Entries, Entry{
					Item:   j,
					Profit: math.Floor(rng.Float64()*100) / 10,
					Weight: math.Floor(rng.Float64()*30)/10 + 0.1,
				})
			}
		}
		inst.Bins = append(inst.Bins, bin)
	}
	return inst
}

// The paper's guarantee: the local-ratio sweep with an exact knapsack
// (β=1) achieves at least OPT/2.
func TestLocalRatioHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		inst := randInstance(rng, 1+rng.Intn(3), 1+rng.Intn(6))
		opt, err := Exhaustive(inst, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		a := solveAt(t, inst, 0.1, 0)
		if _, err := a.Check(inst); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if a.Profit < opt.Profit/2-1e-9 {
			t.Fatalf("trial %d: local ratio %v < OPT/2 = %v", trial, a.Profit, opt.Profit/2)
		}
	}
}

// With an FPTAS oracle the guarantee is 1/(2+eps).
func TestLocalRatioFPTASGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const eps = 0.3
	for trial := 0; trial < 80; trial++ {
		inst := randInstance(rng, 1+rng.Intn(3), 1+rng.Intn(6))
		opt, err := Exhaustive(inst, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		a := solveAt(t, inst, 0, eps)
		if _, err := a.Check(inst); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if a.Profit < opt.Profit/(2+eps)-1e-9 {
			t.Fatalf("trial %d: local ratio %v < OPT/(2+eps) = %v", trial, a.Profit, opt.Profit/(2+eps))
		}
	}
}

func TestGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		inst := randInstance(rng, 1+rng.Intn(4), 1+rng.Intn(8))
		c, err := Compile(inst, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := c.greedy()
		p, err := a.Check(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(p-a.Profit) > 1e-9 {
			t.Fatalf("trial %d: profit mismatch %v vs %v", trial, a.Profit, p)
		}
	}
}

func TestExhaustiveRefusesHugeInstances(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(1)), 10, 30)
	if _, err := Exhaustive(inst, 1<<20); err == nil {
		t.Error("expected search-space error")
	}
}

// When every item fits every bin with identical weights/profits per bin and
// capacities are generous, the sweep must recover the optimum.
func TestLocalRatioTrivialOptimal(t *testing.T) {
	inst := &Instance{
		NumItems: 4,
		Bins: []Bin{
			{Capacity: 100, Entries: []Entry{
				{Item: 0, Profit: 4, Weight: 1}, {Item: 1, Profit: 3, Weight: 1},
				{Item: 2, Profit: 2, Weight: 1}, {Item: 3, Profit: 1, Weight: 1},
			}},
		},
	}
	a := solveAt(t, inst, 0.1, 0)
	if a.Profit != 10 {
		t.Errorf("profit = %v, want 10 (all items)", a.Profit)
	}
}

// Items claimed by an early bin but re-claimed by a later bin must end in
// the later bin (the "last selector wins" reverse pass).
func TestLocalRatioLastSelectorWins(t *testing.T) {
	inst := &Instance{
		NumItems: 1,
		Bins: []Bin{
			{Capacity: 1, Entries: []Entry{{Item: 0, Profit: 5, Weight: 1}}},
			{Capacity: 1, Entries: []Entry{{Item: 0, Profit: 9, Weight: 1}}},
		},
	}
	a := solveAt(t, inst, 0.1, 0)
	if a.ItemBin[0] != 1 || a.Profit != 9 {
		t.Errorf("item should go to bin 1 with profit 9, got bin %d profit %v", a.ItemBin[0], a.Profit)
	}
}
