package gap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mobisink/internal/knapsack"
)

// windowedInstance builds a random instance whose bins see contiguous item
// windows — the same structure the mobile-sink reduction produces, with a
// controllable chance of multiple connected components.
func windowedInstance(seed int64, bins, items int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &Instance{NumItems: items}
	for b := 0; b < bins; b++ {
		start := rng.Intn(items)
		width := 1 + rng.Intn(6)
		bin := Bin{Capacity: 0.5 + rng.Float64()*3}
		for j := start; j < start+width && j < items; j++ {
			bin.Entries = append(bin.Entries, Entry{
				Item:   j,
				Profit: rng.Float64()*4 - 0.5, // some non-positive (dead) entries
				Weight: rng.Float64() * 2,     // some above capacity
			})
		}
		inst.Bins = append(inst.Bins, bin)
	}
	return inst
}

func TestCompileDropsDeadEntries(t *testing.T) {
	inst := &Instance{
		NumItems: 4,
		Bins: []Bin{
			{Capacity: 1, Entries: []Entry{
				{Item: 0, Profit: 2, Weight: 0.5},
				{Item: 1, Profit: 0, Weight: 0.1},  // profit ≤ 0: dead
				{Item: 2, Profit: 3, Weight: 1.5},  // weight > cap: dead
				{Item: 3, Profit: -1, Weight: 0.2}, // profit < 0: dead
			}},
			{Capacity: 2, Entries: []Entry{
				{Item: 2, Profit: 1, Weight: 2},
			}},
		},
	}
	c, err := Compile(inst, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Off[len(c.Cap)]; got != 2 {
		t.Fatalf("compiled %d entries, want 2 (dead entries dropped)", got)
	}
	if c.Item[0] != 0 || c.Item[1] != 2 {
		t.Fatalf("compiled items %v, want [0 2]", c.Item[:2])
	}
	if c.NumItems != 4 {
		t.Fatalf("NumItems %d, want 4 (dropping entries must not renumber items)", c.NumItems)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	bad := &Instance{NumItems: 1, Bins: []Bin{{Capacity: 1, Entries: []Entry{
		{Item: 0, Profit: 1, Weight: 0.1},
		{Item: 0, Profit: 2, Weight: 0.2},
	}}}}
	if _, err := Compile(bad, 0.1, 0); err == nil {
		t.Fatal("Compile accepted a duplicate entry")
	}
	if _, err := Compile(nil, 0.1, 0); err == nil {
		t.Fatal("Compile accepted a nil instance")
	}
}

// TestCompiledMatchesLocalRatio checks the compiled sweep is bit-identical
// to the legacy pointer-chasing LocalRatioCtx, in both oracle modes.
func TestCompiledMatchesLocalRatio(t *testing.T) {
	const quantum, eps = 0.05, 0.25
	for seed := int64(0); seed < 25; seed++ {
		inst := windowedInstance(seed, 3+int(seed%7), 12+int(seed%9))
		for _, dpMode := range []bool{true, false} {
			var legacySolve knapsack.SolverCtx
			q, e := 0.0, eps
			if dpMode {
				q, e = quantum, 0
				legacySolve = func(ctx context.Context, items []knapsack.Item, capacity float64) (knapsack.Solution, error) {
					return knapsack.DPCtx(ctx, items, capacity, quantum)
				}
			} else {
				legacySolve = knapsack.FPTASCtx(eps)
			}
			want, err := LocalRatioCtx(context.Background(), inst, legacySolve)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(inst, q, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.ItemBin, want.ItemBin) {
				t.Fatalf("seed %d dp=%v: ItemBin %v != legacy %v", seed, dpMode, got.ItemBin, want.ItemBin)
			}
			if got.Profit != want.Profit {
				t.Fatalf("seed %d dp=%v: Profit %v != legacy %v (must be bit-identical)",
					seed, dpMode, got.Profit, want.Profit)
			}
		}
	}
}

func TestSolveIntoSizeMismatch(t *testing.T) {
	c, err := Compile(windowedInstance(1, 3, 10), 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveInto(context.Background(), nil, make([]int32, 3)); err == nil {
		t.Fatal("SolveInto accepted a short itemBin")
	}
}

// TestSolveIntoNoAllocs is the steady-state gate for the serving path: a
// reused Scratch and itemBin make the sequential compiled solve
// allocation-free, in both oracle modes.
func TestSolveIntoNoAllocs(t *testing.T) {
	inst := windowedInstance(7, 12, 60)
	for _, mode := range []struct {
		name string
		q    float64
	}{{"dp", 0.05}, {"fptas", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			c, err := Compile(inst, mode.q, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			var s Scratch
			itemBin := make([]int32, c.NumItems)
			run := func() {
				if _, err := c.SolveInto(context.Background(), &s, itemBin); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm scratch buffers
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Fatalf("SolveInto allocates %v per run with reused scratch", n)
			}
		})
	}
}

func TestCompiledSolveCanceled(t *testing.T) {
	c, err := Compile(windowedInstance(3, 6, 30), 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Solve(ctx); err == nil {
		t.Fatal("Solve ignored canceled context")
	}
}

// TestCompileValidatesQuantumEps: Compile rejects a NaN, infinite or
// negative quantum and a NaN or ≥1 eps with typed errors.
func TestCompileValidatesQuantumEps(t *testing.T) {
	inst := windowedInstance(1, 4, 8)
	cases := []struct {
		name         string
		quantum, eps float64
		wantErr      error
	}{
		{"negative quantum", -1, 0.1, ErrBadQuantum},
		{"NaN quantum", math.NaN(), 0.1, ErrBadQuantum},
		{"+Inf quantum", math.Inf(1), 0.1, ErrBadQuantum},
		{"-Inf quantum", math.Inf(-1), 0.1, ErrBadQuantum},
		{"NaN eps", 0.05, math.NaN(), ErrBadEps},
		{"eps of one", 0.05, 1, ErrBadEps},
		{"eps above one", 0, 1.5, ErrBadEps},
		{"+Inf eps", 0, math.Inf(1), ErrBadEps},
		{"zero quantum selects FPTAS", 0, 0.25, nil},
		{"zero eps keeps default", 0.05, 0, nil},
		{"negative eps keeps default", 0, -3, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(inst, tc.quantum, tc.eps)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Compile(%v, %v) = %v, want %v", tc.quantum, tc.eps, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Compile(%v, %v): %v", tc.quantum, tc.eps, err)
			}
			if tc.eps <= 0 && c.Eps != 0.1 {
				t.Fatalf("eps %v did not resolve to the 0.1 default (got %v)", tc.eps, c.Eps)
			}
		})
	}
}
