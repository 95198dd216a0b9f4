package gap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
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
		t.Fatalf("compiled %d runs, want 2 (dead entries dropped)", got)
	}
	if !reflect.DeepEqual(c.First, []int32{0, 2}) || !reflect.DeepEqual(c.Count, []int32{1, 1}) {
		t.Fatalf("compiled runs from items %v of %v items, want [0 2] of [1 1]", c.First, c.Count)
	}
	if c.NumItems != 4 {
		t.Fatalf("NumItems %d, want 4 (dropping entries must not renumber items)", c.NumItems)
	}
}

// TestCompileRejectsInvalid: the Builder refuses an item listed twice in
// one bin and an entry with no open bin, and the error sticks.
func TestCompileRejectsInvalid(t *testing.T) {
	var b Builder
	b.Reset(1, nil, 0.1, 0)
	b.Bin(1)
	b.Add(0, 1, 0.1)
	b.Add(0, 2, 0.2)
	b.Bin(1)
	b.Add(0, 1, 0.1)
	if _, err := b.Compiled(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Builder accepted a duplicate entry: %v", err)
	}
	b.Reset(1, nil, 0.1, 0)
	b.Add(0, 1, 0.1)
	if _, err := b.Compiled(); err == nil {
		t.Fatal("Builder accepted an entry before the first bin")
	}
	if _, err := Compile(nil, 0.1, 0); err == nil {
		t.Fatal("Compile accepted a nil instance")
	}
}

// TestRunChecks: Run checks its run's item range once and each item for
// a duplicate, and its weight for a sign; keeps the run only with
// positive profit and weight that fit, and quantizes the kept weight
// once.
func TestRunChecks(t *testing.T) {
	var b Builder
	b.Reset(7, nil, 0.1, 0)
	b.Bin(1)
	b.Add(0, 2, 0.2)
	b.Run(1, 2, 0, 0.2) // no profit
	b.Run(3, 1, 4, 0)   // no weight
	b.Run(4, 2, 6, 0.5)
	b.Run(6, 1, 18, 1.2) // 1.2 > capacity 1
	c, err := b.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	// Items 1 and 2 have no profit, item 3 no weight, item 6 does not fit.
	if !reflect.DeepEqual(c.First, []int32{0, 4}) || !reflect.DeepEqual(c.Count, []int32{1, 2}) ||
		!reflect.DeepEqual(c.Profit, []float64{2, 6}) || !reflect.DeepEqual(c.Weight, []float64{0.2, 0.5}) ||
		!reflect.DeepEqual(c.WQ, []int32{2, 5}) {
		t.Fatalf("compiled runs from items %v of %v items, profits %v weights %v quanta %v",
			c.First, c.Count, c.Profit, c.Weight, c.WQ)
	}
	for _, bad := range []struct {
		name string
		run  func(b *Builder)
		want string
	}{
		{"range", func(b *Builder) { b.Run(4, 3, 1, 1) }, "out of range"},
		{"negative count", func(b *Builder) { b.Run(0, -1, 1, 1) }, "out of range"},
		{"twice", func(b *Builder) { b.Add(2, 1, 1); b.Run(1, 2, 1, 1) }, "twice"},
		{"twice in a run of a dead entry", func(b *Builder) { b.Add(3, 0, 1); b.Run(3, 1, 1, 1) }, "twice"},
		{"negative", func(b *Builder) { b.Run(0, 1, 1, -1) }, "negative weight"},
	} {
		b.Reset(6, nil, 0.1, 0)
		b.Bin(5)
		bad.run(&b)
		if _, err := b.Compiled(); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: error %v, want one naming %q", bad.name, err, bad.want)
		}
	}
}

// TestZeroWeightIsNoEntry pins the Builder's contract that a zero weight
// means no entry, not a free item: Add and Run list the item, so a
// second listing is a duplicate, but keep nothing whatever the profit.
func TestZeroWeightIsNoEntry(t *testing.T) {
	var b Builder
	b.Reset(2, nil, 0.1, 0)
	b.Bin(1)
	b.Add(0, 5, 0)
	b.Bin(1)
	b.Run(0, 2, 5, 0)
	c, err := b.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.First) != 0 || !reflect.DeepEqual(c.Off, []int32{0, 0, 0}) {
		t.Fatalf("compiled runs from items %v offsets %v, want no entry", c.First, c.Off)
	}
	b.Reset(1, nil, 0.1, 0)
	b.Bin(1)
	b.Add(0, 5, 0)
	b.Add(0, 5, 0.1)
	if _, err := b.Compiled(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("a zero-weight listing did not count as listed: %v", err)
	}
}

// TestCompiledMatchesLocalRatio checks the compiled sweep is bit-identical
// to the pointer-form reference sweep, LocalRatioCtx, in both oracle modes.
func TestCompiledMatchesLocalRatio(t *testing.T) {
	const quantum, eps = 0.05, 0.25
	for seed := int64(0); seed < 25; seed++ {
		inst := windowedInstance(seed, 3+int(seed%7), 12+int(seed%9))
		for _, dpMode := range []bool{true, false} {
			legacySolve := FPTASOracle(eps)
			q, e := 0.0, eps
			if dpMode {
				q, e = quantum, 0
				legacySolve = DPOracle(quantum)
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
	var s Scratch
	if err := c.SolveInto(context.Background(), &s, make([]int32, 3)); err == nil {
		t.Fatal("SolveInto accepted a short itemBin")
	}
	if err := c.Greedy(&s, make([]int32, 3)); err == nil {
		t.Fatal("Greedy accepted a short itemBin")
	}
	if err := c.Sequential(context.Background(), &s, nil, nil, 0, make([]int32, 3)); err == nil {
		t.Fatal("Sequential accepted a short itemBin")
	}
	itemBin := make([]int32, c.NumItems)
	if err := c.Sequential(context.Background(), &s, make([]int, 3), nil, 0, itemBin); err == nil {
		t.Fatal("Sequential accepted a short group")
	}
	if err := c.Sequential(context.Background(), &s, nil, make([]float64, 1), 1, itemBin); err == nil {
		t.Fatal("Sequential accepted a data cap per bin short")
	}
}

// TestSolveIntoNoAllocs is the steady-state gate for the serving path: a
// warm Workspace's Builder, Scratch and item → bin array make compiling
// an instance and then solving it allocation-free, in both oracle
// modes, for the greedy pass and for the sequential pass in both oracle
// modes (conflict groups, and a data cap on every other bin) — the
// offline solvers' and the per-interval online schedulers' pattern.
func TestSolveIntoNoAllocs(t *testing.T) {
	inst := windowedInstance(7, 12, 60)
	group := make([]int, inst.NumItems)
	for j := range group {
		group[j] = j % 7
	}
	dataCap := make([]float64, len(inst.Bins))
	for b := range dataCap {
		dataCap[b] = math.Inf(1)
		if b%2 == 0 {
			dataCap[b] = 2.5
		}
	}
	for _, mode := range []struct {
		name string
		q    float64
	}{{"dp", 0.05}, {"fptas", 0}, {"greedy", 0}, {"sequential", 0.05}, {"sequential-fptas", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			ws := GetWorkspace()
			defer ws.Release()
			run := func() {
				b := ws.Builder()
				b.Reset(inst.NumItems, nil, mode.q, 0.25)
				for _, bin := range inst.Bins {
					b.Bin(bin.Capacity)
					for _, e := range bin.Entries {
						b.Add(e.Item, e.Profit, e.Weight)
					}
				}
				c, err := b.Compiled()
				if err == nil {
					itemBin := ws.ItemBin(c.NumItems)
					switch {
					case mode.name == "greedy":
						err = c.Greedy(ws.Scratch(), itemBin)
					case strings.HasPrefix(mode.name, "sequential"):
						err = c.Sequential(context.Background(), ws.Scratch(), group, dataCap, 0.01, itemBin)
					default:
						err = c.SolveInto(context.Background(), ws.Scratch(), itemBin)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the workspace's buffers
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Fatalf("compile and solve allocate %v per run on a warm workspace", n)
			}
		})
	}
}

// TestSequentialThinsFreeEntries: the sequential pass keeps one entry per
// conflict group among a bin's free entries — so a bin can still use a
// group whose winner an earlier bin took, which the Builder's reduction
// would have dropped — and caps a bin's profit at its data cap.
func TestSequentialThinsFreeEntries(t *testing.T) {
	ctx := context.Background()
	pass := func(group []int, dataCap []float64, bins ...[]Entry) ([]int32, float64) {
		t.Helper()
		var b Builder
		b.Reset(3, nil, 0.1, 0)
		for _, entries := range bins {
			b.Bin(2)
			for _, e := range entries {
				b.Add(e.Item, e.Profit, e.Weight)
			}
		}
		c, err := b.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		itemBin := make([]int32, 3)
		if err := c.Sequential(ctx, new(Scratch), group, dataCap, 1, itemBin); err != nil {
			t.Fatal(err)
		}
		return itemBin, c.profitOf(itemBin)
	}
	group := []int{0, 0, -1}
	// Bin 0 takes item 0; bin 1's dominant group-0 entry is then item 0's,
	// taken, so it packs item 1 instead.
	itemBin, profit := pass(group, nil,
		[]Entry{{Item: 0, Profit: 5, Weight: 1}},
		[]Entry{{Item: 0, Profit: 5, Weight: 1}, {Item: 1, Profit: 3, Weight: 1}, {Item: 2, Profit: 4, Weight: 1}})
	if !reflect.DeepEqual(itemBin, []int32{0, 1, 1}) || profit != 12 {
		t.Fatalf("got %v (profit %v), want [0 1 1] (profit 12)", itemBin, profit)
	}
	// Both group-0 entries free and room for both: only the dominant one
	// (max profit, then min weight) is packed.
	itemBin, _ = pass(group, nil, []Entry{{Item: 0, Profit: 3, Weight: 0.5}, {Item: 1, Profit: 3, Weight: 0.4}})
	if !reflect.DeepEqual(itemBin, []int32{-1, 0, -1}) {
		t.Fatalf("got %v, want [-1 0 -1]: one entry per group", itemBin)
	}
	// A data cap of 8 admits two of the three 4-unit items; +Inf caps
	// nothing.
	items := []Entry{{Item: 0, Profit: 4, Weight: 0.5}, {Item: 1, Profit: 4, Weight: 0.5}, {Item: 2, Profit: 4, Weight: 0.5}}
	if _, profit = pass(nil, []float64{8}, items); profit != 8 {
		t.Fatalf("capped profit %v, want 8", profit)
	}
	if _, profit = pass(nil, []float64{math.Inf(1)}, items); profit != 12 {
		t.Fatalf("uncapped profit %v, want 12", profit)
	}
}

// TestLocalRatioCtxCanceled: a canceled context aborts the sweep with the
// context's error.
func TestLocalRatioCtxCanceled(t *testing.T) {
	c, err := Compile(windowedInstance(2, 6, 12), 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SolveInto(ctx, new(Scratch), make([]int32, c.NumItems)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := c.Sequential(ctx, new(Scratch), nil, nil, 0, make([]int32, c.NumItems)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sequential: got %v, want context.Canceled", err)
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

// TestCompileValidatesQuantumEps: the Builder rejects a NaN, infinite or
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
