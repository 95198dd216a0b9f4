package gap

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// groupedInstance builds a random instance whose items carry conflict
// groups (group id = item % nGroups, the fleet "absolute slot" shape).
func groupedInstance(rng *rand.Rand, bins, items, nGroups int) *Instance {
	inst := &Instance{NumItems: items, ItemGroup: make([]int, items)}
	for j := range inst.ItemGroup {
		inst.ItemGroup[j] = j % nGroups
	}
	inst.Bins = make([]Bin, bins)
	for b := range inst.Bins {
		bin := Bin{Capacity: 1 + rng.Float64()*3}
		for j := 0; j < items; j++ {
			if rng.Float64() < 0.5 {
				continue
			}
			bin.Entries = append(bin.Entries, Entry{
				Item:   j,
				Profit: math.Floor(rng.Float64()*90+10) / 10,
				Weight: math.Floor(rng.Float64()*15+5) / 10,
			})
		}
		inst.Bins[b] = bin
	}
	return inst
}

// TestReduceGroupsPicksDominant: the Builder keeps one entry per
// (bin, conflict group), the dominant one, whether or not the losers are
// weakly dominated by it.
func TestReduceGroupsPicksDominant(t *testing.T) {
	itemGroup := []int{0, 1, -1, 0}
	compile := func(entries ...Entry) *Compiled {
		t.Helper()
		var b Builder
		b.Reset(len(itemGroup), itemGroup, 0, 0.1)
		b.Bin(10)
		for _, e := range entries {
			b.Add(e.Item, e.Profit, e.Weight)
		}
		c, err := b.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	entries := []Entry{
		{Item: 0, Profit: 5, Weight: 1},
		{Item: 3, Profit: 7, Weight: 2}, // winner of group 0 (items 0 and 3)
		{Item: 1, Profit: 4, Weight: 1},
	}
	// Under groups every run is one item, so First lists the kept items.
	c := compile(entries...)
	if !reflect.DeepEqual(c.First, []int32{3, 1}) || !reflect.DeepEqual(c.Count, []int32{1, 1}) {
		t.Fatalf("kept items %v of %v, want [3 1]: only the item-0 entry dropped", c.First, c.Count)
	}

	// A weakly dominated loser drops the same way.
	entries[0].Weight = 2
	c = compile(entries...)
	if !reflect.DeepEqual(c.First, []int32{3, 1}) {
		t.Fatalf("kept items %v, want [3 1]", c.First)
	}

	// Singleton groups → no reduction at all.
	if c = compile(entries[0], entries[2]); !reflect.DeepEqual(c.First, []int32{0, 1}) {
		t.Fatalf("singleton groups reduced: kept %v", c.First)
	}
}

func TestCheckRejectsGroupConflicts(t *testing.T) {
	inst := &Instance{
		NumItems:  2,
		ItemGroup: []int{0, 0},
		Bins: []Bin{{Capacity: 10, Entries: []Entry{
			{Item: 0, Profit: 1, Weight: 1},
			{Item: 1, Profit: 1, Weight: 1},
		}}},
	}
	a := &Assignment{ItemBin: []int{0, 0}, Profit: 2}
	if _, err := a.Check(inst); err == nil {
		t.Fatal("Check accepted two same-group items in one bin")
	}
	a = &Assignment{ItemBin: []int{0, -1}, Profit: 1}
	if _, err := a.Check(inst); err != nil {
		t.Fatalf("conflict-free assignment rejected: %v", err)
	}
}

func TestValidateItemGroupLength(t *testing.T) {
	inst := &Instance{NumItems: 3, ItemGroup: []int{0}}
	if err := inst.Validate(); err == nil {
		t.Fatal("short ItemGroup accepted")
	}
}

// TestGroupedSolversHonorGroups: local-ratio, greedy and exhaustive all
// emit assignments that pass the group-checking Check on random grouped
// instances, and the compiled sweep and greedy stay bit-identical to
// their references.
func TestGroupedSolversHonorGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		inst := groupedInstance(rng, 2+rng.Intn(4), 4+rng.Intn(8), 2+rng.Intn(3))
		legacy, err := LocalRatioCtx(ctx, inst, FPTASOracle(0.1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := legacy.Check(inst); err != nil {
			t.Fatalf("trial %d: legacy local-ratio violates groups: %v", trial, err)
		}
		c, err := Compile(inst, 0, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := c.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flat.Check(inst); err != nil {
			t.Fatalf("trial %d: compiled sweep violates groups: %v", trial, err)
		}
		if math.Float64bits(flat.Profit) != math.Float64bits(legacy.Profit) {
			t.Fatalf("trial %d: compiled profit %v != legacy %v", trial, flat.Profit, legacy.Profit)
		}
		for j := range flat.ItemBin {
			if flat.ItemBin[j] != legacy.ItemBin[j] {
				t.Fatalf("trial %d: compiled item %d in bin %d, legacy in %d",
					trial, j, flat.ItemBin[j], legacy.ItemBin[j])
			}
		}
		greedy, err := Greedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := greedy.Check(inst); err != nil {
			t.Fatalf("trial %d: greedy violates groups: %v", trial, err)
		}
		if cg := c.greedy(); !reflect.DeepEqual(cg.ItemBin, greedy.ItemBin) ||
			math.Float64bits(cg.Profit) != math.Float64bits(greedy.Profit) {
			t.Fatalf("trial %d: compiled greedy %v (profit %v) != reference %v (profit %v)",
				trial, cg.ItemBin, cg.Profit, greedy.ItemBin, greedy.Profit)
		}
		ex, err := Exhaustive(inst, 1<<22)
		if err != nil {
			continue // state cap exceeded: skip the optimality probe
		}
		if _, err := ex.Check(inst); err != nil {
			t.Fatalf("trial %d: exhaustive violates groups: %v", trial, err)
		}
		if ex.Profit+1e-9 < legacy.Profit || ex.Profit+1e-9 < greedy.Profit {
			t.Fatalf("trial %d: exhaustive %v below a heuristic (lr %v, greedy %v)",
				trial, ex.Profit, legacy.Profit, greedy.Profit)
		}
	}
}
