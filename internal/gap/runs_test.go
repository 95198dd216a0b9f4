package gap

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameForm names the first field in which two compiled forms differ, ""
// when they agree; an empty array equals a nil one.
func sameForm(got, want *Compiled) string {
	switch {
	case got.NumItems != want.NumItems || got.maxBin != want.maxBin:
		return "size"
	case !slices.Equal(got.Off, want.Off):
		return "Off"
	case !slices.Equal(got.First, want.First):
		return "First"
	case !slices.Equal(got.Count, want.Count):
		return "Count"
	case !slices.Equal(got.Profit, want.Profit):
		return "Profit"
	case !slices.Equal(got.Weight, want.Weight):
		return "Weight"
	case !slices.Equal(got.Cap, want.Cap):
		return "Cap"
	case !slices.Equal(got.WQ, want.WQ):
		return "WQ"
	case !slices.Equal(got.CapU, want.CapU):
		return "CapU"
	}
	return ""
}

// sameAssignment fails unless a compiled pass's item → bin result and
// its profit equal the reference's, the profit bit for bit.
func sameAssignment(t *testing.T, what string, c *Compiled, itemBin []int32, want *Assignment) {
	t.Helper()
	got := make([]int, len(itemBin))
	for j, b := range itemBin {
		got[j] = int(b)
	}
	if p := c.profitOf(itemBin); !slices.Equal(got, want.ItemBin) || math.Float64bits(p) != math.Float64bits(want.Profit) {
		t.Fatalf("%s: items → bins %v (profit %v), reference %v (profit %v)", what, got, p, want.ItemBin, want.Profit)
	}
}

// checkRunDraw compiles d run by run and item by item, and requires the
// two forms to agree field for field; then it holds SolveInto, Greedy
// and Sequential on the run form to the per-entry references bit for
// bit, with the exact DP and with the FPTAS, the sweep and Greedy under
// d's conflict groups (if any) and Sequential with them passed to the
// pass, as the fleet solvers do. Sequential also runs with a data cap on
// every other bin, unless a profit is too large for the capped kernel's
// profit quanta.
func checkRunDraw(t *testing.T, d runDraw, ws *Workspace) {
	t.Helper()
	ctx := context.Background()
	for _, o := range []struct {
		name       string
		quantum    float64
		eps        float64
		oracle     Oracle
		dataCapped bool
	}{
		{"dp", runQuantum, 0, DPOracle(runQuantum), false},
		{"fptas", 0, 0.25, FPTASOracle(0.25), false},
		{"dp-capped", runQuantum, 0, nil, true},
	} {
		if o.dataCapped && d.huge {
			continue
		}
		for _, grouped := range []bool{false, true} {
			if grouped && d.inst.ItemGroup == nil {
				continue
			}
			perItem, err := d.compile(new(Builder), o.quantum, o.eps, true, grouped)
			if err != nil {
				t.Fatal(err)
			}
			c, err := d.compile(ws.Builder(), o.quantum, o.eps, false, grouped)
			if err != nil {
				t.Fatal(err)
			}
			if f := sameForm(c, perItem); f != "" {
				t.Fatalf("%s grouped=%v: the run-by-run compile's %s differs from the item-by-item one's", o.name, grouped, f)
			}
			itemBin := ws.ItemBin(c.NumItems)
			if grouped {
				// The Builder reduced the groups; Sequential takes them
				// as a parameter of an ungrouped compile instead.
				if o.oracle != nil {
					want, err := LocalRatioCtx(ctx, d.inst, o.oracle)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.SolveInto(ctx, ws.Scratch(), itemBin); err != nil {
						t.Fatal(err)
					}
					sameAssignment(t, o.name+" grouped sweep", c, itemBin, want)
					want, err = Greedy(d.inst)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.Greedy(ws.Scratch(), itemBin); err != nil {
						t.Fatal(err)
					}
					sameAssignment(t, o.name+" grouped greedy", c, itemBin, want)
				}
				continue
			}
			flat := *d.inst
			flat.ItemGroup = nil
			if o.oracle != nil {
				want, err := LocalRatioCtx(ctx, &flat, o.oracle)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SolveInto(ctx, ws.Scratch(), itemBin); err != nil {
					t.Fatal(err)
				}
				sameAssignment(t, o.name+" sweep", c, itemBin, want)
				want, err = Greedy(&flat)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Greedy(ws.Scratch(), itemBin); err != nil {
					t.Fatal(err)
				}
				sameAssignment(t, o.name+" greedy", c, itemBin, want)
			}
			var dataCap []float64
			if o.dataCapped {
				dataCap = make([]float64, len(d.runs))
				for b := range dataCap {
					dataCap[b] = math.Inf(1)
					if b%2 == 0 {
						dataCap[b] = float64(4 + b)
					}
				}
			}
			want, err := SequentialRef(ctx, &flat, d.inst.ItemGroup, dataCap, 1, o.quantum, c.Eps)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Sequential(ctx, ws.Scratch(), d.inst.ItemGroup, dataCap, 1, itemBin); err != nil {
				t.Fatal(err)
			}
			sameAssignment(t, o.name+" sequential", c, itemBin, want)
		}
	}
}

// TestRunsMatchReference holds the run engine to the per-entry
// references on random run-structured draws, with and without conflict
// groups, on one workspace throughout, so no state leaks from one solve
// into the next. The draws must reach every shape the engine cuts,
// merges or skips (runFeatures) many times over.
func TestRunsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := GetWorkspace()
	defer ws.Release()
	var f runFeatures
	for trial := 0; trial < 3000; trial++ {
		d := drawRuns(rng, trial%2 == 1)
		checkRunDraw(t, d, ws)
		c, err := d.compile(new(Builder), runQuantum, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.add(d, c); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("features %+v", f)
	for name, n := range map[string]int{
		"split runs": f.split, "holes": f.hole, "heavy runs": f.heavy, "free runs": f.free,
		"absorbed sums": f.absorbed, "merged seams": f.seam, "greedy ties": f.tie,
	} {
		if n < 100 {
			t.Errorf("%d draws' sweeps met %s, want 100 or more", n, name)
		}
	}
}

// FuzzRunsMatchReference decodes a run-structured draw from the fuzzer's
// seed, grouped when the flag is odd, and holds the run engine to the
// per-entry references on it.
func FuzzRunsMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(77), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		ws := GetWorkspace()
		defer ws.Release()
		checkRunDraw(t, drawRuns(rand.New(rand.NewSource(seed)), flags&1 == 1), ws)
	})
}

// TestRunFolds: the Builder folds a run into the bin's last one exactly
// when it continues it, same profit and weight from the next item on,
// whether listed by Run or Add; never across a bin, a gap, another
// profit or weight, or a dropped listing; and keeps one run per item
// under conflict groups.
func TestRunFolds(t *testing.T) {
	var b Builder
	b.Reset(12, nil, 0.1, 0)
	b.Bin(5)
	b.Run(0, 2, 3, 0.2)
	b.Add(2, 3, 0.2)    // folds: items 0-2
	b.Run(3, 2, 3, 0.3) // another weight
	b.Run(5, 1, 0, 0.3) // dropped: no profit
	b.Run(6, 2, 3, 0.3) // after a dropped item: a run of its own
	b.Run(9, 1, 3, 0.3) // after a gap
	b.Run(10, 0, 3, 0.3)
	b.Bin(5)
	b.Run(11, 1, 3, 0.3) // another bin
	c, err := b.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.First, []int32{0, 3, 6, 9, 11}) || !reflect.DeepEqual(c.Count, []int32{3, 2, 2, 1, 1}) ||
		!reflect.DeepEqual(c.Off, []int32{0, 4, 5}) || c.maxBin != 8 {
		t.Fatalf("runs from items %v of %v, offsets %v, %d entries in the largest bin", c.First, c.Count, c.Off, c.maxBin)
	}
	b.Reset(4, []int{0, 1, 0, 1}, 0.1, 0)
	b.Bin(5)
	b.Run(0, 4, 3, 0.2)
	if c, err = b.Compiled(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.First, []int32{0, 1}) || !reflect.DeepEqual(c.Count, []int32{1, 1}) {
		t.Fatalf("grouped runs from items %v of %v, want one run per group winner", c.First, c.Count)
	}
	b.Reset(2, nil, 0.1, 0)
	b.Bin(5)
	b.Run(0, 0, 3, 0.2)
	b.Run(0, 2, 3, 0.2)
	if _, err := b.Compiled(); err != nil && strings.Contains(err.Error(), "twice") {
		t.Fatalf("an empty run listed its item: %v", err)
	}
}

// TestRunsNoAllocs: compiling run-structured draws run by run and
// solving them, with the DP sweep, the FPTAS sweep and Greedy, allocates
// nothing on a warm workspace.
func TestRunsNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var draws []runDraw
	for range 20 {
		draws = append(draws, drawRuns(rng, false))
	}
	for _, mode := range []struct {
		name    string
		quantum float64
	}{{"dp", runQuantum}, {"fptas", 0}, {"greedy", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			ws := GetWorkspace()
			defer ws.Release()
			run := func() {
				for _, d := range draws {
					c, err := d.compile(ws.Builder(), mode.quantum, 0.25, false, false)
					if err == nil {
						if mode.name == "greedy" {
							err = c.Greedy(ws.Scratch(), ws.ItemBin(c.NumItems))
						} else {
							err = c.SolveInto(context.Background(), ws.Scratch(), ws.ItemBin(c.NumItems))
						}
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			run() // warm the workspace's buffers
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Fatalf("compile and solve allocate %v per run on a warm workspace", n)
			}
		})
	}
}
