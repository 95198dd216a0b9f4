package core

import (
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/energy"
	"mobisink/internal/geom"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// perSlotWindow is a window in the per-slot form the instance builders
// wrote before link runs: the rate and power of each global slot
// start+k of [start, end].
type perSlotWindow struct {
	start, end    int
	rates, powers []float64
}

// perSlotWindows is the link loop BuildInstance and BuildFleetInstance
// each ran before link runs, kept as the reference the runs must match:
// per sensor its windows against sinks, the lowest sink's first, each
// slot's link evaluated at the slot's midpoint and a dead slot's left
// zero.
func perSlotWindows(dep *network.Deployment, model radio.Model, sinks []SinkInfo) [][]perSlotWindow {
	r := model.Range()
	out := make([][]perSlotWindow, len(dep.Sensors))
	for i, s := range dep.Sensors {
		for _, sk := range sinks {
			j0, j1, ok := sk.Traj.SlotWindow(s.Pos, r)
			if !ok {
				continue
			}
			w := perSlotWindow{start: sk.Offset + j0, end: sk.Offset + j1,
				rates: make([]float64, j1-j0+1), powers: make([]float64, j1-j0+1)}
			for j := j0; j <= j1; j++ {
				d := sk.Traj.PosAtSlotMid(j).Dist(s.Pos)
				l, lok := model.LinkAt(d)
				if !lok {
					continue
				}
				w.rates[j-j0] = l.Rate
				w.powers[j-j0] = l.Power
			}
			out[i] = append(out[i], w)
		}
	}
	return out
}

// builtSinks returns the sink segments inst was built over: its Sinks,
// or BuildInstance's one trajectory over [0, T).
func builtSinks(inst *Instance) []SinkInfo {
	if inst.Sinks != nil {
		return inst.Sinks
	}
	return []SinkInfo{{T: inst.T, Traj: inst.Traj}}
}

// slotLinks returns s's windows, the primary first, in the per-slot
// form, each slot's link read with RateAt and PowerAt.
func slotLinks(s *SensorSlots) []perSlotWindow {
	var out []perSlotWindow
	add := func(start, end int) {
		w := perSlotWindow{start: start, end: end}
		for j := start; j <= end; j++ {
			w.rates = append(w.rates, s.RateAt(j))
			w.powers = append(w.powers, s.PowerAt(j))
		}
		out = append(out, w)
	}
	if s.Start >= 0 {
		add(s.Start, s.End)
	}
	for _, w := range s.More {
		add(w.Start, w.End)
	}
	return out
}

// runsOf folds a window's per-slot rates and powers, from global slot
// start on, into link runs with AppendLink, as the builders do.
func runsOf(start int, rates, powers []float64) []LinkRun {
	var runs []LinkRun
	for k := range rates {
		runs = AppendLink(runs, start+k, radio.Link{Rate: rates[k], Power: powers[k]})
	}
	return runs
}

// checkPerSlot fails t unless inst's windows hold what the per-slot
// reference ref wrote: the same window bounds, and at every global slot
// of [−1, T] RateAt, PowerAt and Contains read the reference's rate and
// power bit for bit and its membership. It also checks that each
// window's runs tile it, one maximal run per link.
func checkPerSlot(t *testing.T, inst *Instance, ref [][]perSlotWindow) {
	t.Helper()
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		var bounds [][2]int
		tiles := func(start, end int, runs []LinkRun) {
			bounds = append(bounds, [2]int{start, end})
			next := start
			for k, run := range runs {
				if run.Start != next || run.End < run.Start || (k > 0 && runs[k-1].Link == run.Link) {
					t.Fatalf("sensor %d window [%d,%d]: runs %v do not tile it one link a run", i, start, end, runs)
				}
				next = run.End + 1
			}
			if next != end+1 {
				t.Fatalf("sensor %d window [%d,%d]: runs %v end at %d", i, start, end, runs, next-1)
			}
		}
		if s.Start >= 0 {
			tiles(s.Start, s.End, s.Runs)
		} else if s.Runs != nil || len(s.More) != 0 {
			t.Fatalf("sensor %d hears no sink but has runs or windows", i)
		}
		for _, w := range s.More {
			tiles(w.Start, w.End, w.Runs)
		}
		if len(bounds) != len(ref[i]) {
			t.Fatalf("sensor %d: %d windows, the per-slot loop wrote %d", i, len(bounds), len(ref[i]))
		}
		for k, w := range ref[i] {
			if bounds[k] != [2]int{w.start, w.end} {
				t.Fatalf("sensor %d window %d: [%d,%d], the per-slot loop wrote [%d,%d]", i, k, bounds[k][0], bounds[k][1], w.start, w.end)
			}
		}
		for j := -1; j <= inst.T; j++ {
			rate, power, in := 0.0, 0.0, false
			for _, w := range ref[i] {
				if j >= w.start && j <= w.end {
					rate, power, in = w.rates[j-w.start], w.powers[j-w.start], true
					break
				}
			}
			if got := s.RateAt(j); math.Float64bits(got) != math.Float64bits(rate) {
				t.Fatalf("sensor %d slot %d: RateAt %v, per-slot %v", i, j, got, rate)
			}
			if got := s.PowerAt(j); math.Float64bits(got) != math.Float64bits(power) {
				t.Fatalf("sensor %d slot %d: PowerAt %v, per-slot %v", i, j, got, power)
			}
			if got := s.Contains(j); got != in {
				t.Fatalf("sensor %d slot %d: Contains %v, per-slot %v", i, j, got, in)
			}
		}
	}
}

// linkDeployment generates n sensors along waypoints (nil: the paper's
// straight 10 km road, 180 m either side) with steady-state budgets.
func linkDeployment(t *testing.T, n int, seed int64, waypoints []geom.Point) *network.Deployment {
	t.Helper()
	var d *network.Deployment
	var err error
	if waypoints == nil {
		d, err = network.Generate(network.PaperParams(n, seed))
	} else {
		d, err = network.GenerateAlong(waypoints, n, 150, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), d.PathLength/5, 0.2, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLinkAccessorsMatchPerSlot: the builders' link runs read, through
// RateAt, PowerAt and Contains, bit for bit what their per-slot arrays
// held, at every global slot of [−1, T] — on Figure 2, 3 and 4 cells, a
// K=2 fleet whose sinks cross, a switchback road whose windows span
// dead slots, and the fixed-power and path-loss radios (the latter a
// run per slot).
func TestLinkAccessorsMatchPerSlot(t *testing.T) {
	pathLoss, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	fixed := parityModel(t, true)
	switchback := []geom.Point{{X: 0, Y: 0}, {X: 4000, Y: 0}, {X: 4200, Y: 150}, {X: 200, Y: 300}}
	crossing := func(d *network.Deployment) {
		there, back := geom.Point{X: 0, Y: 0}, geom.Point{X: d.PathLength, Y: 0}
		d.Sinks = []network.SinkSpec{{Waypoints: []geom.Point{there, back}}, {Waypoints: []geom.Point{back, there}}}
	}
	for _, c := range []struct {
		name       string
		n          int
		waypoints  []geom.Point
		sinks      func(*network.Deployment) // nil: BuildInstance
		model      radio.Model
		speed, tau float64
	}{
		{"fig2", 300, nil, nil, radio.Paper2013(), 5, 1},
		{"fig2-30ms-4s", 300, nil, nil, radio.Paper2013(), 30, 4},
		{"fig3-fixed-power", 300, nil, nil, fixed, 5, 1},
		{"fig4a-tau8", 300, nil, nil, fixed, 5, 8},
		{"fig4b-tau8", 300, nil, nil, radio.Paper2013(), 5, 8},
		{"fleet-k2-crossing", 100, []geom.Point{{X: 0, Y: 0}, {X: 2000, Y: 0}}, crossing, radio.Paper2013(), 5, 1},
		{"switchback", 300, switchback, nil, radio.Paper2013(), 5, 1},
		{"pathloss", 100, nil, nil, pathLoss, 5, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := linkDeployment(t, c.n, 1, c.waypoints)
			var inst *Instance
			var err error
			if c.sinks != nil {
				c.sinks(d)
				inst, err = BuildFleetInstance(d, c.model, c.speed, c.tau)
			} else {
				inst, err = BuildInstance(d, c.model, c.speed, c.tau)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkPerSlot(t, inst, perSlotWindows(d, c.model, builtSinks(inst)))
		})
	}
}

// TestStraightPassRunBound: on the paper's tier table the sink's
// distance to a sensor falls and then rises along a straight path, so
// its link changes at most 2·(tiers − 1) times and every window is at
// most 2·tiers − 1 runs — at Figure 2's sink speeds and slot lengths, on
// one sink and on a fleet that splits the road.
func TestStraightPassRunBound(t *testing.T) {
	limit := 2*len(radio.Paper2013().Tiers()) - 1
	for seed := int64(1); seed <= 3; seed++ {
		for _, cell := range []struct{ speed, tau float64 }{{5, 1}, {10, 2}, {30, 4}} {
			for _, split := range []int{1, 4} {
				d := linkDeployment(t, 300, seed, nil)
				if err := d.SplitSinks(split, nil); err != nil {
					t.Fatal(err)
				}
				inst, err := BuildFleetInstance(d, radio.Paper2013(), cell.speed, cell.tau)
				if err != nil {
					t.Fatal(err)
				}
				for i := range inst.Sensors {
					s := &inst.Sensors[i]
					most := len(s.Runs)
					for _, w := range s.More {
						most = max(most, len(w.Runs))
					}
					if most > limit {
						t.Fatalf("seed %d, %v m/s, τ=%v, %d sinks: sensor %d has a window of %d runs, over %d",
							seed, cell.speed, cell.tau, split, i, most, limit)
					}
				}
			}
		}
	}
}
