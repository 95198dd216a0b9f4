package online

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/geom"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// inRangeByDistance is InRange without its per-axis test: every sensor
// with a window whose distance to the sink is within the range.
func inRangeByDistance(inst *core.Instance, iv Interval) []int {
	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)
	var dst []int
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start >= 0 && sinkPos.Dist(s.Pos) <= inst.Range {
			dst = append(dst, i)
		}
	}
	return dst
}

// TestInRangeMatchesDistance: InRange's per-axis test, made before the
// distance, changes no probe set. On random deployments along a straight
// road and along examples/curvedroad's switchback, and with sensors moved
// to exactly the range from the sink along one axis, just inside and
// outside it, and to a corner of the range's bounding square, every
// interval's probe set equals the plain distance test's.
func TestInRangeMatchesDistance(t *testing.T) {
	switchback := []geom.Point{{X: 0, Y: 0}, {X: 4000, Y: 0}, {X: 4200, Y: 150}, {X: 200, Y: 300}}
	for seed := int64(1); seed <= 3; seed++ {
		straight, err := network.Generate(network.PaperParams(300, seed))
		if err != nil {
			t.Fatal(err)
		}
		curved, err := network.GenerateAlong(switchback, 300, 150, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*network.Deployment{straight, curved} {
			if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), d.PathLength/5, 0.2, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			inst, err := core.BuildInstance(d, radio.Paper2013(), 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Move every tenth sensor with a window onto the range's edge
			// or corner as seen from some interval's sink position.
			rng := rand.New(rand.NewSource(seed))
			ivs := (inst.T + inst.Gamma - 1) / inst.Gamma
			r := inst.Range
			onAxis := 0
			for i := range inst.Sensors {
				s := &inst.Sensors[i]
				if s.Start < 0 || i%10 != 0 {
					continue
				}
				at := inst.Traj.PosAtSlotStart(rng.Intn(ivs) * inst.Gamma)
				off := []geom.Point{
					{X: r}, {X: -r}, {Y: r}, {Y: -r},
					{X: math.Nextafter(r, 0)}, {Y: math.Nextafter(r, math.Inf(1))},
					{X: r, Y: r}, {X: -r, Y: math.Nextafter(r, 0)},
				}[rng.Intn(8)]
				s.Pos = geom.Point{X: at.X + off.X, Y: at.Y + off.Y}
				if dx, dy := math.Abs(s.Pos.X-at.X), math.Abs(s.Pos.Y-at.Y); (dx == r && dy == 0) || (dy == r && dx == 0) {
					onAxis++
				}
			}
			if onAxis == 0 {
				t.Fatal("no sensor lies exactly the range away along an axis")
			}
			for j := 0; j < ivs; j++ {
				iv := Interval{Index: j, Start: j * inst.Gamma, End: min((j+1)*inst.Gamma, inst.T) - 1}
				if got, want := InRange(inst, iv, nil), inRangeByDistance(inst, iv); !slices.Equal(got, want) {
					t.Fatalf("seed %d interval %d: InRange %v, distance test %v", seed, j, got, want)
				}
			}
		}
	}
}
