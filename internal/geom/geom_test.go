package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, -2}
	if got := p.Add(q); got != (Point{4, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3*1+4*(-2) {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := p.Dist(Point{0, 0}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestLineAt(t *testing.T) {
	l := HighwayLine(100)
	cases := []struct {
		s    float64
		want Point
	}{
		{0, Point{0, 0}},
		{50, Point{50, 0}},
		{100, Point{100, 0}},
		{-10, Point{0, 0}},   // clamped
		{150, Point{100, 0}}, // clamped
	}
	for _, c := range cases {
		if got := l.At(c.s); got.Dist(c.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestLineCoverInterval(t *testing.T) {
	l := HighwayLine(1000)
	// Sensor 30 m off the path at x=500, range 50 → chord half-width 40.
	s0, s1, ok := l.CoverInterval(Point{500, 30}, 50)
	if !ok {
		t.Fatal("expected coverage")
	}
	if math.Abs(s0-460) > 1e-9 || math.Abs(s1-540) > 1e-9 {
		t.Errorf("interval = [%v, %v], want [460, 540]", s0, s1)
	}
	// Out of range.
	if _, _, ok := l.CoverInterval(Point{500, 60}, 50); ok {
		t.Error("expected no coverage for offset 60 > range 50")
	}
	// Sensor beyond the end of the segment but within range of endpoint.
	s0, s1, ok = l.CoverInterval(Point{1020, 0}, 50)
	if !ok {
		t.Fatal("expected endpoint coverage")
	}
	if s1 > 1000 || s0 > s1 {
		t.Errorf("clamped interval invalid: [%v, %v]", s0, s1)
	}
	// Sensor far beyond the end: no coverage.
	if _, _, ok := l.CoverInterval(Point{1100, 0}, 50); ok {
		t.Error("expected no coverage at 100 m past endpoint with range 50")
	}
}

// Property: every arc length inside the reported cover interval is actually
// within range (+tolerance), and points just outside are not (for intervals
// strictly inside the segment).
func TestLineCoverIntervalProperty(t *testing.T) {
	l := HighwayLine(10000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := Point{rng.Float64() * 10000, (rng.Float64() - 0.5) * 400}
		r := 50 + rng.Float64()*150
		s0, s1, ok := l.CoverInterval(p, r)
		if !ok {
			if math.Abs(p.Y) <= r {
				// Only possible when the projection falls far outside.
				if p.X >= -r && p.X <= 10000+r {
					t.Fatalf("missed coverage for %v r=%v", p, r)
				}
			}
			continue
		}
		for _, s := range []float64{s0, (s0 + s1) / 2, s1} {
			if d := l.At(s).Dist(p); d > r+1e-6 {
				t.Fatalf("point at s=%v is at distance %v > r=%v (p=%v)", s, d, r, p)
			}
		}
		if s0 > 1 && s1 < 9999 && s1-s0 > 2 {
			if d := l.At(s0 - 1).Dist(p); d < r-1e-6 {
				t.Fatalf("interval start not tight: dist(s0-1)=%v < r=%v", d, r)
			}
		}
	}
}

func TestPolylineMatchesLine(t *testing.T) {
	// A polyline with collinear waypoints must behave like the line.
	pl, err := NewPolyline([]Point{{0, 0}, {300, 0}, {700, 0}, {1000, 0}})
	if err != nil {
		t.Fatal(err)
	}
	l := HighwayLine(1000)
	if pl.Length() != l.Length() {
		t.Fatalf("length mismatch: %v vs %v", pl.Length(), l.Length())
	}
	for s := 0.0; s <= 1000; s += 37.5 {
		if pl.At(s).Dist(l.At(s)) > 1e-9 {
			t.Errorf("At(%v): polyline %v vs line %v", s, pl.At(s), l.At(s))
		}
	}
	p := Point{500, 30}
	a0, a1, ok1 := pl.CoverInterval(p, 50)
	b0, b1, ok2 := l.CoverInterval(p, 50)
	if ok1 != ok2 || math.Abs(a0-b0) > 1e-6 || math.Abs(a1-b1) > 1e-6 {
		t.Errorf("cover mismatch: [%v %v %v] vs [%v %v %v]", a0, a1, ok1, b0, b1, ok2)
	}
}

func TestPolylineValidation(t *testing.T) {
	if _, err := NewPolyline([]Point{{0, 0}}); err == nil {
		t.Error("expected error for single waypoint")
	}
	if _, err := NewPolyline([]Point{{0, 0}, {0, 0}, {1, 1}}); err == nil {
		t.Error("expected error for duplicate consecutive waypoints")
	}
}

func TestPolylineCorner(t *testing.T) {
	pl, err := NewPolyline([]Point{{0, 0}, {100, 0}, {100, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Length(); got != 200 {
		t.Fatalf("Length = %v, want 200", got)
	}
	if got := pl.At(150); got.Dist(Point{100, 50}) > 1e-9 {
		t.Errorf("At(150) = %v, want (100,50)", got)
	}
	// A point near the corner is covered on both segments; hull interval.
	s0, s1, ok := pl.CoverInterval(Point{100, 0}, 10)
	if !ok {
		t.Fatal("expected corner coverage")
	}
	if math.Abs(s0-90) > 1e-9 || math.Abs(s1-110) > 1e-9 {
		t.Errorf("corner interval = [%v, %v], want [90, 110]", s0, s1)
	}
}

func TestNewTrajectoryValidation(t *testing.T) {
	l := HighwayLine(1000)
	if _, err := NewTrajectory(nil, 5, 1); err == nil {
		t.Error("expected error for nil path")
	}
	if _, err := NewTrajectory(l, 0, 1); err == nil {
		t.Error("expected error for zero speed")
	}
	if _, err := NewTrajectory(l, 5, -1); err == nil {
		t.Error("expected error for negative slot length")
	}
}

func TestTrajectorySlotCount(t *testing.T) {
	l := HighwayLine(10000)
	cases := []struct {
		speed, tau float64
		want       int
	}{
		{5, 1, 2000},
		{10, 2, 500},
		{30, 4, 84}, // ceil(10000/120) = 84
		{5, 16, 125},
	}
	for _, c := range cases {
		tr, err := NewTrajectory(l, c.speed, c.tau)
		if err != nil {
			t.Fatal(err)
		}
		if tr.SlotCount != c.want {
			t.Errorf("T(speed=%v, tau=%v) = %d, want %d", c.speed, c.tau, tr.SlotCount, c.want)
		}
	}
}

func TestTrajectoryGamma(t *testing.T) {
	l := HighwayLine(10000)
	tr, _ := NewTrajectory(l, 5, 1)
	if got := tr.Gamma(200); got != 40 {
		t.Errorf("Gamma(200) = %d, want 40", got)
	}
	tr2, _ := NewTrajectory(l, 30, 4)
	if got := tr2.Gamma(200); got != 1 {
		t.Errorf("Gamma = %d, want 1 (floor 200/120)", got)
	}
	// Gamma never returns less than 1.
	tr3, _ := NewTrajectory(l, 100, 10)
	if got := tr3.Gamma(200); got != 1 {
		t.Errorf("Gamma = %d, want clamped 1", got)
	}
}

func TestSlotWindow(t *testing.T) {
	l := HighwayLine(10000)
	tr, _ := NewTrajectory(l, 5, 1) // 5 m per slot
	// Sensor on the path at x=1000, range 200 → cover [800,1200] → slots
	// with midpoints in range: slot j midpoint = 5j+2.5.
	j0, j1, ok := tr.SlotWindow(Point{1000, 0}, 200)
	if !ok {
		t.Fatal("expected window")
	}
	if tr.PosAtSlotMid(j0).Dist(Point{1000, 0}) > 200 || tr.PosAtSlotMid(j1).Dist(Point{1000, 0}) > 200 {
		t.Error("window endpoints out of range")
	}
	if j0 > 0 && tr.PosAtSlotMid(j0-1).Dist(Point{1000, 0}) <= 200-1e-9 {
		t.Error("window start not tight")
	}
	if j1 < tr.SlotCount-1 && tr.PosAtSlotMid(j1+1).Dist(Point{1000, 0}) <= 200-1e-9 {
		t.Error("window end not tight")
	}
	// Sensor too far off the path.
	if _, _, ok := tr.SlotWindow(Point{1000, 300}, 200); ok {
		t.Error("expected no window for 300 m offset")
	}
}

func TestSlotWindowProperty(t *testing.T) {
	l := HighwayLine(10000)
	tr, _ := NewTrajectory(l, 10, 2) // 20 m per slot
	f := func(xRaw, yRaw uint16) bool {
		p := Point{float64(xRaw % 10000), float64(yRaw%360) - 180}
		j0, j1, ok := tr.SlotWindow(p, 200)
		if !ok {
			return true
		}
		if j0 < 0 || j1 >= tr.SlotCount || j0 > j1 {
			return false
		}
		for j := j0; j <= j1; j++ {
			if tr.PosAtSlotMid(j).Dist(p) > 200+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTourDuration(t *testing.T) {
	tr, _ := NewTrajectory(HighwayLine(10000), 5, 1)
	if got := tr.TourDuration(); got != 2000 {
		t.Errorf("TourDuration = %v, want 2000", got)
	}
}

func TestSlotPositions(t *testing.T) {
	tr, _ := NewTrajectory(HighwayLine(100), 10, 1)
	if got := tr.SlotStart(3); got != 30 {
		t.Errorf("SlotStart(3) = %v", got)
	}
	if got := tr.SlotMid(3); got != 35 {
		t.Errorf("SlotMid(3) = %v", got)
	}
	if got := tr.PosAtSlotStart(3); got.Dist(Point{30, 0}) > 1e-9 {
		t.Errorf("PosAtSlotStart(3) = %v", got)
	}
	if got := tr.PosAtSlotMid(9); got.Dist(Point{95, 0}) > 1e-9 {
		t.Errorf("PosAtSlotMid(9) = %v", got)
	}
}

func TestNearest(t *testing.T) {
	l := HighwayLine(1000)
	s, d := Nearest(l, Point{300, 40})
	if math.Abs(s-300) > 1e-9 || math.Abs(d-40) > 1e-9 {
		t.Errorf("line nearest = (%v, %v)", s, d)
	}
	// Beyond the end: clamps to the endpoint.
	s, d = Nearest(l, Point{1100, 0})
	if s != 1000 || math.Abs(d-100) > 1e-9 {
		t.Errorf("clamped nearest = (%v, %v)", s, d)
	}
	pl, _ := NewPolyline([]Point{{0, 0}, {100, 0}, {100, 100}})
	s, d = Nearest(pl, Point{110, 50})
	if math.Abs(s-150) > 1e-9 || math.Abs(d-10) > 1e-9 {
		t.Errorf("polyline nearest = (%v, %v)", s, d)
	}
	// Sampling fallback must agree with the analytic answer.
	s2, d2 := nearestBySampling(pl, Point{110, 50})
	if math.Abs(s2-150) > 0.01 || math.Abs(d2-10) > 0.01 {
		t.Errorf("sampled nearest = (%v, %v)", s2, d2)
	}
}
