// Package geom provides the planar geometry substrate for the mobile-sink
// data-collection simulator: points and vectors, tour paths (straight lines
// and general polylines) parameterized by arc length, and the mapping from
// discrete time slots to sink positions.
//
// The paper assumes a straight-line pre-defined path and notes the extension
// to general paths is straightforward; Path is therefore an interface with a
// Line implementation (used by all experiments) and a Polyline implementation
// (used to validate the straight-line assumption is not load-bearing).
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Path is a curve parameterized by arc length along which the mobile sink
// travels. Arc length 0 is the tour start.
type Path interface {
	// Length returns the total arc length of the path in meters.
	Length() float64
	// At returns the point at arc length s. s is clamped to [0, Length()].
	At(s float64) Point
	// CoverInterval returns the interval [s0, s1] of arc lengths at which
	// the path point is within distance r of p. ok is false when the path
	// never comes within r of p. The interval is a single contiguous range;
	// for paths that approach p several times it is the hull of all
	// in-range arc lengths (conservative, matching the paper's assumption
	// that A(v) is a set of consecutive slots).
	CoverInterval(p Point, r float64) (s0, s1 float64, ok bool)
}

// Line is a straight-line path from A to B, the configuration used in all of
// the paper's experiments (a highway segment).
type Line struct {
	A, B Point
}

// HighwayLine returns the canonical experiment path: a straight segment of
// the given length along the x-axis starting at the origin.
func HighwayLine(length float64) *Line {
	return &Line{A: Point{0, 0}, B: Point{length, 0}}
}

// Length implements Path.
func (l *Line) Length() float64 { return l.A.Dist(l.B) }

// At implements Path.
func (l *Line) At(s float64) Point {
	length := l.Length()
	s = clamp(s, 0, length)
	t := s / length
	return l.A.Add(l.B.Sub(l.A).Scale(t))
}

// CoverInterval implements Path. For a straight line the in-range arc lengths
// form exactly one interval, obtained by solving
// |A + t·(B−A) − p|² ≤ r² for t.
func (l *Line) CoverInterval(p Point, r float64) (float64, float64, bool) {
	d := l.B.Sub(l.A)
	length := l.Length()
	u := d.Scale(1 / length) // unit direction
	w := p.Sub(l.A)
	// Projection of p onto the line, and perpendicular offset.
	proj := w.Dot(u)
	perp2 := w.Dot(w) - proj*proj
	if perp2 < 0 {
		perp2 = 0 // numerical noise
	}
	if perp2 > r*r {
		return 0, 0, false
	}
	half := math.Sqrt(r*r - perp2)
	s0 := clamp(proj-half, 0, length)
	s1 := clamp(proj+half, 0, length)
	if s0 >= s1 {
		// The chord lies entirely before or after the segment; the path
		// is in range only if an endpoint is in range.
		if l.At(s0).Dist(p) <= r {
			return s0, s0, true
		}
		return 0, 0, false
	}
	return s0, s1, true
}

// Polyline is a piecewise-linear path through a sequence of waypoints.
type Polyline struct {
	pts  []Point
	cum  []float64 // cumulative arc length at each waypoint
	tot  float64
	segN int
}

// NewPolyline builds a polyline through the given waypoints. At least two
// waypoints are required and consecutive waypoints must be distinct.
func NewPolyline(pts []Point) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, errors.New("geom: polyline needs at least two waypoints")
	}
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		d := pts[i].Dist(pts[i-1])
		if d == 0 {
			return nil, fmt.Errorf("geom: duplicate consecutive waypoint at index %d", i)
		}
		cum[i] = cum[i-1] + d
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Polyline{pts: cp, cum: cum, tot: cum[len(cum)-1], segN: len(pts) - 1}, nil
}

// Length implements Path.
func (pl *Polyline) Length() float64 { return pl.tot }

// At implements Path.
func (pl *Polyline) At(s float64) Point {
	s = clamp(s, 0, pl.tot)
	// Binary search for the segment containing s.
	lo, hi := 0, pl.segN-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid+1] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a, b := pl.pts[lo], pl.pts[lo+1]
	segLen := pl.cum[lo+1] - pl.cum[lo]
	t := (s - pl.cum[lo]) / segLen
	return a.Add(b.Sub(a).Scale(t))
}

// CoverInterval implements Path by sampling segment sub-intervals: each
// segment contributes its own analytic interval, and the union hull is
// returned.
func (pl *Polyline) CoverInterval(p Point, r float64) (float64, float64, bool) {
	found := false
	var s0, s1 float64
	for i := 0; i < pl.segN; i++ {
		seg := Line{A: pl.pts[i], B: pl.pts[i+1]}
		a, b, ok := seg.CoverInterval(p, r)
		if !ok {
			continue
		}
		a += pl.cum[i]
		b += pl.cum[i]
		if !found {
			s0, s1, found = a, b, true
		} else {
			s0 = math.Min(s0, a)
			s1 = math.Max(s1, b)
		}
	}
	return s0, s1, found
}

// Trajectory maps discrete time slots to sink positions for a sink moving
// along a path at constant speed.
type Trajectory struct {
	Path      Path
	Speed     float64 // r_s, meters/second
	SlotLen   float64 // τ, seconds
	SlotCount int     // T = ceil(L / (r_s·τ))
}

// NewTrajectory validates the kinematic parameters and derives the slot count
// T = ceil(L/(r_s·τ)) (paper §II.A).
func NewTrajectory(path Path, speed, slotLen float64) (*Trajectory, error) {
	switch {
	case path == nil:
		return nil, errors.New("geom: nil path")
	case speed <= 0:
		return nil, fmt.Errorf("geom: sink speed must be positive, got %v", speed)
	case slotLen <= 0:
		return nil, fmt.Errorf("geom: slot length must be positive, got %v", slotLen)
	}
	t := int(math.Ceil(path.Length() / (speed * slotLen)))
	if t < 1 {
		t = 1
	}
	return &Trajectory{Path: path, Speed: speed, SlotLen: slotLen, SlotCount: t}, nil
}

// Gamma returns Γ = ⌊R/(r_s·τ)⌋, the number of slots per online time interval
// for transmission range r (paper §V.A). Gamma is at least 1.
func (tr *Trajectory) Gamma(r float64) int {
	g := int(math.Floor(r / (tr.Speed * tr.SlotLen)))
	if g < 1 {
		g = 1
	}
	return g
}

// SlotStart returns the arc length of the sink at the beginning of slot j
// (0-based).
func (tr *Trajectory) SlotStart(j int) float64 {
	return float64(j) * tr.Speed * tr.SlotLen
}

// SlotMid returns the arc length of the sink at the middle of slot j
// (0-based). Slot midpoints are the default quantization for per-slot
// distances/rates.
func (tr *Trajectory) SlotMid(j int) float64 {
	return (float64(j) + 0.5) * tr.Speed * tr.SlotLen
}

// PosAtSlotMid returns the sink position at the middle of slot j.
func (tr *Trajectory) PosAtSlotMid(j int) Point {
	return tr.Path.At(tr.SlotMid(j))
}

// PosAtSlotStart returns the sink position at the beginning of slot j.
func (tr *Trajectory) PosAtSlotStart(j int) Point {
	return tr.Path.At(tr.SlotStart(j))
}

// SlotWindow returns the 0-based inclusive slot range [j0, j1] during which a
// sensor at p is within distance r of the sink, evaluating in-range status at
// slot midpoints. ok is false if no slot midpoint is within range.
func (tr *Trajectory) SlotWindow(p Point, r float64) (j0, j1 int, ok bool) {
	s0, s1, ok := tr.Path.CoverInterval(p, r)
	if !ok {
		return 0, 0, false
	}
	step := tr.Speed * tr.SlotLen
	// Slot j has midpoint (j+0.5)·step; midpoints within [s0, s1]:
	j0 = int(math.Ceil(s0/step - 0.5))
	j1 = int(math.Floor(s1/step - 0.5))
	if j0 < 0 {
		j0 = 0
	}
	if j1 > tr.SlotCount-1 {
		j1 = tr.SlotCount - 1
	}
	if j0 > j1 {
		// The cover interval is narrower than one slot and straddles no
		// midpoint; fall back to the single nearest slot if its midpoint
		// is actually in range.
		j := int((s0 + s1) / 2 / step)
		if j >= 0 && j < tr.SlotCount && tr.PosAtSlotMid(j).Dist(p) <= r {
			return j, j, true
		}
		return 0, 0, false
	}
	return j0, j1, true
}

// TourDuration returns the time the sink takes to traverse the whole path.
func (tr *Trajectory) TourDuration() float64 {
	return tr.Path.Length() / tr.Speed
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Nearest returns the arc length on the path closest to p and the distance
// at that point. Line and Polyline are handled analytically; other Path
// implementations fall back to dense sampling followed by local refinement.
func Nearest(path Path, p Point) (s float64, dist float64) {
	switch t := path.(type) {
	case *Line:
		return t.nearest(p)
	case *Polyline:
		return t.nearest(p)
	default:
		return nearestBySampling(path, p)
	}
}

func (l *Line) nearest(p Point) (float64, float64) {
	length := l.Length()
	u := l.B.Sub(l.A).Scale(1 / length)
	s := clamp(p.Sub(l.A).Dot(u), 0, length)
	return s, l.At(s).Dist(p)
}

func (pl *Polyline) nearest(p Point) (float64, float64) {
	bestS, bestD := 0.0, math.Inf(1)
	for i := 0; i < pl.segN; i++ {
		seg := Line{A: pl.pts[i], B: pl.pts[i+1]}
		s, d := seg.nearest(p)
		if d < bestD {
			bestD = d
			bestS = pl.cum[i] + s
		}
	}
	return bestS, bestD
}

func nearestBySampling(path Path, p Point) (float64, float64) {
	length := path.Length()
	const coarse = 512
	bestS, bestD := 0.0, math.Inf(1)
	for i := 0; i <= coarse; i++ {
		s := length * float64(i) / coarse
		if d := path.At(s).Dist(p); d < bestD {
			bestD, bestS = d, s
		}
	}
	// Local ternary refinement around the best coarse sample.
	lo := math.Max(0, bestS-length/coarse)
	hi := math.Min(length, bestS+length/coarse)
	for it := 0; it < 60; it++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if path.At(m1).Dist(p) < path.At(m2).Dist(p) {
			hi = m2
		} else {
			lo = m1
		}
	}
	s := (lo + hi) / 2
	return s, path.At(s).Dist(p)
}
