// Package network defines sensor deployments for the highway-monitoring
// scenario: homogeneous energy-harvesting sensors randomly placed along a
// pre-defined path, each with a per-tour energy budget derived from its
// harvester (paper §II.A-B, §VII.A).
package network

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"mobisink/internal/energy"
	"mobisink/internal/geom"
)

// Sensor is one stationary node.
type Sensor struct {
	ID     int        `json:"id"`
	Pos    geom.Point `json:"pos"`
	Budget float64    `json:"budget"` // energy available this tour, J
}

// SinkSpec describes one mobile sink of a fleet: its own tour path and
// cruise speed. A zero Speed defers to the speed supplied at
// instance-build time; an empty path (no waypoints, zero PathLength)
// defers to the deployment's own path.
type SinkSpec struct {
	// Speed is the sink's cruise speed in m/s; 0 means "use the default
	// speed passed to the instance builder".
	Speed float64 `json:"speed,omitempty"`
	// PathLength is the straight-line tour length along the x-axis when
	// Waypoints is empty; 0 falls back to the deployment's PathLength.
	PathLength float64 `json:"path_length,omitempty"`
	// Waypoints, when at least two are given, switch the sink to a
	// piecewise-linear tour path.
	Waypoints []geom.Point `json:"waypoints,omitempty"`
}

// Path returns the sink's tour path, falling back to the deployment-level
// straight highway of length depLen when the spec carries no path of its
// own.
func (sp *SinkSpec) Path(depLen float64) (geom.Path, error) {
	if len(sp.Waypoints) >= 2 {
		return geom.NewPolyline(sp.Waypoints)
	}
	if len(sp.Waypoints) == 1 {
		return nil, errors.New("network: sink spec with a single waypoint")
	}
	l := sp.PathLength
	if l == 0 {
		l = depLen
	}
	if l <= 0 {
		return nil, fmt.Errorf("network: sink spec with non-positive path length %v", l)
	}
	return geom.HighwayLine(l), nil
}

// Deployment is a set of sensors along a tour path. By default the path is
// a straight line of PathLength meters along the x-axis (the paper's
// setting); supplying at least two Waypoints switches to a piecewise-linear
// road instead (the paper notes the extension to real road shapes is
// straightforward — this is it).
//
// Sinks, when non-empty, declares a fleet of K mobile sinks, each with its
// own path and speed; deployments without the field (all pre-fleet JSON)
// keep the implicit single sink on the deployment path, so K=1 is the
// backward-compatible default.
type Deployment struct {
	PathLength float64      `json:"path_length"` // meters
	MaxOffset  float64      `json:"max_offset"`  // max sensor distance from the path, meters
	Waypoints  []geom.Point `json:"waypoints,omitempty"`
	Sinks      []SinkSpec   `json:"sinks,omitempty"`
	Sensors    []Sensor     `json:"sensors"`
}

// NumSinks returns the fleet size: len(Sinks), or 1 for the implicit
// single-sink (legacy) deployment.
func (d *Deployment) NumSinks() int {
	if len(d.Sinks) == 0 {
		return 1
	}
	return len(d.Sinks)
}

// SinkSpecs returns the fleet as an explicit spec list; legacy deployments
// yield one implicit spec riding on the deployment path.
func (d *Deployment) SinkSpecs() []SinkSpec {
	if len(d.Sinks) == 0 {
		return []SinkSpec{{PathLength: d.PathLength, Waypoints: d.Waypoints}}
	}
	return d.Sinks
}

// SinkPath returns sink k's tour path.
func (d *Deployment) SinkPath(k int) (geom.Path, error) {
	specs := d.SinkSpecs()
	if k < 0 || k >= len(specs) {
		return nil, fmt.Errorf("network: sink %d out of range (fleet of %d)", k, len(specs))
	}
	return specs[k].Path(d.PathLength)
}

// SplitSinks replaces the fleet with k sinks that split the deployment's
// straight highway into k contiguous equal segments: sink i tours
// [i·L/k, (i+1)·L/k] as a two-waypoint path at speeds[i] m/s (a single
// speed is broadcast to all sinks; nil keeps every Speed at 0, deferring
// to the build-time default). It errors on waypoint deployments — splitting
// a polyline is the caller's business.
func (d *Deployment) SplitSinks(k int, speeds []float64) error {
	if k < 1 {
		return fmt.Errorf("network: fleet size must be at least 1, got %d", k)
	}
	if len(d.Waypoints) > 0 {
		return errors.New("network: SplitSinks requires a straight-line deployment")
	}
	if d.PathLength <= 0 {
		return errors.New("network: SplitSinks on a deployment without a path")
	}
	if len(speeds) != 0 && len(speeds) != 1 && len(speeds) != k {
		return fmt.Errorf("network: %d speeds for %d sinks", len(speeds), k)
	}
	seg := d.PathLength / float64(k)
	sinks := make([]SinkSpec, k)
	for i := range sinks {
		sp := SinkSpec{Waypoints: []geom.Point{
			{X: float64(i) * seg, Y: 0},
			{X: float64(i+1) * seg, Y: 0},
		}}
		switch len(speeds) {
		case 1:
			sp.Speed = speeds[0]
		case k:
			sp.Speed = speeds[i]
		}
		if sp.Speed < 0 {
			return fmt.Errorf("network: negative speed %v for sink %d", sp.Speed, i)
		}
		sinks[i] = sp
	}
	d.Sinks = sinks
	return nil
}

// Params configures random topology generation.
type Params struct {
	N          int     // number of sensors
	PathLength float64 // L, meters (paper: 10 000)
	MaxOffset  float64 // max sensor distance from the path (paper: 180)
	Seed       int64   // RNG seed; same seed → same topology
}

// PaperParams returns the paper's §VII.A topology defaults for n sensors.
func PaperParams(n int, seed int64) Params {
	return Params{N: n, PathLength: 10000, MaxOffset: 180, Seed: seed}
}

// Generate places N sensors uniformly at random along the path: x uniform in
// [0, L], y uniform in [−MaxOffset, +MaxOffset]. Budgets start at zero; use
// a budget assigner before building a problem instance.
func Generate(p Params) (*Deployment, error) {
	switch {
	case p.N <= 0:
		return nil, fmt.Errorf("network: sensor count must be positive, got %d", p.N)
	case p.PathLength <= 0:
		return nil, fmt.Errorf("network: path length must be positive, got %v", p.PathLength)
	case p.MaxOffset < 0:
		return nil, fmt.Errorf("network: negative max offset %v", p.MaxOffset)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	d := &Deployment{PathLength: p.PathLength, MaxOffset: p.MaxOffset}
	d.Sensors = make([]Sensor, p.N)
	for i := range d.Sensors {
		d.Sensors[i] = Sensor{
			ID: i,
			Pos: geom.Point{
				X: rng.Float64() * p.PathLength,
				Y: (2*rng.Float64() - 1) * p.MaxOffset,
			},
		}
	}
	return d, nil
}

// Validate checks deployment invariants.
func (d *Deployment) Validate() error {
	if d.PathLength <= 0 {
		return errors.New("network: non-positive path length")
	}
	if len(d.Sensors) == 0 {
		return errors.New("network: empty deployment")
	}
	curved := len(d.Waypoints) > 0
	var path geom.Path
	if curved {
		pl, err := geom.NewPolyline(d.Waypoints)
		if err != nil {
			return fmt.Errorf("network: bad waypoints: %w", err)
		}
		if diff := pl.Length() - d.PathLength; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("network: path length %v does not match waypoints length %v", d.PathLength, pl.Length())
		}
		path = pl
	}
	var sinkPaths []geom.Path
	for k := range d.Sinks {
		sp := &d.Sinks[k]
		if sp.Speed < 0 {
			return fmt.Errorf("network: sink %d has negative speed %v", k, sp.Speed)
		}
		p, err := sp.Path(d.PathLength)
		if err != nil {
			return fmt.Errorf("network: sink %d: %w", k, err)
		}
		sinkPaths = append(sinkPaths, p)
	}
	for i, s := range d.Sensors {
		if s.ID != i {
			return fmt.Errorf("network: sensor %d has ID %d (IDs must be dense)", i, s.ID)
		}
		if s.Budget < 0 {
			return fmt.Errorf("network: sensor %d has negative budget", i)
		}
		if len(sinkPaths) > 0 {
			// Fleet deployments: every sensor must sit within MaxOffset of
			// at least one sink's tour (a sensor no sink can ever hear is a
			// deployment bug, not a solver input).
			if d.MaxOffset > 0 {
				near := false
				for _, p := range sinkPaths {
					if _, _, ok := p.CoverInterval(s.Pos, d.MaxOffset+1e-9); ok {
						near = true
						break
					}
				}
				if !near {
					return fmt.Errorf("network: sensor %d farther than %v m from every sink path", i, d.MaxOffset)
				}
			}
			continue
		}
		if curved {
			if d.MaxOffset > 0 {
				if _, _, ok := path.CoverInterval(s.Pos, d.MaxOffset+1e-9); !ok {
					return fmt.Errorf("network: sensor %d farther than %v m from the path", i, d.MaxOffset)
				}
			}
			continue
		}
		if s.Pos.X < 0 || s.Pos.X > d.PathLength {
			return fmt.Errorf("network: sensor %d x=%v outside [0, %v]", i, s.Pos.X, d.PathLength)
		}
		if d.MaxOffset > 0 && (s.Pos.Y < -d.MaxOffset || s.Pos.Y > d.MaxOffset) {
			return fmt.Errorf("network: sensor %d y=%v outside ±%v", i, s.Pos.Y, d.MaxOffset)
		}
	}
	return nil
}

// Path returns the deployment's tour path: the waypoint polyline when
// present, the canonical straight highway otherwise.
func (d *Deployment) Path() geom.Path {
	if len(d.Waypoints) >= 2 {
		pl, err := geom.NewPolyline(d.Waypoints)
		if err == nil {
			return pl
		}
	}
	return geom.HighwayLine(d.PathLength)
}

// GenerateAlong places n sensors uniformly along an arbitrary waypoint
// path: a uniform arc-length position plus a uniform perpendicular offset
// in [−maxOffset, +maxOffset] relative to the local road direction.
func GenerateAlong(waypoints []geom.Point, n int, maxOffset float64, seed int64) (*Deployment, error) {
	pl, err := geom.NewPolyline(waypoints)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if n <= 0 {
		return nil, fmt.Errorf("network: sensor count must be positive, got %d", n)
	}
	if maxOffset < 0 {
		return nil, fmt.Errorf("network: negative max offset %v", maxOffset)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Deployment{
		PathLength: pl.Length(),
		MaxOffset:  maxOffset,
		Waypoints:  append([]geom.Point(nil), waypoints...),
	}
	d.Sensors = make([]Sensor, n)
	for i := range d.Sensors {
		s := rng.Float64() * pl.Length()
		at := pl.At(s)
		// Local tangent by central difference; rotate 90° for the normal.
		const h = 0.5
		a, b := pl.At(s-h), pl.At(s+h)
		dir := b.Sub(a)
		norm := dir.Norm()
		off := (2*rng.Float64() - 1) * maxOffset
		pos := at
		if norm > 0 {
			normal := geom.Point{X: -dir.Y / norm, Y: dir.X / norm}
			pos = at.Add(normal.Scale(off))
		}
		// Corners can push the perpendicular offset beyond maxOffset as
		// measured to the nearest path point; clamp by resampling.
		if maxOffset > 0 {
			if _, _, ok := pl.CoverInterval(pos, maxOffset); !ok {
				pos = at
			}
		}
		d.Sensors[i] = Sensor{ID: i, Pos: pos}
	}
	return d, nil
}

// AssignSteadyStateBudgets sets every sensor's per-tour budget to the
// steady-state harvest of the given harvester over one tour: with tours
// running back to back and the battery (capacity ≫ per-tour spend) smoothing
// the diurnal cycle, a perpetually-operating sensor can spend on average
// exactly what it harvests — avgPower·tourDuration (paper §II.B's perpetual
// operation constraint). jitter ∈ [0, 1) adds per-sensor multiplicative
// heterogeneity (panel orientation, shading): budget scaled by a uniform
// factor in [1−jitter, 1].
func (d *Deployment) AssignSteadyStateBudgets(h energy.Harvester, tourDuration, jitter float64, rng *rand.Rand) error {
	if h == nil {
		return errors.New("network: nil harvester")
	}
	if tourDuration <= 0 {
		return fmt.Errorf("network: tour duration must be positive, got %v", tourDuration)
	}
	if jitter < 0 || jitter >= 1 {
		return fmt.Errorf("network: jitter must be in [0,1), got %v", jitter)
	}
	if jitter > 0 && rng == nil {
		return errors.New("network: jitter requires an RNG")
	}
	const horizon = 48 * 3600.0
	avgPower := h.EnergyBetween(0, horizon) / horizon
	base := avgPower * tourDuration
	for i := range d.Sensors {
		f := 1.0
		if jitter > 0 {
			f = 1 - jitter*rng.Float64()
		}
		d.Sensors[i].Budget = base * f
	}
	return nil
}

// SetUniformBudgets sets every sensor's budget to b Joules.
func (d *Deployment) SetUniformBudgets(b float64) error {
	if b < 0 {
		return fmt.Errorf("network: negative budget %v", b)
	}
	for i := range d.Sensors {
		d.Sensors[i].Budget = b
	}
	return nil
}

// MarshalJSON round-trips deployments for cmd/netgen.
func (d *Deployment) MarshalJSON() ([]byte, error) {
	type alias Deployment
	return json.Marshal((*alias)(d))
}

// UnmarshalJSON parses and validates a deployment.
func (d *Deployment) UnmarshalJSON(data []byte) error {
	type alias Deployment
	if err := json.Unmarshal(data, (*alias)(d)); err != nil {
		return err
	}
	return d.Validate()
}
