// Package core implements the paper's data collection maximization problem:
// given one tour of a path-constrained mobile sink over T time slots,
// allocate slots to sensors — at most one sensor per slot, each sensor
// within its per-tour energy budget — to maximize the data collected under
// distance-dependent multi-rate transmission (paper §II.D).
//
// The package defines the problem Instance, feasibility validation, and the
// offline algorithms: OfflineAppro (the local-ratio GAP approximation,
// paper §IV) and OfflineMaxMatch (the exact matching-based solution of the
// fixed-transmission-power special case, paper §VI), plus upper bounds for
// fraction-of-optimum reporting.
package core

import (
	"errors"
	"fmt"
	"slices"

	"mobisink/internal/geom"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// LinkRun is a run of consecutive window slots that share one link:
// global slots Start through End, each with the rate r_{i,j} (bit/s) and
// power P_{i,j} (W) of Link. A dead slot, whose midpoint lies beyond the
// radio's range, has the zero Link.
type LinkRun struct {
	Start, End int
	radio.Link
}

// AppendLink appends a window's next slot, global slot j with link l, to
// the window's runs so far: the slot extends the last run when that run
// has link l, and starts a run otherwise. A window's slots are appended
// in ascending order with no gap, a dead slot with the zero Link. On the
// paper's tier table a straight pass past a sensor changes link at most
// 2·tiers − 2 times, so a window is a handful of runs, not a slot each.
func AppendLink(runs []LinkRun, j int, l radio.Link) []LinkRun {
	if n := len(runs) - 1; n >= 0 && runs[n].Link == l {
		runs[n].End = j
		return runs
	}
	return append(runs, LinkRun{Start: j, End: j, Link: l})
}

// linkOf returns the link of global slot j, which must lie in the window
// that runs tile.
func linkOf(runs []LinkRun, j int) radio.Link {
	lo, hi := 0, len(runs)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if runs[m].End < j {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return runs[lo].Link
}

// Window is one contiguous visibility window of a sensor against one sink
// of a fleet, in the instance's joint (sink-major) slot space.
type Window struct {
	Sink       int // fleet index of the sink this window listens to
	Start, End int // inclusive global slot range
	// Runs tile [Start, End] in ascending order, one run per link
	// (AppendLink): global slot j has the link of the run holding it.
	Runs []LinkRun
}

// SensorSlots is a sensor together with its visibility window A(v) and
// per-slot link parameters for the current tour. Fleet instances (K > 1)
// may give a sensor one window per sink it can hear: the first (lowest
// sink index) is the primary window below, the rest live in More.
type SensorSlots struct {
	ID     int // dense sensor index
	Pos    geom.Point
	Budget float64 // P(v), Joules available this tour
	// Start and End delimit the primary window as an inclusive 0-based
	// global slot range; Start == -1 means the sensor never hears any sink.
	Start, End int
	// Runs are the primary window's links, as Window.Runs; nil when
	// Start == -1.
	Runs []LinkRun
	// Sink is the fleet index of the primary window's sink (0 for
	// single-sink instances).
	Sink int
	// More holds the windows against further sinks, ascending by sink
	// index; always empty when K = 1.
	More []Window
}

// WindowSize returns the primary window's size |A(v)|.
func (s *SensorSlots) WindowSize() int {
	if s.Start < 0 {
		return 0
	}
	return s.End - s.Start + 1
}

// TotalWindowSize returns the slot count across every window of the
// sensor (primary plus More); equal to WindowSize for K = 1.
func (s *SensorSlots) TotalWindowSize() int {
	n := s.WindowSize()
	for i := range s.More {
		w := &s.More[i]
		n += w.End - w.Start + 1
	}
	return n
}

// LinkAt returns the link of global slot j, r_{i,j} and P_{i,j} in one
// search of the runs, or the zero Link if j is in no window.
func (s *SensorSlots) LinkAt(j int) radio.Link {
	if s.Start >= 0 && j >= s.Start && j <= s.End {
		return linkOf(s.Runs, j)
	}
	for i := range s.More {
		if w := &s.More[i]; j >= w.Start && j <= w.End {
			return linkOf(w.Runs, j)
		}
	}
	return radio.Link{}
}

// RateAt returns r_{i,j} for global slot j, or 0 if j is in no window.
func (s *SensorSlots) RateAt(j int) float64 { return s.LinkAt(j).Rate }

// PowerAt returns P_{i,j} for global slot j, or 0 if j is in no window.
func (s *SensorSlots) PowerAt(j int) float64 { return s.LinkAt(j).Power }

// Contains reports whether global slot j lies inside any of the sensor's
// windows (independently of the slot's rate being usable).
func (s *SensorSlots) Contains(j int) bool {
	if s.Start >= 0 && j >= s.Start && j <= s.End {
		return true
	}
	for i := range s.More {
		if w := &s.More[i]; j >= w.Start && j <= w.End {
			return true
		}
	}
	return false
}

// SinkInfo is one mobile sink's segment of the joint slot space: its tour
// occupies the global slots [Offset, Offset+T); global slot Offset+a runs
// during absolute time slot a, concurrently with every other sink's slot
// of the same absolute index (the fleet tours in lock-step, sharing τ).
type SinkInfo struct {
	Offset int // first global slot of this sink's segment
	T      int // slots in this sink's tour
	Traj   *geom.Trajectory
}

// Instance is one tour's slot-allocation problem. Fleet instances (K > 1
// sinks) use a sink-major joint slot space: T sums the per-sink tour
// lengths, Sinks records each sink's segment, and the cross-sink
// constraint — a sensor transmits to at most one sink per absolute time
// slot — joins constraints (1)-(4).
type Instance struct {
	T       int     // slots per tour (sum over the fleet)
	Tau     float64 // τ, seconds per slot
	Gamma   int     // Γ = ⌊R/(r_s·τ)⌋, slots per online interval
	Range   float64 // R, maximum transmission range
	Sensors []SensorSlots
	Traj    *geom.Trajectory
	// Sinks describes the fleet's segments of the joint slot space; nil
	// means the legacy single sink owning all of [0, T).
	Sinks []SinkInfo
	// DataCaps, when non-nil, bounds each sensor's total upload in bits
	// (finite data queues); nil means the paper's unbounded-data model.
	// Set via SetDataCaps.
	DataCaps []float64

	quanta oracleQuanta   // knapsack-oracle quanta, derived on first use
	groups slotGroupsOnce // fleet conflict groups, derived on first use
}

// NumSinks returns the fleet size (1 for legacy instances).
func (inst *Instance) NumSinks() int {
	if len(inst.Sinks) == 0 {
		return 1
	}
	return len(inst.Sinks)
}

// SinkOfSlot returns the fleet index of the sink owning global slot j.
func (inst *Instance) SinkOfSlot(j int) int {
	for k := len(inst.Sinks) - 1; k >= 0; k-- {
		if j >= inst.Sinks[k].Offset {
			return k
		}
	}
	return 0
}

// AbsSlot returns the absolute time slot during which global slot j runs:
// j minus its sink's segment offset. Two global slots conflict for a
// sensor exactly when their absolute slots coincide.
func (inst *Instance) AbsSlot(j int) int {
	if len(inst.Sinks) == 0 {
		return j
	}
	return j - inst.Sinks[inst.SinkOfSlot(j)].Offset
}

// BuildInstance derives the slot-allocation problem for one tour of the
// deployment with the given radio model and sink kinematics.
func BuildInstance(dep *network.Deployment, model radio.Model, sinkSpeed, slotLen float64) (*Instance, error) {
	if dep == nil {
		return nil, errors.New("core: nil deployment")
	}
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, errors.New("core: nil radio model")
	}
	tr, err := geom.NewTrajectory(dep.Path(), sinkSpeed, slotLen)
	if err != nil {
		return nil, err
	}
	r := model.Range()
	inst := &Instance{
		T:     tr.SlotCount,
		Tau:   slotLen,
		Gamma: tr.Gamma(r),
		Range: r,
		Traj:  tr,
	}
	inst.Sensors = sensorSlots(dep, model, []SinkInfo{{T: tr.SlotCount, Traj: tr}})
	return inst, nil
}

// sensorSlots derives every sensor's windows against the sinks, whose
// segments of the joint slot space sinks lays out: one Window per sink
// whose trajectory passes within the model's range, the lowest sink's the
// primary. It evaluates the link at each slot's midpoint and folds the
// slots into runs with AppendLink; each window keeps its runs in an array
// of their own size.
func sensorSlots(dep *network.Deployment, model radio.Model, sinks []SinkInfo) []SensorSlots {
	r := model.Range()
	out := make([]SensorSlots, len(dep.Sensors))
	var runs []LinkRun // one buffer, reused window after window
	for i, s := range dep.Sensors {
		ss := SensorSlots{ID: i, Pos: s.Pos, Budget: s.Budget, Start: -1, End: -1}
		for k, sk := range sinks {
			j0, j1, ok := sk.Traj.SlotWindow(s.Pos, r)
			if !ok {
				continue
			}
			runs = runs[:0]
			for j := j0; j <= j1; j++ {
				l, ok := model.LinkAt(sk.Traj.PosAtSlotMid(j).Dist(s.Pos))
				if !ok {
					// Midpoint drifted out of range despite the window —
					// treat as a dead slot.
					l = radio.Link{}
				}
				runs = AppendLink(runs, sk.Offset+j, l)
			}
			w := Window{Sink: k, Start: sk.Offset + j0, End: sk.Offset + j1, Runs: slices.Clone(runs)}
			if ss.Start < 0 {
				ss.Sink, ss.Start, ss.End, ss.Runs = w.Sink, w.Start, w.End, w.Runs
			} else {
				ss.More = append(ss.More, w)
			}
		}
		out[i] = ss
	}
	return out
}

// Allocation assigns each slot to at most one sensor.
type Allocation struct {
	// SlotOwner[j] is the sensor index transmitting in slot j, or -1.
	SlotOwner []int
	// Data is the total collected volume in bits.
	Data float64
}

// NewAllocation returns an empty allocation for the instance.
func (inst *Instance) NewAllocation() *Allocation {
	so := make([]int, inst.T)
	for j := range so {
		so[j] = -1
	}
	return &Allocation{SlotOwner: so}
}

// Validate checks constraints (1)-(4) of the problem definition and that
// Data matches the assignment; it returns the recomputed data volume.
func (inst *Instance) Validate(a *Allocation) (float64, error) {
	if a == nil {
		return 0, errors.New("core: nil allocation")
	}
	if len(a.SlotOwner) != inst.T {
		return 0, fmt.Errorf("core: allocation covers %d slots, instance has %d", len(a.SlotOwner), inst.T)
	}
	energyUsed := make([]float64, len(inst.Sensors))
	data := 0.0
	for j, i := range a.SlotOwner {
		if i == -1 {
			continue
		}
		if i < 0 || i >= len(inst.Sensors) {
			return 0, fmt.Errorf("core: slot %d assigned to invalid sensor %d", j, i)
		}
		s := &inst.Sensors[i]
		if !s.Contains(j) {
			return 0, fmt.Errorf("core: slot %d outside every window of sensor %d", j, i)
		}
		l := s.LinkAt(j)
		if l.Rate <= 0 {
			return 0, fmt.Errorf("core: slot %d allocated to sensor %d with zero rate", j, i)
		}
		if prev := inst.heldBefore(a.SlotOwner, i, j); prev >= 0 {
			return 0, fmt.Errorf("core: sensor %d transmits to two sinks in absolute slot %d (global slots %d and %d)", i, inst.AbsSlot(j), prev, j)
		}
		energyUsed[i] += l.Power * inst.Tau
		data += l.Rate * inst.Tau
	}
	for i, e := range energyUsed {
		if !knapsack.Fits(e, inst.Sensors[i].Budget) {
			return 0, fmt.Errorf("core: sensor %d spends %v J > budget %v J", i, e, inst.Sensors[i].Budget)
		}
	}
	if err := inst.validateDataCaps(a); err != nil {
		return 0, err
	}
	return data, nil
}

// heldBefore enforces the cross-sink constraint (≤ 1 sink per absolute
// slot per sensor) on an allocation's slot → sensor array: it returns
// the lowest global slot before j in which sensor i holds j's absolute
// slot, or -1. Only a lower sink's segment holds such a slot, at the
// same offset into the segment, so owner is itself the dense stamp of
// who holds each (sink, absolute slot) and nothing else is kept.
func (inst *Instance) heldBefore(owner []int, i, j int) int {
	a := inst.AbsSlot(j)
	for _, sk := range inst.Sinks {
		g := sk.Offset + a
		if g >= j {
			break
		}
		if a < sk.T && owner[g] == i {
			return g
		}
	}
	return -1
}

// EnergyUsed returns the per-sensor energy consumption of an allocation in
// Joules (no feasibility checking).
func (inst *Instance) EnergyUsed(a *Allocation) []float64 {
	used := make([]float64, len(inst.Sensors))
	for j, i := range a.SlotOwner {
		if i >= 0 && i < len(inst.Sensors) {
			used[i] += inst.Sensors[i].PowerAt(j) * inst.Tau
		}
	}
	return used
}

// RecomputeData refreshes a.Data from the slot assignment.
func (inst *Instance) RecomputeData(a *Allocation) {
	data := 0.0
	for j, i := range a.SlotOwner {
		if i >= 0 {
			data += inst.Sensors[i].RateAt(j) * inst.Tau
		}
	}
	a.Data = data
}

// ThroughputMb converts bits to megabits, the figures' unit.
func ThroughputMb(bits float64) float64 { return bits / 1e6 }
