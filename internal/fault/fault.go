// Package fault is the deterministic fault-injection subsystem for the
// online protocol and its simulations. The paper's distributed framework
// (Algorithm 2) assumes a lossless control channel — every Probe reaches
// every in-range sensor, every Ack reaches the sink, every registered
// sensor survives the interval. Real energy-harvesting deployments violate
// all of those constantly, so this package models the violations:
//
//   - per-message Bernoulli drops for Probe/Ack/Schedule/Finish,
//   - sensor crash/recovery traces (outage slot windows),
//   - mid-tour energy-harvest shortfalls (the budget the sensor planned on
//     never materializes),
//   - per-interval compute-deadline stalls (the sink's scheduler misses
//     its broadcast deadline and must fall back to a cheap policy).
//
// Every decision is a pure function of (Plan.Seed, kind, coordinates) via
// a splitmix64 hash, so fault traces are fully reproducible from one seed
// and — crucially — independent of evaluation order: two subsystems may
// ask the same question (e.g. "is interval 3's Finish jammed?") and get
// the same answer without sharing an RNG stream.
package fault

import (
	"fmt"
	"math"
	"sort"
)

// Kind tags the protocol message or event a fault roll applies to.
type Kind uint8

// Fault-roll kinds. The values are part of the deterministic trace: two
// rolls differing only in Kind are independent.
const (
	KindProbe Kind = iota + 1
	KindAck
	KindSchedule
	KindFinish
	KindStall
	// KindDelay and KindReorder are consumed by network transports
	// (internal/wire's chaos proxy) to derive per-frame latency and
	// reordering decisions from the same seed as the drop rolls.
	KindDelay
	KindReorder
	// KindConnKill and KindPartition drive transport-level survivability
	// chaos: severed connections (the sensor must redial and resume its
	// session) and interval-scoped black-hole partitions. Like the other
	// kinds they are pure functions of the plan seed, so connection churn
	// is scriptable and reproducible.
	KindConnKill
	KindPartition
)

// Crash is one sensor outage: the sensor is dead (no Acks, no data
// transmissions) for every slot in the inclusive range [From, To].
type Crash struct {
	Sensor int `json:"sensor"`
	From   int `json:"from"`
	To     int `json:"to"`
}

// Shortfall is one energy-harvest deficit: at slot Slot the sensor
// discovers that Joules of its per-tour budget never accrued (clouds,
// shadowing, a mis-calibrated prediction) and writes the loss off.
type Shortfall struct {
	Sensor int     `json:"sensor"`
	Slot   int     `json:"slot"`
	Joules float64 `json:"joules"`
}

// ConnKill is one scripted connection severance: the transport carrying
// the sensor's session is torn down when the given interval's first
// Probe reaches it. The sensor must redial and resume its session.
type ConnKill struct {
	Sensor   int `json:"sensor"`
	Interval int `json:"interval"`
}

// Partition is one network partition window: for every interval in the
// inclusive range [From, To] the listed sensors are black-holed — their
// protocol traffic is silently discarded in both directions. An empty
// Sensors list partitions every sensor.
type Partition struct {
	From    int   `json:"from"`
	To      int   `json:"to"`
	Sensors []int `json:"sensors,omitempty"`
}

// Plan is a declarative fault scenario for one tour. The zero value
// injects nothing (and the online runner treats a zero plan exactly like
// no plan at all).
type Plan struct {
	// Seed drives every Bernoulli roll; runs are reproducible per seed.
	Seed int64 `json:"seed"`
	// DropProbe is the per-(interval, sensor, attempt) probability that
	// an in-range sensor fails to hear the sink's Probe broadcast.
	DropProbe float64 `json:"drop_probe"`
	// DropAck is the per-transmission probability that a sensor's Ack is
	// lost on an otherwise collision-free channel.
	DropAck float64 `json:"drop_ack"`
	// DropSchedule is the per-(interval, sensor) probability that a
	// registered sensor misses the Schedule broadcast and stays silent
	// through its assigned slots.
	DropSchedule float64 `json:"drop_schedule"`
	// DropFinish is the per-interval probability that the Finish
	// broadcast is jammed: no registered sensor commits its debit, so
	// their next registrations report stale budgets.
	DropFinish float64 `json:"drop_finish"`
	// MaxRetries bounds Probe/Ack retransmission rounds per interval
	// (0 = the paper's single exchange). Each extra round costs one
	// probe broadcast plus the pending sensors' Acks.
	MaxRetries int `json:"max_retries"`
	// Crashes lists sensor outage windows in slot units.
	Crashes []Crash `json:"crashes,omitempty"`
	// Shortfalls lists mid-tour energy-harvest deficits.
	Shortfalls []Shortfall `json:"shortfalls,omitempty"`
	// StallProb is the per-interval probability that the scheduler
	// exceeds its compute deadline and the sink degrades to the fallback
	// policy for that interval.
	StallProb float64 `json:"stall_prob"`
	// StallIntervals forces specific intervals into degraded mode
	// regardless of StallProb.
	StallIntervals []int `json:"stall_intervals,omitempty"`
	// ConnKillProb is the per-(interval, sensor) probability that the
	// sensor's transport connection is severed at that interval's first
	// Probe delivery.
	ConnKillProb float64 `json:"conn_kill_prob"`
	// ConnKills lists scripted connection severances.
	ConnKills []ConnKill `json:"conn_kills,omitempty"`
	// Partitions lists interval-windowed black-hole partitions.
	Partitions []Partition `json:"partitions,omitempty"`
}

// maxRetriesCap bounds retransmission rounds so a hostile plan cannot
// turn registration into an unbounded loop.
const maxRetriesCap = 8

// Zero reports whether the plan injects nothing: all probabilities zero,
// no crashes, shortfalls, or forced stalls. A zero plan run is
// semantically identical to a fault-free run.
func (p *Plan) Zero() bool {
	if p == nil {
		return true
	}
	return p.DropProbe == 0 && p.DropAck == 0 && p.DropSchedule == 0 &&
		p.DropFinish == 0 && p.StallProb == 0 && p.ConnKillProb == 0 &&
		len(p.Crashes) == 0 && len(p.Shortfalls) == 0 && len(p.StallIntervals) == 0 &&
		len(p.ConnKills) == 0 && len(p.Partitions) == 0
}

// Validate rejects malformed plans: probabilities outside [0,1] or NaN,
// negative retry counts, inverted crash windows, negative shortfalls.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"drop_probe", p.DropProbe}, {"drop_ack", p.DropAck},
		{"drop_schedule", p.DropSchedule}, {"drop_finish", p.DropFinish},
		{"stall_prob", p.StallProb}, {"conn_kill_prob", p.ConnKillProb},
	} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: max_retries = %d is negative", p.MaxRetries)
	}
	if p.MaxRetries > maxRetriesCap {
		return fmt.Errorf("fault: max_retries = %d exceeds cap %d", p.MaxRetries, maxRetriesCap)
	}
	for _, c := range p.Crashes {
		if c.Sensor < 0 {
			return fmt.Errorf("fault: crash with negative sensor %d", c.Sensor)
		}
		if c.To < c.From {
			return fmt.Errorf("fault: crash window [%d,%d] inverted", c.From, c.To)
		}
	}
	for _, s := range p.Shortfalls {
		if s.Sensor < 0 {
			return fmt.Errorf("fault: shortfall with negative sensor %d", s.Sensor)
		}
		if math.IsNaN(s.Joules) || s.Joules < 0 {
			return fmt.Errorf("fault: shortfall of %v J invalid", s.Joules)
		}
	}
	for _, k := range p.ConnKills {
		if k.Sensor < 0 {
			return fmt.Errorf("fault: conn kill with negative sensor %d", k.Sensor)
		}
		if k.Interval < 0 {
			return fmt.Errorf("fault: conn kill at negative interval %d", k.Interval)
		}
	}
	for _, w := range p.Partitions {
		if w.To < w.From {
			return fmt.Errorf("fault: partition window [%d,%d] inverted", w.From, w.To)
		}
		for _, s := range w.Sensors {
			if s < 0 {
				return fmt.Errorf("fault: partition names negative sensor %d", s)
			}
		}
	}
	return nil
}

// Stats tallies the faults injected and the recoveries performed over one
// tour. The online runner fills it; zero-valued fields mean the fault
// class never fired.
type Stats struct {
	// ProbesDropped counts (sensor, attempt) pairs that missed a Probe.
	ProbesDropped int
	// AcksLost counts Ack transmissions erased by the injected drop rate
	// (contention collisions are channel physics, tallied by the engine's
	// ack-lost counter instead).
	AcksLost int
	// SchedulesMissed counts registered sensors whose Confirm of a
	// Schedule that assigned them at least one slot never came: they
	// missed the broadcast, or are down at one of their slots.
	SchedulesMissed int
	// FinishesJammed counts intervals whose Finish broadcast was dropped.
	FinishesJammed int
	// ProbeRetransmissions counts extra registration rounds beyond the
	// paper's single exchange.
	ProbeRetransmissions int
	// CrashSilences counts the Probes that sensors heard while down and
	// left unanswered.
	CrashSilences int
	// RepairedSlots counts slots reassigned from a silent sensor to the
	// next-best registered one.
	RepairedSlots int
	// LostSlots counts slots that went idle: the sink's one-slot silence
	// detection, a repair unicast that was itself dropped, or no eligible
	// replacement existing.
	LostSlots int
	// DegradedIntervals counts intervals scheduled by the fallback policy
	// after a compute-deadline stall.
	DegradedIntervals int
	// BudgetClamps counts registrations whose stale reported budget was
	// clamped down to the sink-tracked residual (feasibility guard).
	BudgetClamps int
	// ShortfallJoules is the total harvest deficit the sensors wrote off
	// at the Probes they answered.
	ShortfallJoules float64
}

// Injector answers fault questions for one tour. All decision methods are
// pure — same arguments, same answer — so callers may consult them from
// multiple places without coordinating; tallies live in Stats and are the
// caller's responsibility.
type Injector struct {
	plan     Plan
	stalls   map[int]bool // forced intervals
	crashes  map[int][]Crash
	deficits map[int][]Shortfall // sorted by slot
	kills    map[int]map[int]bool
}

// NewInjector validates the plan and indexes its traces for a tour with
// numSensors sensors and T slots.
func NewInjector(p Plan, numSensors, T int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for _, c := range p.Crashes {
		if c.Sensor >= numSensors {
			return nil, fmt.Errorf("fault: crash names sensor %d of %d", c.Sensor, numSensors)
		}
	}
	for _, s := range p.Shortfalls {
		if s.Sensor >= numSensors {
			return nil, fmt.Errorf("fault: shortfall names sensor %d of %d", s.Sensor, numSensors)
		}
		if s.Slot < 0 || s.Slot >= T {
			return nil, fmt.Errorf("fault: shortfall at slot %d of %d", s.Slot, T)
		}
	}
	for _, k := range p.ConnKills {
		if k.Sensor >= numSensors {
			return nil, fmt.Errorf("fault: conn kill names sensor %d of %d", k.Sensor, numSensors)
		}
	}
	for _, w := range p.Partitions {
		for _, s := range w.Sensors {
			if s >= numSensors {
				return nil, fmt.Errorf("fault: partition names sensor %d of %d", s, numSensors)
			}
		}
	}
	in := &Injector{
		plan:     p,
		stalls:   make(map[int]bool, len(p.StallIntervals)),
		crashes:  make(map[int][]Crash),
		deficits: make(map[int][]Shortfall),
		kills:    make(map[int]map[int]bool, len(p.ConnKills)),
	}
	for _, k := range p.ConnKills {
		if in.kills[k.Interval] == nil {
			in.kills[k.Interval] = make(map[int]bool)
		}
		in.kills[k.Interval][k.Sensor] = true
	}
	for _, iv := range p.StallIntervals {
		in.stalls[iv] = true
	}
	for _, c := range p.Crashes {
		in.crashes[c.Sensor] = append(in.crashes[c.Sensor], c)
	}
	for _, s := range p.Shortfalls {
		in.deficits[s.Sensor] = append(in.deficits[s.Sensor], s)
	}
	for i := range in.deficits {
		d := in.deficits[i]
		sort.Slice(d, func(a, b int) bool { return d[a].Slot < d[b].Slot })
	}
	return in, nil
}

// Plan returns the validated plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// MaxRetries returns the plan's retransmission bound.
func (in *Injector) MaxRetries() int { return in.plan.MaxRetries }

// ProbeHeard reports whether the sensor hears the interval's Probe on the
// given retransmission attempt.
func (in *Injector) ProbeHeard(interval, sensor, attempt int) bool {
	return !in.roll(in.plan.DropProbe, KindProbe, interval, sensor, attempt)
}

// AckLost reports whether the sensor's Ack transmission (identified by a
// caller-chosen salt, e.g. retransmission round × contention attempt) is
// erased in flight.
func (in *Injector) AckLost(interval, sensor, salt int) bool {
	return in.roll(in.plan.DropAck, KindAck, interval, sensor, salt)
}

// ScheduleHeard reports whether the registered sensor hears the
// interval's Schedule broadcast.
func (in *Injector) ScheduleHeard(interval, sensor int) bool {
	return !in.roll(in.plan.DropSchedule, KindSchedule, interval, sensor, 0)
}

// RepairLost reports whether the unicast schedule-repair message
// reassigning the slot to the sensor is dropped. Repairs ride the same
// channel as the Schedule broadcast (same drop rate); the slot-based salt
// (≥ 1) keeps the rolls independent of the broadcast's.
func (in *Injector) RepairLost(interval, sensor, slot int) bool {
	return in.roll(in.plan.DropSchedule, KindSchedule, interval, sensor, slot+1)
}

// FinishJammed reports whether the interval's Finish broadcast is
// dropped. The in-process transport (which then neither counts the
// Finish nor hands it to the sensors' endpoints) and the chaos proxy
// (which drops the frame) both consult this; purity keeps them agreeing.
func (in *Injector) FinishJammed(interval int) bool {
	return in.roll(in.plan.DropFinish, KindFinish, interval, 0, 0)
}

// Stalled reports whether the interval's scheduler blows its compute
// deadline (forced via StallIntervals or rolled via StallProb).
func (in *Injector) Stalled(interval int) bool {
	if in.stalls[interval] {
		return true
	}
	return in.roll(in.plan.StallProb, KindStall, interval, 0, 0)
}

// Alive reports whether the sensor is up at the slot (outside every crash
// window).
func (in *Injector) Alive(sensor, slot int) bool {
	for _, c := range in.crashes[sensor] {
		if slot >= c.From && slot <= c.To {
			return false
		}
	}
	return true
}

// Deficit returns the cumulative harvest shortfall the sensor has
// discovered by the start of the given slot (inclusive), in Joules.
func (in *Injector) Deficit(sensor, uptoSlot int) float64 {
	total := 0.0
	for _, s := range in.deficits[sensor] {
		if s.Slot > uptoSlot {
			break
		}
		total += s.Joules
	}
	return total
}

// ConnKilled reports whether the sensor's transport connection is
// severed at the given interval's first Probe delivery — scripted via
// ConnKills or rolled via ConnKillProb. Each (interval, sensor) pair
// fires at most once per connection: transports consult it only on
// attempt-0 probes, so a resumed session is not re-killed by the same
// interval's retransmissions.
func (in *Injector) ConnKilled(interval, sensor int) bool {
	if in.kills[interval][sensor] {
		return true
	}
	return in.roll(in.plan.ConnKillProb, KindConnKill, interval, sensor, 0)
}

// Partitioned reports whether the sensor's protocol traffic is
// black-holed during the interval (inside any partition window naming
// it, or any window with an empty sensor list).
func (in *Injector) Partitioned(interval, sensor int) bool {
	for _, w := range in.plan.Partitions {
		if interval < w.From || interval > w.To {
			continue
		}
		if len(w.Sensors) == 0 {
			return true
		}
		for _, s := range w.Sensors {
			if s == sensor {
				return true
			}
		}
	}
	return false
}

// Unit exposes the injector's deterministic hash stream: a value in
// [0, 1) that is a pure function of (seed, kind, a, b, c). Network
// transports use it for decisions with no Bernoulli shape — e.g. the
// chaos proxy scales Unit(KindDelay, ...) into a per-frame latency —
// so every layer of a chaotic run reproduces from the one plan seed.
func (in *Injector) Unit(kind Kind, a, b, c int) float64 {
	return unit(in.plan.Seed, kind, a, b, c)
}

// roll is one Bernoulli trial: true with probability prob, deterministic
// in (seed, kind, a, b, c).
func (in *Injector) roll(prob float64, kind Kind, a, b, c int) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return unit(in.plan.Seed, kind, a, b, c) < prob
}

// unit hashes the roll coordinates into [0, 1).
func unit(seed int64, kind Kind, a, b, c int) float64 {
	x := splitmix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	x = splitmix(x ^ uint64(kind))
	x = splitmix(x ^ uint64(uint(a)))
	x = splitmix(x ^ uint64(uint(b)))
	x = splitmix(x ^ uint64(uint(c)))
	return float64(x>>11) / (1 << 53)
}

// splitmix is the splitmix64 finalizer (Steele et al.), a cheap
// high-quality bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
