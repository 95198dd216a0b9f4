package online

import (
	"slices"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/geom"
	"mobisink/internal/radio"
)

// Answer is a sensor endpoint's reply to a Probe.
type Answer uint8

// Probe answers.
const (
	AnswerSilent   Answer = iota // nothing: the sensor is down
	AnswerDecline                // the sensor is out of the sink's reach
	AnswerRegister               // the sensor's claim
)

// Endpoint is one sensor's side of Algorithm 2, the only place a sensor
// decides anything, whichever transport carries its frames: the
// in-process one calls it, and wire.SensorClient wraps one around its
// socket. It knows only its own profile and state, and holds no lock:
// its transport calls it from one goroutine, or under its own lock.
type Endpoint struct {
	s            *core.SensorSlots
	tau, reach   float64         // slot length, s; radio range, m
	faults       *fault.Injector // when the sensor is down and what it fails to harvest; nil: neither
	energy, data float64         // residual budgets, J and bits
	iv           int             // the interval of slots
	slots        []int           // own slots, ascending
	finished     int             // the committed watermark, -1 for none
	shortfall    float64         // the harvest shortfall written off, J
}

// NewEndpoint builds sensor s's endpoint, with its full budget and a
// data queue of dataCap bits (+Inf: unbounded), for a tour of slot
// length tau and radio range reach.
func NewEndpoint(s *core.SensorSlots, tau, reach, dataCap float64, faults *fault.Injector) *Endpoint {
	return &Endpoint{s: s, tau: tau, reach: reach, faults: faults, energy: s.Budget, data: dataCap, iv: -1, finished: -1}
}

// Probe answers interval iv's Probe from a sink at pos. A sensor down at
// the interval's first slot stays silent, and one out of reach, by
// InRange's test, declines. Any other sensor first writes off the
// harvest shortfall its harvester reports by then, and then claims its
// own residual budgets and its window clipped to the interval.
func (e *Endpoint) Probe(iv Interval, pos geom.Point) (Answer, Registration) {
	if e.faults != nil && !e.faults.Alive(e.s.ID, iv.Start) {
		return AnswerSilent, Registration{}
	}
	if !reaches(e.s, pos, e.reach) {
		return AnswerDecline, Registration{}
	}
	if e.faults != nil {
		if d := e.faults.Deficit(e.s.ID, iv.Start); d > e.shortfall {
			e.energy = max(0, e.energy-(d-e.shortfall))
			e.shortfall = d
		}
	}
	return AnswerRegister, Registration{
		Sensor: e.s.ID, Budget: e.energy, DataLeft: e.data,
		ClipStart: max(e.s.Start, iv.Start), ClipEnd: min(e.s.End, iv.End),
	}
}

// Schedule takes the endpoint's own slots of interval j's Schedule, or
// of a repair, and reports whether it confirms them. A Schedule replaces
// the slots the endpoint holds, and is confirmed when it holds at least
// one and is up at every one: a sensor down at any forgets them all and
// stays silent, so the sink detects it and repairs its slots. A repair
// adds the slots it is up at to those of its interval, unconfirmed.
func (e *Endpoint) Schedule(j int, pairs []Pair, repair bool) bool {
	if !repair || e.iv != j {
		e.iv, e.slots = j, e.slots[:0]
	}
	ascending := true
	for _, p := range pairs {
		switch {
		case p.Sensor != e.s.ID:
		case e.faults != nil && !e.faults.Alive(e.s.ID, p.Slot):
			if !repair {
				e.slots = e.slots[:0]
				return false
			}
		case cap(e.slots) == 0:
			e.slots = append(make([]int, 0, 16), p.Slot) // room for most intervals' slots
		default:
			ascending = ascending && (len(e.slots) == 0 || e.slots[len(e.slots)-1] < p.Slot)
			e.slots = append(e.slots, p.Slot)
		}
	}
	if !ascending {
		slices.Sort(e.slots)
		e.slots = slices.Compact(e.slots)
	}
	return !repair && len(e.slots) > 0
}

// Finish applies interval j's Finish. The endpoint debits the slots it
// holds for j, their energy and data summed in ascending slot order,
// with one clamped subtraction per budget: Result.Debit's arithmetic, so
// the sensor and the sink's books agree bit for bit. j becomes its
// committed watermark. The slots ascend, so one cursor walks the primary
// window's link runs.
func (e *Endpoint) Finish(j int) {
	if e.iv == j {
		var spend, drain float64
		runs, r := e.s.Runs, 0
		for _, slot := range e.slots {
			var l radio.Link
			if slot >= e.s.Start && slot <= e.s.End {
				for runs[r].End < slot {
					r++
				}
				l = runs[r].Link
			} else {
				l = e.s.LinkAt(slot) // outside the primary window
			}
			spend += l.Power * e.tau
			drain += l.Rate * e.tau
		}
		debit(&e.energy, &e.data, spend, drain)
		e.slots = e.slots[:0]
	}
	e.finished = max(e.finished, j)
}

// Sync adopts a sink's session state on a fresh connection: the lower of
// each residual budget, so a sensor never talks itself into budget it no
// longer has, and the later committed watermark. The endpoint forgets
// the slots it holds; their interval is the sink's to settle.
func (e *Endpoint) Sync(committed int, energy, data float64) {
	e.energy, e.data = min(e.energy, energy), min(e.data, data)
	e.finished = max(e.finished, committed)
	e.slots = e.slots[:0]
}

// Residual returns the endpoint's residual energy (J) and data (bits).
func (e *Endpoint) Residual() (energy, data float64) { return e.energy, e.data }

// Finished returns the endpoint's committed watermark: the last
// interval whose Finish it applied or a Sync reported, -1 for none.
func (e *Endpoint) Finished() int { return e.finished }

// Shortfall returns the harvest shortfall written off so far, J.
func (e *Endpoint) Shortfall() float64 { return e.shortfall }
