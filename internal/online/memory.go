package online

import (
	"context"
	"math/rand"
	"slices"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/mac"
)

// memory is the in-process Transport: a frame is a call to the sensors'
// Endpoints, which make every sensor decision; memory keeps only the
// channel, whose losses the fault plan's keyed rolls decide (a tour
// without a plan runs over a zero plan, which loses nothing). On a
// recovering tour it is also the commit's Loss (DESIGN §3d).
type memory struct {
	inst *core.Instance
	res  *Result
	inj  *fault.Injector
	// st receives the fault tallies; it is Result.Fault on a recovering
	// run and a discarded scratch otherwise.
	st *fault.Stats
	// contention draws the CSMA Ack backoffs over window slots; nil is
	// the paper's collision-free registration.
	contention *rand.Rand
	window     int
	// eps holds sensor i's endpoint at i, built when the tour first
	// addresses the sensor (endpoint); faults is the endpoints' injector,
	// nil on a zero plan, which takes no sensor down.
	eps    []Endpoint
	faults *fault.Injector
	// slots is the tour's one array of assignees' slots: each Schedule
	// cuts every assignee's buffer from its free part, from used on. A
	// tour hands each slot in one Schedule, so it runs out only when an
	// interval runs again after a cancel; an assignee then grows its own.
	slots []int
	used  int
	// handed and deaf mark interval iv's assignees: handed their pairs,
	// and without a Confirm.
	handed, deaf []bool
	iv           int
	sent         []Registration
}

func newMemory(inst *core.Instance, res *Result, inj *fault.Injector, opts Options) *memory {
	m := &memory{
		inst: inst, res: res, inj: inj, st: res.Fault,
		eps:    make([]Endpoint, len(inst.Sensors)),
		handed: make([]bool, len(inst.Sensors)),
		deaf:   make([]bool, len(inst.Sensors)),
	}
	if m.st == nil {
		m.st = &fault.Stats{}
	}
	if opts.AckWindow > 0 {
		m.contention, m.window = rand.New(rand.NewSource(opts.Seed)), opts.AckWindow
	}
	if !opts.Faults.Zero() {
		m.faults = inj
	}
	return m
}

// endpoint returns sensor i's endpoint, and builds it when the tour
// first addresses the sensor: with a Probe, a Schedule or a repair.
func (m *memory) endpoint(i int) *Endpoint {
	e := &m.eps[i]
	if e.s == nil {
		*e = *NewEndpoint(&m.inst.Sensors[i], m.inst.Tau, m.inst.Range, m.inst.DataCapOf(i), m.faults)
	}
	return e
}

// Reach keeps every silent sensor: a Probe reaches whoever the driver
// found in range, and a sensor that is down answers with silence.
func (m *memory) Reach(_ Interval, _ int, silent []int) []int { return silent }

// Probe delivers the round's Probe to the pending sensors that hear it,
// and each endpoint answers; the sink hears the claims that neither
// collide under contention nor are erased. Stats.AcksLost counts the
// erasures only: collisions are channel physics.
func (m *memory) Probe(_ context.Context, iv Interval, attempt int, pending []int) ([]Registration, error) {
	pos := m.inst.Traj.PosAtSlotStart(iv.Start)
	m.sent = m.sent[:0]
	for _, i := range pending {
		if !m.inj.ProbeHeard(iv.Index, i, attempt) {
			m.st.ProbesDropped++
			continue
		}
		ep := m.endpoint(i)
		short := ep.Shortfall()
		ans, r := ep.Probe(iv, pos)
		m.st.ShortfallJoules += ep.Shortfall() - short
		switch ans {
		case AnswerSilent:
			m.st.CrashSilences++
		case AnswerRegister:
			m.sent = append(m.sent, r)
		}
	}
	m.res.Messages.Acks += len(m.sent)
	lost := func(k, try int) bool {
		if m.inj.AckLost(iv.Index, m.sent[k].Sensor, attempt<<20|try) {
			m.st.AcksLost++
			return true
		}
		return false
	}
	heard := func(k int) bool { return !lost(k, 0) }
	if m.contention != nil {
		csma, err := mac.CSMAWindowLossy(len(m.sent), m.window, m.contention, lost)
		if err != nil {
			return nil, err
		}
		heard = func(k int) bool { return csma[k] }
	}
	claims := m.sent[:0] // filtered in place: the write never passes k
	for k, r := range m.sent {
		if heard(k) {
			claims = append(claims, r)
		}
	}
	return claims, nil
}

// Schedule hands the pairs, once, to each sensor they name that hears
// them; a claimant they do not name takes nothing from them. A run
// without a plan commits losslessly; a recovering one learns which
// assignees' endpoints did not confirm.
func (m *memory) Schedule(_ context.Context, iv Interval, _ []Registration, pairs []Pair) (Loss, error) {
	clear(m.handed)
	if m.slots == nil {
		m.slots = make([]int, m.inst.T)
	}
	for _, p := range pairs {
		if s := p.Sensor; !m.handed[s] {
			m.handed[s] = true
			if m.deaf[s] = !m.inj.ScheduleHeard(iv.Index, s); m.deaf[s] {
				continue
			}
			// The assignee takes its slots into the array's free part
			// and keeps the part it filled, so a later append of its own
			// grows a copy rather than another assignee's slots.
			ep := m.endpoint(s)
			ep.slots = m.slots[m.used:m.used]
			m.deaf[s] = !ep.Schedule(iv.Index, pairs, false)
			ep.slots = slices.Clip(ep.slots)
			m.used = min(m.used+len(ep.slots), len(m.slots))
		}
	}
	if m.res.Fault == nil {
		return nil, nil
	}
	m.iv = iv.Index
	return m, nil
}

// Finish broadcasts the Finish unless the plan jams it. The claimants
// that hear it debit their slots; the rest stay stale for the admission
// clamp to catch.
func (m *memory) Finish(_ context.Context, iv Interval, regs []Registration) error {
	if len(regs) == 0 {
		return nil
	}
	if m.inj.FinishJammed(iv.Index) {
		m.st.FinishesJammed++
		return nil
	}
	m.res.Messages.Finishes++
	for _, r := range regs {
		m.endpoint(r.Sensor).Finish(iv.Index)
	}
	return nil
}

// Deaf, Alive and Repair answer a recovering commit's questions about
// the interval Schedule delivered: from the missing Confirms, the crash
// trace and the plan's repair rolls.
func (m *memory) Deaf(sensor int) bool        { return m.handed[sensor] && m.deaf[sensor] }
func (m *memory) Alive(sensor, slot int) bool { return m.inj.Alive(sensor, slot) }

// Repair rides the Schedule channel, so it is subject to the same drop
// rate; the unicast is sent whether or not it lands.
func (m *memory) Repair(slot, sensor int) bool {
	m.res.Messages.RepairUnicasts++
	if m.inj.RepairLost(m.iv, sensor, slot) {
		return false
	}
	m.endpoint(sensor).Schedule(m.iv, []Pair{{Slot: slot, Sensor: sensor}}, true)
	return true
}
