package online

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/mac"
)

// memory is the in-process Transport: a frame is a function call, and
// what the channel loses is decided by the fault plan's keyed rolls. A
// tour without a plan runs the same code over a zero plan, which loses
// nothing. Recovery mechanisms, in protocol order:
//
//  1. bounded Probe/Ack retransmission — the driver re-probes sensors
//     that missed the Probe or whose Ack was lost, up to Plan.MaxRetries
//     extra rounds (each costs one Probe broadcast plus the stragglers'
//     Acks);
//  2. budget feasibility guard — a sensor that missed a Finish broadcast
//     claims a stale (undebited) budget, which Ledger.Admit clamps;
//  3. degraded mode — a stalled interval is planned by Ledger.Plan's
//     fallback scheduler;
//  4. schedule repair — Ledger.Commit detects a silent assignee and
//     repairs its slots, asking faultLoss what the Schedule lost.
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
	// reported[i] is sensor i's own budget bookkeeping: it debits on
	// Finish receipt (paper protocol), so a jammed Finish leaves it stale
	// above the physical residual until the next delivered Finish.
	reported []float64
	// short lists the sensors with a harvest shortfall, ascending, and
	// written[i] the shortfall already written off sensor i's budgets.
	short   []int
	written []float64

	pending, hearers []int
	claims           []Registration
}

func newMemory(inst *core.Instance, res *Result, inj *fault.Injector, opts Options) *memory {
	m := &memory{
		inst: inst, res: res, inj: inj, st: res.Fault,
		reported: slices.Clone(res.Residual),
		written:  make([]float64, len(inst.Sensors)),
	}
	if m.st == nil {
		m.st = &fault.Stats{}
	}
	if opts.AckWindow > 0 {
		m.contention, m.window = rand.New(rand.NewSource(opts.Seed)), opts.AckWindow
	}
	for _, s := range inj.Plan().Shortfalls {
		m.short = append(m.short, s.Sensor)
	}
	slices.Sort(m.short)
	m.short = slices.Compact(m.short)
	return m
}

// Reach keeps the silent sensors that are up at the interval's first
// slot. Attempt 0 first writes off the harvest shortfalls discovered by
// then, from both the physical residual and the sensor's own bookkeeping
// (the sensor meters its own harvester; mid-interval shortfalls are
// quantized to the next interval boundary).
func (m *memory) Reach(iv Interval, attempt int, silent []int) []int {
	if attempt == 0 {
		for _, i := range m.short {
			d := m.inj.Deficit(i, iv.Start) - m.written[i]
			if d <= 0 {
				continue
			}
			m.written[i] += d
			m.res.Residual[i] = math.Max(0, m.res.Residual[i]-d)
			m.reported[i] = math.Max(0, m.reported[i]-d)
			m.st.ShortfallJoules += d
		}
	}
	m.pending = m.pending[:0]
	for _, i := range silent {
		if m.inj.Alive(i, iv.Start) {
			m.pending = append(m.pending, i)
		} else if attempt == 0 {
			m.st.CrashSilences++
		}
	}
	return m.pending
}

// Probe delivers the round's Probe to the pending sensors that hear it,
// and each of them transmits an Ack; the sink hears the Acks that
// neither collide under contention nor are erased. Stats.AcksLost counts
// the erasures only: collisions are channel physics.
func (m *memory) Probe(_ context.Context, iv Interval, attempt int, pending []int) ([]Registration, error) {
	m.hearers = m.hearers[:0]
	for _, i := range pending {
		if m.inj.ProbeHeard(iv.Index, i, attempt) {
			m.hearers = append(m.hearers, i)
		} else {
			m.st.ProbesDropped++
		}
	}
	m.res.Messages.Acks += len(m.hearers)
	lost := func(k, try int) bool {
		if m.inj.AckLost(iv.Index, m.hearers[k], attempt<<20|try) {
			m.st.AcksLost++
			return true
		}
		return false
	}
	var heard []bool
	if m.contention != nil {
		var err error
		if heard, err = mac.CSMAWindowLossy(len(m.hearers), m.window, m.contention, lost); err != nil {
			return nil, err
		}
	} else {
		heard = make([]bool, len(m.hearers))
		for k := range heard {
			heard[k] = !lost(k, 0)
		}
	}
	// Each sensor claims its own bookkeeping's budget, which a jammed
	// Finish left stale; the ledger clamps it.
	m.claims = m.claims[:0]
	for k, i := range m.hearers {
		if heard[k] {
			s := &m.inst.Sensors[i]
			m.claims = append(m.claims, Registration{
				Sensor: i, Budget: m.reported[i], DataLeft: m.res.ResidualData[i],
				ClipStart: max(s.Start, iv.Start), ClipEnd: min(s.End, iv.End),
			})
		}
	}
	return m.claims, nil
}

// Schedule loses what the fault plan says; a run without a plan commits
// losslessly.
func (m *memory) Schedule(_ context.Context, iv Interval, _ []Registration, _ map[int]int) (Loss, error) {
	if m.res.Fault == nil {
		return nil, nil
	}
	return &faultLoss{m: m, iv: iv.Index}, nil
}

// Finish broadcasts the Finish unless the plan jams it. The claimants
// that hear it sync their bookkeeping to the physical residual (their
// debit); the rest stay stale for the admission clamp to catch.
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
		m.reported[r.Sensor] = m.res.Residual[r.Sensor]
	}
	return nil
}

// faultLoss answers the commit's questions about one interval from the
// fault plan's pure rolls.
type faultLoss struct {
	m  *memory
	iv int
}

func (f *faultLoss) Deaf(sensor int) bool        { return !f.m.inj.ScheduleHeard(f.iv, sensor) }
func (f *faultLoss) Alive(sensor, slot int) bool { return f.m.inj.Alive(sensor, slot) }

// Repair rides the Schedule channel, so it is subject to the same drop
// rate; the unicast is sent whether or not it lands.
func (f *faultLoss) Repair(slot, sensor int) bool {
	f.m.res.Messages.RepairUnicasts++
	return !f.m.inj.RepairLost(f.iv, sensor, slot)
}
