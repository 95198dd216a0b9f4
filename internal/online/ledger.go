package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/knapsack"
	"mobisink/internal/wal"
)

// This file is the sink's books for every interval, whatever carries the
// frames: function calls here or TCP in internal/wire, with or without
// loss. The Driver (driver.go) runs the protocol over a Transport; a
// Ledger makes every decision that touches the tour's books (Admit, Plan,
// Commit), and loss reaches it only through the Loss hook the transport's
// Schedule phase returns. Commit and the journal replay are the only
// writers of the books' residuals.

// Pair is one (slot, sensor) assignment: of the Schedule every
// transport delivers, and of the interval's journal record.
type Pair = wal.Assign

// Debit is one sensor's charge for an interval: the energy and data of
// its committed slots, summed in ascending slot order. That order pins
// the floating-point sums, so the sink's ledger, the sensor's Endpoint
// and a journal replay all reach bit-identical residuals.
type Debit = wal.Debit

// Debit charges one sensor's interval to the ledger with one clamped
// subtraction per budget. The live commit and the journal replay both
// apply debits through it.
func (r *Result) Debit(d Debit) {
	debit(&r.Residual[d.Sensor], &r.ResidualData[d.Sensor], d.Energy, d.Data)
}

// debit applies one clamped subtraction per residual budget; an
// unbounded data queue stays unbounded. The books and an Endpoint both
// debit through it.
func debit(energy, data *float64, spend, drain float64) {
	*energy = math.Max(0, *energy-spend)
	if !math.IsInf(*data, 1) {
		*data = math.Max(0, *data-drain)
	}
}

// Loss is what an unreliable transport lost in one interval's Schedule
// phase, as the commit asks about it. Both transports answer Deaf from
// the Confirms that did not arrive; the in-process one answers Alive
// from its crash trace, and the wire sink, which cannot see a crash,
// calls everyone alive.
type Loss interface {
	// Deaf reports whether the registered sensor was assigned slots and
	// never confirmed them: it missed the Schedule, or is down at one of
	// its slots. It will not transmit, and it cannot take a repair; a
	// sensor that confirmed transmits in all its slots.
	Deaf(sensor int) bool
	// Alive reports whether a repair candidate is up at the slot.
	Alive(sensor, slot int) bool
	// Repair sends the unicast that hands the slot to the sensor, counts
	// it, and reports whether it landed.
	Repair(slot, sensor int) bool
}

// Fallback is a recovering ledger's degraded mode: which intervals stall,
// and so are planned by the degraded scheduler instead (see degraded).
type Fallback struct {
	// Stalls injects deterministic scheduler stalls; nil injects none.
	Stalls *fault.Injector
	// Deadline, when positive, bounds each interval's scheduler
	// wall-clock time.
	Deadline time.Duration
}

// Claim flags, per registration of the interval being committed.
const (
	claimDeaf      uint8 = 1 << iota // never confirmed its slots
	claimDetected                    // its silence was detected
	claimCommitted                   // owns at least one committed slot
)

// Ledger makes a tour's ledger decisions, interval by interval: admission,
// scheduling and commit. One Ledger serves one tour's Result, from one
// goroutine.
type Ledger struct {
	inst  *core.Instance
	res   *Result
	sched Scheduler
	// st receives the recovery tallies. Nil runs the paper's lossless
	// protocol: no fallback, and Commit takes no Loss.
	st *fault.Stats
	fb Fallback
	// mu guards the residuals Commit debits, and committed, the last
	// interval whose commit is final (journaled, if any; -1: none).
	mu        sync.Mutex
	committed int

	// Scratch reused across intervals. regOf maps a sensor to 1 + its
	// index among the interval's claims (0: not registered); owner holds
	// the plan's claim index by slot offset (-1: idle); plan is what Plan
	// returns; spend, drain and flags are per claim; pairs and debits are
	// what Commit returns.
	regOf  []int32
	owner  []int
	plan   []Pair
	spend  []float64
	drain  []float64
	flags  []uint8
	pairs  []Pair
	debits []Debit
}

// NewLedger binds a tour's Result to its scheduler. A non-nil st makes the
// ledger recovering: Admit tallies its clamps there, Plan falls back as fb
// says, and Commit accepts a Loss. The scheduler must handle data caps
// when the instance has them.
func NewLedger(inst *core.Instance, res *Result, sched Scheduler, st *fault.Stats, fb Fallback) (*Ledger, error) {
	if inst.DataCaps != nil && !capAware(sched) {
		return nil, fmt.Errorf("scheduler %s does not handle data-capped instances (use Sequential)", sched.Name())
	}
	return &Ledger{
		inst: inst, res: res, sched: sched, st: st, fb: fb, committed: -1,
		regOf: make([]int32, len(inst.Sensors)),
		owner: make([]int, inst.Gamma),
	}, nil
}

// degraded is the scheduler that plans a stalled interval: the density
// greedy, or Sequential on data-capped instances, which Greedy cannot
// handle.
func (l *Ledger) degraded() Scheduler {
	if l.inst.DataCaps != nil {
		return &Sequential{}
	}
	return &Greedy{}
}

func capAware(s Scheduler) bool {
	aware, ok := s.(interface{ CapAware() bool })
	return ok && aware.CapAware()
}

// Admit enters the interval's heard claims in the ledger: each sensor
// registers in the interval (the record Lemma 1 is checked on), its
// claimed Budget and DataLeft are clamped to the ledger's residuals, and
// its claimed clip range is cut to its window within the interval, the
// range an honest sensor claims. Plan and Commit take the same claims.
func (l *Ledger) Admit(iv Interval, regs []Registration) {
	res := l.res
	for k := range regs {
		r := &regs[k]
		res.RegisteredIn[r.Sensor] = append(res.RegisteredIn[r.Sensor], iv.Index)
		s := &l.inst.Sensors[r.Sensor]
		r.ClipStart = max(r.ClipStart, s.Start, iv.Start)
		r.ClipEnd = min(r.ClipEnd, s.End, iv.End)
		if r.Budget > res.Residual[r.Sensor] {
			r.Budget = res.Residual[r.Sensor]
			if l.st != nil {
				l.st.BudgetClamps++
			}
		}
		if r.DataLeft > res.ResidualData[r.Sensor] {
			r.DataLeft = res.ResidualData[r.Sensor]
		}
	}
}

// Plan runs the interval's scheduler over the admitted claims, checks
// its plan against the protocol rules and lays it out as pairs ascending
// by slot, reused by the next Plan: the Schedule every transport
// delivers, and what Commit commits. On a recovering ledger an injected
// stall skips the primary scheduler outright and a compute-deadline
// overrun aborts it mid-search; either way the degraded scheduler plans
// the interval instead of idling it.
func (l *Ledger) Plan(ctx context.Context, iv Interval, regs []Registration) ([]Pair, error) {
	var plan map[int]int
	var err error
	switch {
	case l.st != nil && l.fb.Stalls != nil && l.fb.Stalls.Stalled(iv.Index):
		l.st.DegradedIntervals++
		plan, err = l.degraded().Schedule(ctx, l.inst, iv, regs)
	case l.st != nil && l.fb.Deadline > 0:
		cctx, cancel := context.WithTimeout(ctx, l.fb.Deadline)
		plan, err = l.sched.Schedule(cctx, l.inst, iv, regs)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			l.st.DegradedIntervals++
			plan, err = l.degraded().Schedule(ctx, l.inst, iv, regs)
		}
	default:
		plan, err = l.sched.Schedule(ctx, l.inst, iv, regs)
	}
	if err == nil {
		err = l.lay(iv, regs, plan)
	}
	if err != nil {
		return nil, err
	}
	return l.plan, nil
}

// Commit commits the interval's plan, as the last Plan laid it out for
// the same claims, to the allocation and debits each sensor once. It
// returns the committed pairs in ascending slot order and the debits in
// ascending sensor order, the content of the interval's journal record;
// both slices are reused by the next Commit.
//
// A nil loss is the lossless protocol: every planned slot commits, so
// the spend and drain that Plan summed over the plan, in ascending slot
// order, are the debits. A recovering ledger may be given a Loss
// instead. Then a deaf sensor costs the sink its first slot to detect
// its silence, and each of its later slots is repaired to the
// registered sensor with the best rate there that is not deaf, is
// alive, and can still afford it. A slot nobody can take, or whose
// repair is lost, idles.
func (l *Ledger) Commit(iv Interval, regs []Registration, loss Loss) ([]Pair, []Debit) {
	l.pairs, l.debits = l.pairs[:0], l.debits[:0]
	clear(l.flags)
	if loss == nil {
		for _, p := range l.plan {
			l.flags[l.owner[p.Slot-iv.Start]] |= claimCommitted
			l.res.Alloc.SlotOwner[p.Slot] = p.Sensor
		}
		l.pairs = append(l.pairs, l.plan...)
	} else {
		clear(l.spend)
		clear(l.drain)
		for k, r := range regs {
			if loss.Deaf(r.Sensor) {
				l.flags[k] |= claimDeaf
			}
		}
		for _, p := range l.plan {
			l.commitSlot(regs, p.Slot, l.owner[p.Slot-iv.Start], loss)
		}
	}
	l.mu.Lock()
	for k, r := range regs {
		if l.flags[k]&claimCommitted != 0 {
			d := Debit{Sensor: r.Sensor, Energy: l.spend[k], Data: l.drain[k]}
			l.res.Debit(d)
			l.debits = append(l.debits, d)
		}
	}
	l.mu.Unlock()
	slices.SortFunc(l.debits, func(a, b Debit) int { return a.Sensor - b.Sensor })
	return l.pairs, l.debits
}

// Residual returns the sensor's residual energy and data. It may run
// while another goroutine commits: a wire session handshake reads it
// mid-tour.
func (l *Ledger) Residual(sensor int) (energy, data float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.res.Residual[sensor], l.res.ResidualData[sensor]
}

// Committed returns the last interval whose commit is final, read under
// the residuals' lock: a wire session handshake reports it beside them.
func (l *Ledger) Committed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// lay checks the plan (slot → sensor) against the protocol rules and
// lays it out in l.plan, ascending by slot. It sums each claim's planned
// spend in ascending slot order to check it against the claim.
// Misbehaviour is an error in every mode, never a fault to heal.
func (l *Ledger) lay(iv Interval, regs []Registration, plan map[int]int) error {
	for k, r := range regs {
		l.regOf[r.Sensor] = int32(k + 1)
	}
	defer func() {
		for _, r := range regs {
			l.regOf[r.Sensor] = 0
		}
	}()
	owner := l.owner[:iv.End-iv.Start+1]
	for j := range owner {
		owner[j] = -1
	}
	for slot, sensor := range plan {
		k := -1
		if sensor >= 0 && sensor < len(l.regOf) {
			k = int(l.regOf[sensor]) - 1
		}
		if k < 0 {
			return fmt.Errorf("scheduler assigned slot %d to unregistered sensor %d", slot, sensor)
		}
		r := &regs[k]
		if slot < r.ClipStart || slot > r.ClipEnd {
			return fmt.Errorf("slot %d outside clipped window [%d,%d] of sensor %d", slot, r.ClipStart, r.ClipEnd, sensor)
		}
		if l.res.Alloc.SlotOwner[slot] != -1 {
			return fmt.Errorf("slot %d double-booked", slot)
		}
		owner[slot-iv.Start] = k
	}
	n := len(regs)
	if cap(l.spend) < n {
		l.spend, l.drain, l.flags = make([]float64, n), make([]float64, n), make([]uint8, n)
	}
	l.spend, l.drain, l.flags = l.spend[:n], l.drain[:n], l.flags[:n]
	clear(l.spend)
	clear(l.drain)
	l.plan = l.plan[:0]
	for j, k := range owner {
		if k >= 0 {
			l.plan = append(l.plan, Pair{Slot: iv.Start + j, Sensor: regs[k].Sensor})
			l.charge(k, regs[k].Sensor, iv.Start+j)
		}
	}
	for k, r := range regs {
		if !knapsack.Fits(l.spend[k], r.Budget) {
			return fmt.Errorf("sensor %d scheduled to spend %v J with only %v J left", r.Sensor, l.spend[k], r.Budget)
		}
		if l.drain[k] > r.DataLeft+1e-6 {
			return fmt.Errorf("sensor %d scheduled to upload %v bits with only %v queued", r.Sensor, l.drain[k], r.DataLeft)
		}
	}
	return nil
}

// commitSlot commits one planned slot of claim k, ascending, under loss.
func (l *Ledger) commitSlot(regs []Registration, slot, k int, loss Loss) {
	sensor := regs[k].Sensor
	f := &l.flags[k]
	switch {
	case *f&claimDeaf != 0 && *f&claimDetected == 0:
		// The sink spends the deaf sensor's first slot discovering its
		// silence.
		*f |= claimDetected
		l.st.SchedulesMissed++
		l.st.LostSlots++
	case *f&claimDeaf != 0 || !l.fits(k, &regs[k], slot):
		// A sensor that cannot afford its own slot lost its budget to an
		// earlier repair the sink made, so the sink reassigns without a
		// detection slot.
		l.repair(regs, slot, sensor, loss)
	default:
		l.take(k, sensor, slot)
	}
}

// repair hands a slot to the best replacement: the registered sensor
// with the highest rate at the slot that is not deaf, is alive at the
// slot, and can afford it.
func (l *Ledger) repair(regs []Registration, slot, exclude int, loss Loss) {
	best, bestRate := -1, 0.0
	for k := range regs {
		r := &regs[k]
		if r.Sensor == exclude || l.flags[k]&claimDeaf != 0 || !loss.Alive(r.Sensor, slot) {
			continue
		}
		if slot < r.ClipStart || slot > r.ClipEnd {
			continue
		}
		link := l.inst.Sensors[r.Sensor].LinkAt(slot)
		if link.Rate <= 0 || link.Power <= 0 || !l.fits(k, r, slot) {
			continue
		}
		if link.Rate > bestRate {
			best, bestRate = k, link.Rate
		}
	}
	if best < 0 || !loss.Repair(slot, regs[best].Sensor) {
		l.st.LostSlots++
		return
	}
	l.st.RepairedSlots++
	l.take(best, regs[best].Sensor, slot)
}

// fits reports whether claim k can afford one more slot on top of what
// this interval already committed to it.
func (l *Ledger) fits(k int, r *Registration, slot int) bool {
	link := l.inst.Sensors[r.Sensor].LinkAt(slot)
	if !knapsack.Fits(l.spend[k]+link.Power*l.inst.Tau, r.Budget) {
		return false
	}
	return l.drain[k]+link.Rate*l.inst.Tau <= r.DataLeft+1e-6
}

// take commits the slot to claim k's sensor.
func (l *Ledger) take(k, sensor, slot int) {
	l.charge(k, sensor, slot)
	l.flags[k] |= claimCommitted
	l.res.Alloc.SlotOwner[slot] = sensor
	l.pairs = append(l.pairs, Pair{Slot: slot, Sensor: sensor})
}

// charge adds one slot's energy and data to claim k's running spend.
func (l *Ledger) charge(k, sensor, slot int) {
	link := l.inst.Sensors[sensor].LinkAt(slot)
	l.spend[k] += link.Power * l.inst.Tau
	l.drain[k] += link.Rate * l.inst.Tau
}
