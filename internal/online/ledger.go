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
// Schedule phase returns.

// Pair is one committed transmission: a slot and the sensor that owns
// it, as the interval's journal record holds it.
type Pair = wal.Assign

// Debit is one sensor's charge for an interval: the energy and data of
// its committed slots, summed in ascending slot order. That order pins
// the floating-point sums, so the sink's ledger, the sensor's own
// bookkeeping and a journal replay all reach bit-identical residuals.
type Debit = wal.Debit

// Debit charges one sensor's interval to the ledger with one clamped
// subtraction per budget. The live commit and the journal replay both
// apply debits through it.
func (r *Result) Debit(d Debit) {
	r.Residual[d.Sensor] = math.Max(0, r.Residual[d.Sensor]-d.Energy)
	if !math.IsInf(r.ResidualData[d.Sensor], 1) {
		r.ResidualData[d.Sensor] = math.Max(0, r.ResidualData[d.Sensor]-d.Data)
	}
}

// Loss is what an unreliable transport lost in one interval's Schedule
// phase, as the commit asks about it. The in-process fault path answers
// from its keyed fault rolls and crash trace; the wire sink from the
// Confirms it did not receive.
type Loss interface {
	// Deaf reports whether the registered sensor missed the Schedule: it
	// will not transmit, and it cannot take a repair.
	Deaf(sensor int) bool
	// Alive reports whether the sensor is up at the slot.
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
	claimDeaf      uint8 = 1 << iota // missed the Schedule
	claimDetected                    // caught silent; trusted no more this interval
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
	// the plan by slot offset (-1: idle); spend, drain and flags are per
	// claim; pairs and debits are what Commit returns.
	regOf  []int32
	owner  []int
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
// range an honest sensor claims.
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

// Plan runs the interval's scheduler over the admitted claims. On a
// recovering ledger an injected stall skips the primary scheduler
// outright and a compute-deadline overrun aborts it mid-search; either
// way the degraded scheduler plans the interval instead of idling it.
func (l *Ledger) Plan(ctx context.Context, iv Interval, regs []Registration) (map[int]int, error) {
	if l.st != nil {
		if l.fb.Stalls != nil && l.fb.Stalls.Stalled(iv.Index) {
			l.st.DegradedIntervals++
			return l.degraded().Schedule(ctx, l.inst, iv, regs)
		}
		if l.fb.Deadline > 0 {
			cctx, cancel := context.WithTimeout(ctx, l.fb.Deadline)
			plan, err := l.sched.Schedule(cctx, l.inst, iv, regs)
			cancel()
			if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				l.st.DegradedIntervals++
				return l.degraded().Schedule(ctx, l.inst, iv, regs)
			}
			return plan, err
		}
	}
	return l.sched.Schedule(ctx, l.inst, iv, regs)
}

// Commit validates an interval's plan (slot → sensor) against the
// admitted claims, commits it to the allocation and debits each sensor
// once. It returns the committed pairs in ascending slot order and the
// debits in ascending sensor order, the content of the interval's journal
// record; both slices are reused by the next Commit.
//
// A nil loss is the lossless protocol: every planned slot commits. A
// recovering ledger may be given a Loss instead. Then a sensor that is
// deaf, or down at its slot, costs the sink that slot to detect its
// silence, and each of its later slots is repaired to the registered
// sensor with the best rate there that heard the Schedule, is alive, and
// can still afford it. A slot nobody can take, or whose repair is lost,
// idles.
func (l *Ledger) Commit(iv Interval, regs []Registration, plan map[int]int, loss Loss) ([]Pair, []Debit, error) {
	for k, r := range regs {
		l.regOf[r.Sensor] = int32(k + 1)
	}
	defer func() {
		for _, r := range regs {
			l.regOf[r.Sensor] = 0
		}
	}()
	owner := l.owner[:iv.End-iv.Start+1]
	if err := l.validate(iv, regs, plan, owner); err != nil {
		return nil, nil, err
	}
	l.pairs, l.debits = l.pairs[:0], l.debits[:0]
	clear(l.spend)
	clear(l.drain)
	for k, r := range regs {
		if loss != nil && loss.Deaf(r.Sensor) {
			l.flags[k] |= claimDeaf
		}
	}
	for j, sensor := range owner {
		if sensor >= 0 {
			l.commitSlot(regs, iv.Start+j, sensor, loss)
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
	return l.pairs, l.debits, nil
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

// validate checks the plan against the protocol rules, lays it out by
// slot offset in owner, and sums each claim's planned spend in ascending
// slot order into the per-claim scratch. Misbehaviour is an error in
// every mode, never a fault to heal.
func (l *Ledger) validate(iv Interval, regs []Registration, plan map[int]int, owner []int) error {
	for j := range owner {
		owner[j] = -1
	}
	for slot, sensor := range plan {
		k := l.claim(sensor)
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
		owner[slot-iv.Start] = sensor
	}
	n := len(regs)
	if cap(l.spend) < n {
		l.spend, l.drain, l.flags = make([]float64, n), make([]float64, n), make([]uint8, n)
	}
	l.spend, l.drain, l.flags = l.spend[:n], l.drain[:n], l.flags[:n]
	clear(l.spend)
	clear(l.drain)
	clear(l.flags)
	for j, sensor := range owner {
		if sensor >= 0 {
			l.charge(l.claim(sensor), sensor, iv.Start+j)
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

// commitSlot commits one planned slot of a validated plan, ascending.
func (l *Ledger) commitSlot(regs []Registration, slot, sensor int, loss Loss) {
	k := l.claim(sensor)
	f := &l.flags[k]
	switch {
	case loss == nil:
		l.take(k, sensor, slot)
	case *f&claimDeaf != 0 || !loss.Alive(sensor, slot):
		if *f&claimDetected == 0 {
			// The sink spends this slot discovering the silence.
			*f |= claimDetected
			if *f&claimDeaf != 0 {
				l.st.SchedulesMissed++
			}
			l.st.LostSlots++
			return
		}
		l.repair(regs, slot, sensor, loss)
	case *f&claimDetected != 0 || !l.fits(k, &regs[k], slot):
		// Once caught silent, a sensor is not trusted again this interval
		// even if it comes back. A sensor that cannot afford its own slot
		// lost its budget to an earlier repair the sink made, so the sink
		// reassigns without a detection slot.
		l.repair(regs, slot, sensor, loss)
	default:
		l.take(k, sensor, slot)
	}
}

// repair hands a silent sensor's slot to the best replacement: the
// registered sensor with the highest rate at the slot that heard the
// Schedule, was never caught silent, is alive, and can afford it.
func (l *Ledger) repair(regs []Registration, slot, exclude int, loss Loss) {
	best, bestRate := -1, 0.0
	for k := range regs {
		r := &regs[k]
		if r.Sensor == exclude || l.flags[k]&(claimDeaf|claimDetected) != 0 || !loss.Alive(r.Sensor, slot) {
			continue
		}
		if slot < r.ClipStart || slot > r.ClipEnd {
			continue
		}
		s := &l.inst.Sensors[r.Sensor]
		rate, pw := s.RateAt(slot), s.PowerAt(slot)
		if rate <= 0 || pw <= 0 || !l.fits(k, r, slot) {
			continue
		}
		if rate > bestRate {
			best, bestRate = k, rate
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
	s := &l.inst.Sensors[r.Sensor]
	if !knapsack.Fits(l.spend[k]+s.PowerAt(slot)*l.inst.Tau, r.Budget) {
		return false
	}
	return l.drain[k]+s.RateAt(slot)*l.inst.Tau <= r.DataLeft+1e-6
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
	s := &l.inst.Sensors[sensor]
	l.spend[k] += s.PowerAt(slot) * l.inst.Tau
	l.drain[k] += s.RateAt(slot) * l.inst.Tau
}

// claim returns the sensor's index among the interval's claims, or -1.
func (l *Ledger) claim(sensor int) int {
	if sensor < 0 || sensor >= len(l.regOf) {
		return -1
	}
	return int(l.regOf[sensor]) - 1
}
