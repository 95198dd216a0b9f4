package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/geom"
	"mobisink/internal/wal"
)

// Transport carries one sink's interval frames, one method per protocol
// phase, between the driver and the sensors' Endpoints. A Driver calls
// it from one goroutine, in protocol order: Reach and Probe once per
// registration round, Schedule when the interval has claims, and Finish
// once the interval is committed and journaled.
type Transport interface {
	// Reach returns the sensors of silent (probed this interval, no
	// claim heard yet) that round attempt's Probe can reach. Attempt 0
	// opens the interval on the transport.
	Reach(iv Interval, attempt int, silent []int) []int
	// Probe sends round attempt's Probe to pending and returns the claims
	// heard before the round closes, in any order, at most one per sensor.
	Probe(ctx context.Context, iv Interval, attempt int, pending []int) ([]Registration, error)
	// Schedule delivers the plan's pairs, ascending by slot and reused by
	// the next interval, to the admitted claimants and returns what the
	// delivery lost, as the commit asks about it; nil is no loss.
	Schedule(ctx context.Context, iv Interval, regs []Registration, pairs []Pair) (Loss, error)
	// Finish broadcasts the committed interval's Finish to the claimants,
	// if there are any.
	Finish(ctx context.Context, iv Interval, regs []Registration) error
}

// InRange appends to dst, ascending, the sensors the sink's Probe reaches
// in the interval: those with a window that lie within the radio range
// of the sink's position at the interval's first slot. It is the probe
// set of Algorithm 2 on every transport.
func InRange(inst *core.Instance, iv Interval, dst []int) []int {
	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)
	for i := range inst.Sensors {
		// The x test alone skips most sensors, without a call.
		if s := &inst.Sensors[i]; math.Abs(s.Pos.X-sinkPos.X) <= inst.Range && reaches(s, sinkPos, inst.Range) {
			dst = append(dst, i)
		}
	}
	return dst
}

// reaches reports whether a sink at pos reaches the sensor: it has a
// window and lies within radio range r. InRange and a sensor's own Probe
// answer apply this one test.
func reaches(s *core.SensorSlots, pos geom.Point, r float64) bool {
	// A distance is never below either leg, so a sensor beyond the range
	// along one axis is out of reach without computing it.
	if s.Start < 0 || math.Abs(s.Pos.X-pos.X) > r || math.Abs(s.Pos.Y-pos.Y) > r {
		return false
	}
	return pos.Dist(s.Pos) <= r
}

// Driver runs a tour's intervals over a Transport. It makes every
// decision that does not depend on how frames travel: the probe set, the
// registration rounds, the claim order, the ledger's admit, plan and
// commit, and the journal records. A transport only moves frames and
// reports what they lost, so every transport runs the same protocol.
type Driver struct {
	led        *Ledger
	t          Transport
	maxRetries int
	log        Journal // the tour's journal, nil for none
	ended      bool    // log holds the End

	// Scratch reused across intervals.
	silent  []int
	claimed []bool
	regs    []Registration
	ids     []int
}

// NewDriver binds a tour's ledger to a transport, with up to maxRetries
// retransmit rounds per interval after the first; a lossless ledger runs
// the paper's single exchange whatever maxRetries says. It sets the
// tour's interval count, ⌈T/Γ⌉, on the ledger's Result.
func NewDriver(led *Ledger, t Transport, maxRetries int) *Driver {
	inst := led.inst
	led.res.Intervals = (inst.T + inst.Gamma - 1) / inst.Gamma
	if led.st == nil {
		maxRetries = 0
	}
	return &Driver{led: led, t: t, maxRetries: maxRetries, claimed: make([]bool, len(inst.Sensors))}
}

// Interval runs interval j: probe → ack rounds → plan → schedule →
// commit → journal → finish. A context canceled before the commit ends
// the interval with nothing committed, journaled or finished.
func (d *Driver) Interval(ctx context.Context, j int) error {
	led, res := d.led, d.led.res
	start := j * led.inst.Gamma
	iv := Interval{Index: j, Start: start, End: min(start+led.inst.Gamma, led.inst.T) - 1}

	res.Messages.Probes++
	d.silent = InRange(led.inst, iv, d.silent[:0])
	regs := d.regs[:0]
	for attempt := 0; attempt <= d.maxRetries; attempt++ {
		pending := d.t.Reach(iv, attempt, d.silent)
		if len(pending) == 0 {
			break
		}
		if attempt > 0 {
			res.Messages.Retransmits++
			led.st.ProbeRetransmissions++
		}
		claims, err := d.t.Probe(ctx, iv, attempt, pending)
		if err != nil {
			return err
		}
		for _, r := range claims {
			d.claimed[r.Sensor] = true
		}
		d.silent = slices.DeleteFunc(d.silent, func(i int) bool { return d.claimed[i] })
		for _, r := range claims {
			d.claimed[r.Sensor] = false
		}
		regs = append(regs, claims...)
	}
	// Claims enter the ledger in sensor order, whichever round or frame
	// carried them.
	slices.SortFunc(regs, func(a, b Registration) int { return a.Sensor - b.Sensor })
	d.regs = regs

	led.Admit(iv, regs)
	var pairs []Pair
	var debits []Debit
	if len(regs) > 0 {
		plan, err := led.Plan(ctx, iv, regs)
		if err != nil {
			return err
		}
		res.Messages.Schedules++
		loss, err := d.t.Schedule(ctx, iv, regs, plan)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		pairs, debits = led.Commit(iv, regs, loss)
	} else if err := ctx.Err(); err != nil {
		return err
	}
	// Journal before the Finish, so a crash between the two cannot lose a
	// debit the sensors performed; an idle interval journals too.
	if d.log != nil {
		d.ids = d.ids[:0]
		for _, r := range regs {
			d.ids = append(d.ids, r.Sensor)
		}
		if err := d.log.Append(wal.Commit{Interval: j, Registered: d.ids, Pairs: pairs, Debits: debits}); err != nil {
			return fmt.Errorf("journal commit: %w", err)
		}
	}
	led.mu.Lock()
	led.committed = j
	led.mu.Unlock()
	return d.t.Finish(ctx, iv, regs)
}

// ErrHalted is returned by Driver.Run when its halt count stopped the
// tour early, as a sink crash would.
var ErrHalted = errors.New("online: tour halted")

// NewTour builds a tour of inst under sched, its Result, Ledger and
// Driver, over the transport bind returns for that Result. A non-nil fb
// makes it recovering, with up to maxRetries retransmit rounds. A
// non-nil log journals it: NewTour writes a fresh log's Begin, or
// replays recs, what the log held. The Driver owns log once NewTour
// succeeds.
func NewTour(inst *core.Instance, sched Scheduler, fb *Fallback, maxRetries int, log Journal, recs []wal.Record, bind func(*Result) Transport) (*Driver, error) {
	if err := checkTour(inst, sched); err != nil {
		return nil, err
	}
	return newTour(inst, sched, fb, maxRetries, log, recs, bind)
}

// checkTour refuses what no tour can run.
func checkTour(inst *core.Instance, sched Scheduler) error {
	switch {
	case inst == nil:
		return errors.New("online: nil instance")
	case sched == nil:
		return errors.New("online: nil scheduler")
	case inst.NumSinks() > 1:
		return fmt.Errorf("online: the online protocol drives a single sink, instance has a fleet of %d", inst.NumSinks())
	}
	return nil
}

// newTour is NewTour past checkTour.
func newTour(inst *core.Instance, sched Scheduler, fb *Fallback, maxRetries int, log Journal, recs []wal.Record, bind func(*Result) Transport) (*Driver, error) {
	res := NewResult(inst)
	var fall Fallback
	if fb != nil {
		res.Fault, fall = &fault.Stats{}, *fb
	}
	led, err := NewLedger(inst, res, sched, res.Fault, fall)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	var ended bool
	if len(recs) > 0 {
		ended, err = led.replay(recs)
	} else if log != nil {
		err = log.Append(wal.Begin{Sensors: len(inst.Sensors), T: inst.T, Gamma: inst.Gamma, Fingerprint: Fingerprint(inst)})
	}
	if err != nil {
		return nil, err
	}
	d := NewDriver(led, bind(res), maxRetries)
	d.log, d.ended = log, ended
	return d, nil
}

// Ledger returns the tour's ledger.
func (d *Driver) Ledger() *Ledger { return d.led }

// Run runs the tour's intervals from the first uncommitted one, polling
// ctx between them, then journals the End and checks the allocation. A
// positive halt stops it after that many intervals, short of the last,
// with the partial Result, ErrHalted and no End.
func (d *Driver) Run(ctx context.Context, halt int) (*Result, error) {
	inst, res := d.led.inst, d.led.res
	first := d.led.committed + 1
	for j := first; j < res.Intervals && !d.ended; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.Interval(ctx, j); err != nil {
			return nil, fmt.Errorf("online: interval %d: %w", j, err)
		}
		if j+1-first == halt && j+1 < res.Intervals {
			return res, ErrHalted
		}
	}
	if d.log != nil && !d.ended {
		if err := d.log.Append(wal.End{}); err != nil {
			return nil, fmt.Errorf("online: journal end: %w", err)
		}
		d.ended = true
	}
	inst.RecomputeData(res.Alloc)
	res.Data = res.Alloc.Data
	if _, err := inst.Validate(res.Alloc); err != nil {
		return nil, fmt.Errorf("online: produced infeasible allocation: %w", err)
	}
	return res, nil
}

// Close closes the tour's journal, if it has one.
func (d *Driver) Close() error {
	if d.log == nil {
		return nil
	}
	return d.log.Close()
}
