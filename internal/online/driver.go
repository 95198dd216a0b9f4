package online

import (
	"context"
	"slices"

	"mobisink/internal/core"
)

// Transport carries one sink's interval frames, one method per protocol
// phase. A Driver calls it from one goroutine, in protocol order: Reach
// and Probe once per registration round, Schedule when the interval has
// claims, and Finish once the interval is committed.
type Transport interface {
	// Reach returns the sensors of silent (probed this interval, no
	// claim heard yet) that round attempt's Probe can reach. Attempt 0
	// opens the interval on the transport.
	Reach(iv Interval, attempt int, silent []int) []int
	// Probe sends round attempt's Probe to pending and returns the claims
	// heard before the round closes, in any order, at most one per sensor.
	Probe(ctx context.Context, iv Interval, attempt int, pending []int) ([]Registration, error)
	// Schedule delivers the plan to the admitted claimants and returns
	// what the delivery lost, as the commit asks about it; nil is no loss.
	Schedule(ctx context.Context, iv Interval, regs []Registration, plan map[int]int) (Loss, error)
	// Finish seals the committed interval and broadcasts its Finish to
	// the claimants, if there are any.
	Finish(ctx context.Context, iv Interval, regs []Registration, pairs []Pair, debits []Debit) error
}

// InRange appends to dst, ascending, the sensors the sink's Probe reaches
// in the interval: those with a window that lie within the radio range
// of the sink's position at the interval's first slot. It is the probe
// set of Algorithm 2 on every transport.
func InRange(inst *core.Instance, iv Interval, dst []int) []int {
	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start >= 0 && sinkPos.Dist(s.Pos) <= inst.Range {
			dst = append(dst, i)
		}
	}
	return dst
}

// Driver runs a tour's intervals over a Transport. It makes every
// decision that does not depend on how frames travel: the probe set, the
// registration rounds, the claim order, and the ledger's admit, plan and
// commit. A transport only moves frames and reports what they lost, so
// every transport runs the same protocol.
type Driver struct {
	led        *Ledger
	t          Transport
	maxRetries int

	// Scratch reused across intervals.
	silent  []int
	claimed []bool
	regs    []Registration
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

// Interval runs interval j: probe → ack rounds → schedule → commit →
// finish. A context canceled before the commit ends the interval with
// nothing committed or finished.
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
	var plan map[int]int
	var loss Loss
	if len(regs) > 0 {
		var err error
		if plan, err = led.Plan(ctx, iv, regs); err != nil {
			return err
		}
		res.Messages.Schedules++
		if loss, err = d.t.Schedule(ctx, iv, regs, plan); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var pairs []Pair
	var debits []Debit
	if len(regs) > 0 {
		var err error
		if pairs, debits, err = led.Commit(iv, regs, plan, loss); err != nil {
			return err
		}
	}
	return d.t.Finish(ctx, iv, regs, pairs, debits)
}
