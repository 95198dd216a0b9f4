package wire

import (
	"context"
	"fmt"
	"time"

	"mobisink/internal/online"
)

// Registration state of one sensor in the current interval
// (sinkTransport.ans). Reach clears the previous interval's marks when
// it opens the next one.
const (
	ansNone    uint8 = iota // not probed this interval
	ansSilent               // probed and silent, outside the current round's countdown
	ansWaiting              // probed and silent, counted in the current round's countdown
	ansSettled              // answered with a claim or a decline
)

// sinkTransport is the Sink's online.Transport: the driver's frames go
// out on the fan-out write plane and come back through the inbox.
// Recovery mode times its registration rounds and its confirm window;
// idealized mode waits for every answer. It also observes the wire's
// interval histograms. It belongs to RunTour's goroutine.
type sinkTransport struct {
	s   *Sink
	res *online.Result
	// ans is each sensor's registration state; probed lists the sensors
	// marked this interval.
	ans     []uint8
	probed  []int
	pending []int
	claims  []online.Registration
	ids     []int
	// probeAt opens the interval and regDone closes its latest
	// registration round; regOpen holds until the roundtrip is observed.
	probeAt, regDone time.Time
	regOpen          bool
	// silent: Recovery interval iv's assignees with no Confirm yet.
	silent map[int]bool
	iv     int
}

// Reach keeps the silent sensors that have not declined and that the
// round's Probe can reach: the connected ones and, in Recovery mode,
// those holding a session within its TTL, which may resume and answer
// before the round closes. A session that expires mid-round is noticed at
// the next round.
func (t *sinkTransport) Reach(_ online.Interval, attempt int, silent []int) []int {
	if attempt == 0 {
		for _, id := range t.probed {
			t.ans[id] = ansNone
		}
		t.probed = t.probed[:0]
		t.probeAt = time.Now()
		t.regDone, t.regOpen = t.probeAt, true
	}
	s := t.s
	now := time.Now()
	t.pending = t.pending[:0]
	s.mu.Lock()
	for _, id := range silent {
		if t.ans[id] != ansSettled && s.reachableLocked(id, now) {
			t.pending = append(t.pending, id)
		}
	}
	s.mu.Unlock()
	return t.pending
}

// Probe sends the round's Probe to pending — a broadcast at attempt 0, a
// retransmit after — and counts those sensors down until every one has
// answered or, in Recovery mode, RegWindow expires. A sensor probed in an
// earlier round that answers late still registers.
func (t *sinkTransport) Probe(ctx context.Context, iv online.Interval, attempt int, pending []int) ([]online.Registration, error) {
	s := t.s
	for _, id := range t.probed {
		if t.ans[id] == ansWaiting {
			t.ans[id] = ansSilent
		}
	}
	for _, id := range pending {
		if t.ans[id] == ansNone {
			t.probed = append(t.probed, id)
		}
		t.ans[id] = ansWaiting
	}
	pos := s.cfg.Inst.Traj.PosAtSlotStart(iv.Start)
	s.broadcast(&Probe{Interval: iv.Index, Attempt: attempt, Start: iv.Start, End: iv.End, SinkX: pos.X, SinkY: pos.Y}, pending)
	var expire <-chan time.Time
	if s.rec != nil {
		timer := time.NewTimer(s.rec.RegWindow)
		defer timer.Stop()
		expire = timer.C
	}
	t.claims = t.claims[:0]
	err := t.countDown(ctx, len(pending), expire, iv.Index)
	t.regDone = time.Now()
	return t.claims, err
}

// countDown settles inbox messages until the left counted sensors have
// all settled or expire fires (never, when nil), so each message costs
// O(1).
func (t *sinkTransport) countDown(ctx context.Context, left int, expire <-chan time.Time, interval int) error {
	for left > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.s.done:
			return errClosed
		case <-expire:
			return nil
		case in := <-t.s.inbox:
			if t.settle(in, interval) {
				left--
			}
		}
	}
	return nil
}

// settle applies one inbox message to the registration and reports
// whether it settled a sensor counted in the current round. Only a
// probed, silent sensor's first valid answer settles it: an Ack for this
// interval, not a Confirm, naming the connection's own sensor. In
// idealized mode so does its connection's closed marker, which handle
// sends behind every message it forwarded. Recovery mode ignores closed
// markers: the sensor may resume and answer a retransmit.
func (t *sinkTransport) settle(in inbound, interval int) bool {
	a := &t.ans[in.sensor]
	if *a != ansWaiting && *a != ansSilent {
		return false // not probed, or already settled
	}
	counted := *a == ansWaiting
	if in.msg == nil {
		if t.s.rec != nil {
			return false
		}
		*a = ansSettled
		return counted
	}
	ack, ok := in.msg.(*Ack)
	if !ok || ack.Interval != interval || ack.Kind == AckConfirm || ack.Sensor != in.sensor {
		return false // stale or out-of-phase traffic
	}
	*a = ansSettled
	if ack.Kind == AckRegister {
		t.claims = append(t.claims, ack.Registration())
		t.res.Messages.Acks++
	}
	return counted
}

// Schedule broadcasts the plan's pairs, ascending by slot, to the
// claimants. Recovery mode then waits out the confirm window: an assignee
// that never confirmed is crashed, deaf, or unreachable.
func (t *sinkTransport) Schedule(ctx context.Context, iv online.Interval, regs []online.Registration, pairs []online.Pair) (online.Loss, error) {
	s := t.s
	t.observeRegistration()
	intervalCompute.Observe(time.Since(t.regDone).Seconds())
	s.broadcast(&Schedule{Interval: iv.Index, Pairs: pairs}, t.claimants(regs))
	if s.rec == nil {
		return nil, nil
	}
	if err := t.collectConfirms(ctx, iv, pairs); err != nil {
		return nil, err
	}
	return t, nil
}

// collectConfirms waits out the confirm window and leaves in t.silent
// the assignees of the pairs that never confirmed the Schedule
// broadcast. A canceled context ends the interval instead: its silence
// is the sink's, not the sensors'.
func (t *sinkTransport) collectConfirms(ctx context.Context, iv online.Interval, pairs []online.Pair) error {
	t.iv = iv.Index
	clear(t.silent)
	for _, p := range pairs {
		t.silent[p.Sensor] = true
	}
	timer := time.NewTimer(t.s.rec.ConfirmWindow)
	defer timer.Stop()
	for len(t.silent) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.s.done:
			return errClosed
		case <-timer.C:
			return nil
		case in := <-t.s.inbox:
			if in.msg == nil {
				continue
			}
			ack, ok := in.msg.(*Ack)
			if ok && ack.Kind == AckConfirm && ack.Interval == iv.Index {
				delete(t.silent, in.sensor)
			}
		}
	}
	return nil
}

// Deaf, Alive and Repair are the commit's view of a Recovery interval:
// the assignees whose Confirm never arrived are deaf, and everyone is
// alive as far as the sink can tell. Repairs commit optimistically: the
// sink cannot observe a dropped repair frame, and the budget clamp at
// the sensor's next registration heals the divergence.
func (t *sinkTransport) Deaf(sensor int) bool { return t.silent[sensor] }
func (t *sinkTransport) Alive(int, int) bool  { return true }

// Repair routes the unicast through the write plane's task FIFO, behind
// the interval's Schedule broadcast, so the repair cannot overtake it.
func (t *sinkTransport) Repair(slot, sensor int) bool {
	fix := &Schedule{Interval: t.iv, Repair: true, Pairs: []Assign{{Slot: slot, Sensor: sensor}}}
	if !t.s.bc.Unicast(sensor, fix) {
		return false
	}
	t.res.Messages.RepairUnicasts++
	return true
}

// Finish broadcasts the Finish of a committed, journaled interval; TCP
// ordering delivers it before the next Probe, so every later claim
// reflects the debit. The tour's last Finish drains the write plane
// before the End is journaled. A HaltAfter stop never gets there: frames
// a crash would lose stay lost, and the Sync's min-residual adoption
// heals the divergence bit-exactly.
func (t *sinkTransport) Finish(ctx context.Context, iv online.Interval, regs []online.Registration) error {
	s := t.s
	t.observeRegistration()
	intervalCommitNs.Observe(float64(time.Since(t.probeAt).Nanoseconds()))
	if len(regs) > 0 {
		s.broadcast(&Finish{Interval: iv.Index}, t.claimants(regs))
		t.res.Messages.Finishes++
	}
	if iv.Index == t.res.Intervals-1 {
		if err := s.bc.Flush(ctx); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
	}
	return nil
}

// observeRegistration records the interval's registration roundtrip, from
// its opening to the close of its last round, once per interval.
func (t *sinkTransport) observeRegistration() {
	if t.regOpen {
		regRoundtrip.Observe(t.regDone.Sub(t.probeAt).Seconds())
		t.regOpen = false
	}
}

// claimants returns the claims' sensor ids in one reused buffer.
func (t *sinkTransport) claimants(regs []online.Registration) []int {
	t.ids = t.ids[:0]
	for _, r := range regs {
		t.ids = append(t.ids, r.Sensor)
	}
	return t.ids
}
