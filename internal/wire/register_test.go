package wire

import (
	"context"
	"errors"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/geom"
	"mobisink/internal/online"
)

// servePeer runs a hand-rolled sensor on an already-handshaken conn:
// every frame the sink sends goes to reply, until the sink hangs up or
// reply returns false. On false the peer hangs up itself — a half-close,
// then a drain until the sink closes too, so no unread frame turns the
// close into a reset. The returned channel closes when the peer is done.
func servePeer(c *Conn, reply func(m Msg) bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.Close()
		for {
			m, err := c.ReadMsg()
			if err != nil {
				return
			}
			if !reply(m) {
				c.closeWrite()
				for {
					if _, err := c.ReadMsg(); err != nil {
						return
					}
				}
			}
		}
	}()
	return done
}

// launchExcept runs ordinary clients for every sensor but the skipped
// ones, which the test plays by hand.
func launchExcept(t *testing.T, addr string, inst *core.Instance, skip ...int) *fleet {
	t.Helper()
	fl := &fleet{errs: make(chan error, len(inst.Sensors))}
	for i := range inst.Sensors {
		if slices.Contains(skip, i) {
			continue
		}
		c, err := DialSensor(addr, SensorConfigFor(inst, i))
		if err != nil {
			t.Fatalf("dial sensor %d: %v", i, err)
		}
		fl.clients = append(fl.clients, c)
		go func() { fl.errs <- c.Run(context.Background()) }()
	}
	return fl
}

func decline(p *Probe, id int) *Ack {
	return &Ack{Kind: AckDecline, Interval: p.Interval, Attempt: p.Attempt, Sensor: id}
}

// emptyClaim registers with no budget left, so the scheduler assigns the
// sensor nothing and the claim shows up only in RegisteredIn and the
// Ack count.
func emptyClaim(p *Probe, id int) *Ack {
	return RegisterAck(p.Interval, p.Attempt, online.Registration{Sensor: id, ClipStart: p.Start, ClipEnd: p.End})
}

// waitPeers waits for hand-rolled peers to exit after the sink closed.
func waitPeers(t *testing.T, peers ...<-chan struct{}) {
	t.Helper()
	for _, done := range peers {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("hand-rolled peer did not exit after sink close")
		}
	}
}

// TestClosedPeerSettlesIdealizedWait pins the idealized window's
// termination rule for peers that hang up mid-window: a peer that closes
// without answering ends its own wait (the tour completes, the sensor
// unregistered), and an Ack forwarded before its peer closed still
// counts.
func TestClosedPeerSettlesIdealizedWait(t *testing.T) {
	inst := shortInstance(t, 8, 900, 17)
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const silent, claimer = 0, 1
	c0, _ := rawHandshake(t, sink.Addr(), silent, 0, -1)
	p0 := servePeer(c0, func(Msg) bool { return false }) // hang up at the first Probe
	c1, _ := rawHandshake(t, sink.Addr(), claimer, 0, -1)
	p1 := servePeer(c1, func(m Msg) bool {
		if p, ok := m.(*Probe); ok {
			_ = c1.WriteMsg(emptyClaim(p, claimer))
			return false
		}
		return true
	})
	fl := launchExcept(t, sink.Addr(), inst, silent, claimer)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatalf("tour with peers hanging up mid-window: %v", err)
	}
	sink.Close()
	fl.join(t)
	waitPeers(t, p0, p1)

	if got := res.RegisteredIn[silent]; len(got) != 0 {
		t.Errorf("silent peer registered in intervals %v", got)
	}
	if got := res.RegisteredIn[claimer]; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("claim sent before hanging up: registered in %v, want [0]", got)
	}
	if err := res.CheckLemma1(); err != nil {
		t.Error(err)
	}
}

// TestStaleTrafficNeverShortensWait: out-of-phase and foreign answers
// must not settle anyone. During interval 1 one peer sends the previous
// interval's Confirm, Acks for other intervals, a decline claiming the
// other peer's id, and its own answer twice; the other peer answers
// late. Any of them miscounted would close the window before the late
// answer, leaving the late peer unregistered.
func TestStaleTrafficNeverShortensWait(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Sensors: 2, HaltAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const noisy, late = 0, 1
	cn, _ := rawHandshake(t, sink.Addr(), noisy, 0, -1)
	pn := servePeer(cn, func(m Msg) bool {
		p, ok := m.(*Probe)
		if !ok {
			return true
		}
		if p.Interval != 1 {
			_ = cn.WriteMsg(decline(p, noisy))
			return true
		}
		for _, a := range []*Ack{
			{Kind: AckConfirm, Interval: 0, Sensor: noisy},
			{Kind: AckDecline, Interval: 0, Sensor: noisy},
			{Kind: AckDecline, Interval: 2, Sensor: noisy},
			{Kind: AckConfirm, Interval: 1, Sensor: noisy},
			decline(p, late),
			emptyClaim(p, noisy),
			emptyClaim(p, noisy),
			decline(p, noisy),
		} {
			_ = cn.WriteMsg(a)
		}
		return true
	})
	cl, _ := rawHandshake(t, sink.Addr(), late, 0, -1)
	pl := servePeer(cl, func(m Msg) bool {
		p, ok := m.(*Probe)
		if !ok {
			return true
		}
		if p.Interval == 1 {
			time.Sleep(100 * time.Millisecond)
			_ = cl.WriteMsg(emptyClaim(p, late))
		} else {
			_ = cl.WriteMsg(decline(p, late))
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("RunTour: %v, want ErrHalted after 2 intervals", err)
	}
	sink.Close()
	waitPeers(t, pn, pl)

	for _, id := range []int{noisy, late} {
		if got := res.RegisteredIn[id]; !reflect.DeepEqual(got, []int{1}) {
			t.Errorf("sensor %d registered in %v, want [1]", id, got)
		}
	}
	if res.Messages.Acks != 2 {
		t.Errorf("Acks = %d, want 2 (one claim per sensor)", res.Messages.Acks)
	}
}

// TestRetransmitAnswerCountsOnce: in recovery mode a sensor whose first
// answer is late answers both the original probe and the retransmit.
// Counting it twice would close the retransmit round before the other
// straggler's answer.
func TestRetransmitAnswerCountsOnce(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	rec := &Recovery{MaxRetries: 1, RegWindow: 300 * time.Millisecond, ConfirmWindow: 50 * time.Millisecond}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Recovery: rec, Sensors: 2, HaltAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const twice, straggler = 0, 1
	ct, _ := rawHandshake(t, sink.Addr(), twice, 0, -1)
	var first *Probe
	pt := servePeer(ct, func(m Msg) bool {
		p, ok := m.(*Probe)
		if !ok {
			return true
		}
		if p.Attempt == 0 {
			first = p // answered only once the retransmit round has started
			return true
		}
		_ = ct.WriteMsg(emptyClaim(first, twice))
		_ = ct.WriteMsg(emptyClaim(p, twice))
		return true
	})
	cs, _ := rawHandshake(t, sink.Addr(), straggler, 0, -1)
	ps := servePeer(cs, func(m Msg) bool {
		if p, ok := m.(*Probe); ok && p.Attempt == 1 {
			time.Sleep(50 * time.Millisecond)
			_ = cs.WriteMsg(emptyClaim(p, straggler))
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("RunTour: %v, want ErrHalted after 1 interval", err)
	}
	sink.Close()
	waitPeers(t, pt, ps)

	for _, id := range []int{twice, straggler} {
		if got := res.RegisteredIn[id]; !reflect.DeepEqual(got, []int{0}) {
			t.Errorf("sensor %d registered in %v, want [0]", id, got)
		}
	}
	if res.Messages.Acks != 2 {
		t.Errorf("Acks = %d, want 2 (the doubled answer counts once)", res.Messages.Acks)
	}
	if res.Messages.Retransmits != 1 || res.Fault.ProbeRetransmissions != 1 {
		t.Errorf("retransmit rounds: %d messages, %d stats; want 1",
			res.Messages.Retransmits, res.Fault.ProbeRetransmissions)
	}
}

// TestCloseEndsTour: closing the sink from another goroutine ends a tour
// blocked on an inbox wait — the idealized window, a recovery
// registration round, and the recovery confirm window — with an error
// wrapping net.ErrClosed, long before the caller's context expires.
func TestCloseEndsTour(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	long := &Recovery{RegWindow: 30 * time.Second, ConfirmWindow: 30 * time.Second}
	cases := []struct {
		name string
		rec  *Recovery
		// answer replies to a Probe; closeOn reports the frame during
		// whose wait the test closes the sink.
		answer  func(p *Probe) *Ack
		closeOn func(m Msg) bool
	}{
		{"idealized", nil, nil, func(m Msg) bool { _, ok := m.(*Probe); return ok }},
		{"recovery-register", long, nil, func(m Msg) bool { _, ok := m.(*Probe); return ok }},
		{"recovery-confirm", long, func(p *Probe) *Ack { return liveClaim(inst, p, 0) },
			func(m Msg) bool { sc, ok := m.(*Schedule); return ok && len(sc.Pairs) > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Recovery: tc.rec, Sensors: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			c, _ := rawHandshake(t, sink.Addr(), 0, 0, -1)
			closedAt := make(chan time.Time, 1)
			peer := servePeer(c, func(m Msg) bool {
				if tc.closeOn(m) {
					closedAt <- time.Now()
					go sink.Close()
					return true
				}
				if p, ok := m.(*Probe); ok && tc.answer != nil {
					_ = c.WriteMsg(tc.answer(p))
				}
				return true
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := sink.WaitSensors(ctx); err != nil {
				t.Fatal(err)
			}
			_, err = sink.RunTour(ctx)
			returned := time.Now()
			if !errors.Is(err, net.ErrClosed) {
				t.Fatalf("RunTour after Close: %v, want an error wrapping net.ErrClosed", err)
			}
			select {
			case at := <-closedAt:
				if d := returned.Sub(at); d > time.Second {
					t.Errorf("RunTour returned %v after Close", d)
				}
			default:
				t.Fatal("RunTour failed before the test closed the sink")
			}
			waitPeers(t, peer)
		})
	}
}

// liveClaim answers a Probe the way SensorClient does for a sensor with
// its full budget: a registration when in range, a decline otherwise.
func liveClaim(inst *core.Instance, p *Probe, id int) *Ack {
	s := inst.Sensors[id]
	if s.Start < 0 || (geom.Point{X: p.SinkX, Y: p.SinkY}).Dist(s.Pos) > inst.Range {
		return decline(p, id)
	}
	return RegisterAck(p.Interval, p.Attempt, online.Registration{
		Sensor: id, Budget: s.Budget, DataLeft: inst.DataCapOf(id),
		ClipStart: max(s.Start, p.Start), ClipEnd: min(s.End, p.End),
	})
}
