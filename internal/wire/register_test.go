package wire

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"slices"
	"sync"
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

// reachOf returns each interval's probe set: the sensors the sink's
// radio reaches at the interval's first slot.
func reachOf(inst *core.Instance) [][]int {
	reach := make([][]int, (inst.T+inst.Gamma-1)/inst.Gamma)
	for j := range reach {
		start := j * inst.Gamma
		iv := online.Interval{Index: j, Start: start, End: min(start+inst.Gamma, inst.T) - 1}
		reach[j] = online.InRange(inst, iv, nil)
	}
	return reach
}

// sharedReach returns the first interval from j on whose probe set holds
// at least two sensors, and the first two of them.
func sharedReach(t *testing.T, inst *core.Instance, j int) (iv, a, b int) {
	t.Helper()
	reach := reachOf(inst)
	for ; j < len(reach); j++ {
		if len(reach[j]) >= 2 {
			return j, reach[j][0], reach[j][1]
		}
	}
	t.Fatal("no interval's probe set holds two sensors")
	return
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
// counts. Both peers are in the first probe set that holds two sensors,
// so they are first probed in the same window.
func TestClosedPeerSettlesIdealizedWait(t *testing.T) {
	inst := shortInstance(t, 8, 900, 17)
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	iv, silent, claimer := sharedReach(t, inst, 0)
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
	if got := res.RegisteredIn[claimer]; !reflect.DeepEqual(got, []int{iv}) {
		t.Errorf("claim sent before hanging up: registered in %v, want [%d]", got, iv)
	}
	if err := res.CheckLemma1(); err != nil {
		t.Error(err)
	}
}

// TestStaleTrafficNeverShortensWait: out-of-phase and foreign answers
// must not settle anyone. During interval iv (the first after 0 whose
// probe set holds two sensors) one peer sends the previous interval's
// Confirm, Acks for other intervals, a decline claiming the other peer's
// id, and its own answer twice; the other peer answers late. Any of them
// miscounted would close the window before the late answer, leaving the
// late peer unregistered.
func TestStaleTrafficNeverShortensWait(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	iv, noisy, late := sharedReach(t, inst, 1)
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Sensors: 2, HaltAfter: iv + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	cn, _ := rawHandshake(t, sink.Addr(), noisy, 0, -1)
	pn := servePeer(cn, func(m Msg) bool {
		p, ok := m.(*Probe)
		if !ok {
			return true
		}
		if p.Interval != iv {
			_ = cn.WriteMsg(decline(p, noisy))
			return true
		}
		for _, a := range []*Ack{
			{Kind: AckConfirm, Interval: iv - 1, Sensor: noisy},
			{Kind: AckDecline, Interval: iv - 1, Sensor: noisy},
			{Kind: AckDecline, Interval: iv + 1, Sensor: noisy},
			{Kind: AckConfirm, Interval: iv, Sensor: noisy},
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
		if p.Interval == iv {
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
		t.Fatalf("RunTour: %v, want ErrHalted after %d intervals", err, iv+1)
	}
	sink.Close()
	waitPeers(t, pn, pl)

	for _, id := range []int{noisy, late} {
		if got := res.RegisteredIn[id]; !reflect.DeepEqual(got, []int{iv}) {
			t.Errorf("sensor %d registered in %v, want [%d]", id, got, iv)
		}
	}
	if res.Messages.Acks != 2 {
		t.Errorf("Acks = %d, want 2 (one claim per sensor)", res.Messages.Acks)
	}
}

// TestRetransmitAnswerCountsOnce: in recovery mode a sensor whose first
// answer is late answers both the original probe and the retransmit.
// Counting it twice would close the retransmit round before the other
// straggler's answer. Both peers are in the probe set of interval iv, the
// first that holds two sensors, and decline any earlier Probe.
func TestRetransmitAnswerCountsOnce(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	iv, twice, straggler := sharedReach(t, inst, 0)
	rec := &Recovery{MaxRetries: 1, RegWindow: 300 * time.Millisecond, ConfirmWindow: 50 * time.Millisecond}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Recovery: rec, Sensors: 2, HaltAfter: iv + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	ct, _ := rawHandshake(t, sink.Addr(), twice, 0, -1)
	var first *Probe
	pt := servePeer(ct, func(m Msg) bool {
		p, ok := m.(*Probe)
		if !ok {
			return true
		}
		if p.Interval != iv {
			_ = ct.WriteMsg(decline(p, twice))
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
		p, ok := m.(*Probe)
		switch {
		case !ok:
		case p.Interval != iv:
			_ = cs.WriteMsg(decline(p, straggler))
		case p.Attempt == 1:
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
		t.Fatalf("RunTour: %v, want ErrHalted after %d intervals", err, iv+1)
	}
	sink.Close()
	waitPeers(t, pt, ps)

	for _, id := range []int{twice, straggler} {
		if got := res.RegisteredIn[id]; !reflect.DeepEqual(got, []int{iv}) {
			t.Errorf("sensor %d registered in %v, want [%d]", id, got, iv)
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

// liveClaim answers a Probe through the sensor's endpoint with its full
// budget, as a SensorClient that never spent anything does: a
// registration when in range, a decline otherwise.
func liveClaim(inst *core.Instance, p *Probe, id int) *Ack {
	ep := online.NewEndpoint(&inst.Sensors[id], inst.Tau, inst.Range, inst.DataCapOf(id), nil)
	ans, reg := ep.Probe(online.Interval{Index: p.Interval, Start: p.Start, End: p.End}, geom.Point{X: p.SinkX, Y: p.SinkY})
	if ans != online.AnswerRegister {
		return decline(p, id)
	}
	return RegisterAck(p.Interval, p.Attempt, reg)
}

// TestProbeSetIsRadioReach: the sink probes exactly the connected
// sensors its radio reaches, in both modes. Hand-rolled peers for every
// other sensor record each Probe and answer it as a live client would; a
// peer must be probed in exactly the intervals whose probe set holds it,
// and the tour's Probe frames must number Σ_j |reach(j) ∩ connected|.
func TestProbeSetIsRadioReach(t *testing.T) {
	inst := shortInstance(t, 16, 1200, 13)
	reach := reachOf(inst)
	for _, tc := range []struct {
		name string
		rec  *Recovery
	}{
		{"idealized", nil},
		{"recovery", &Recovery{MaxRetries: 2, RegWindow: 5 * time.Second, ConfirmWindow: 5 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var connected []int
			for i := 0; i < len(inst.Sensors); i += 2 {
				connected = append(connected, i)
			}
			sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Recovery: tc.rec, Sensors: len(connected)})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			var mu sync.Mutex
			probed := make(map[int][]int)
			var peers []<-chan struct{}
			for _, id := range connected {
				c, _ := rawHandshake(t, sink.Addr(), id, 0, -1)
				peers = append(peers, servePeer(c, func(m Msg) bool {
					switch m := m.(type) {
					case *Probe:
						mu.Lock()
						probed[id] = append(probed[id], m.Interval)
						mu.Unlock()
						_ = c.WriteMsg(liveClaim(inst, m, id))
					case *Schedule:
						if slices.ContainsFunc(m.Pairs, func(a Assign) bool { return a.Sensor == id }) {
							_ = c.WriteMsg(&Ack{Kind: AckConfirm, Interval: m.Interval, Sensor: id})
						}
					}
					return true
				}))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := sink.WaitSensors(ctx); err != nil {
				t.Fatal(err)
			}
			before := sentByType[TypeProbe].Value()
			if _, err := sink.RunTour(ctx); err != nil {
				t.Fatal(err)
			}
			sent := sentByType[TypeProbe].Value() - before
			sink.Close()
			waitPeers(t, peers...)

			frames := 0
			for _, id := range connected {
				var want []int
				for j, ids := range reach {
					if slices.Contains(ids, id) {
						want = append(want, j)
					}
				}
				frames += len(want)
				if got := probed[id]; !slices.Equal(got, want) {
					t.Errorf("sensor %d probed in intervals %v, its reach is %v", id, got, want)
				}
			}
			if sent != float64(frames) {
				t.Errorf("sink sent %v Probe frames, want Σ|reach ∩ connected| = %d", sent, frames)
			}
		})
	}
}

// TestOverclaimedClipRangeIsCut: one sensor's Ack claims a clip range
// beyond its window within the interval — past the interval's end, or
// the whole int32 range. The ledger cuts each claim to the range an
// honest sensor claims, so the tour completes under every scheduler and
// its Result equals the in-process run's bit for bit. The peer claims
// its full initial budget and an unbounded queue, which the ledger
// clamps to its residuals too. It is probed in an interval its window
// outlasts, so the over-claim reaches slots of its window in the next
// interval.
func TestOverclaimedClipRangeIsCut(t *testing.T) {
	inst := shortInstance(t, 8, 900, 17)
	peer := -1
	for j, ids := range reachOf(inst) {
		for _, id := range ids {
			if end := min((j+1)*inst.Gamma, inst.T) - 1; peer < 0 && inst.Sensors[id].End > end {
				peer = id
			}
		}
	}
	if peer < 0 {
		t.Fatal("no probed sensor's window outlasts its interval")
	}
	for _, tc := range []struct {
		name  string
		claim func(p *Probe) (start, end int)
	}{
		{"past-interval", func(p *Probe) (int, int) { return p.Start, p.End + 3 }},
		{"int32-range", func(*Probe) (int, int) { return math.MinInt32, math.MaxInt32 }},
	} {
		for _, mk := range []func() online.Scheduler{
			func() online.Scheduler { return &online.Appro{} },
			func() online.Scheduler { return &online.Greedy{} },
			func() online.Scheduler { return &online.Sequential{} },
		} {
			t.Run(tc.name+"/"+mk().Name(), func(t *testing.T) {
				want, err := online.Run(inst, mk())
				if err != nil {
					t.Fatal(err)
				}
				sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: mk()})
				if err != nil {
					t.Fatal(err)
				}
				defer sink.Close()
				c, _ := rawHandshake(t, sink.Addr(), peer, 0, -1)
				done := servePeer(c, func(m Msg) bool {
					if p, ok := m.(*Probe); ok {
						start, end := tc.claim(p)
						_ = c.WriteMsg(RegisterAck(p.Interval, p.Attempt, online.Registration{
							Sensor: peer, Budget: inst.Sensors[peer].Budget, DataLeft: math.Inf(1),
							ClipStart: start, ClipEnd: end,
						}))
					}
					return true
				})
				fl := launchExcept(t, sink.Addr(), inst, peer)

				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				if err := sink.WaitSensors(ctx); err != nil {
					t.Fatal(err)
				}
				got, err := sink.RunTour(ctx)
				if err != nil {
					t.Fatalf("tour with an over-claimed clip range: %v", err)
				}
				sink.Close()
				fl.join(t)
				waitPeers(t, done)

				if math.Float64bits(got.Data) != math.Float64bits(want.Data) ||
					!reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner) ||
					got.Messages != want.Messages || got.Intervals != want.Intervals ||
					!reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn) ||
					!reflect.DeepEqual(got.Residual, want.Residual) ||
					!reflect.DeepEqual(got.ResidualData, want.ResidualData) {
					t.Fatalf("wire result diverges from the in-process run:\nwire      %+v\nin-process %+v", got, want)
				}
			})
		}
	}
}
