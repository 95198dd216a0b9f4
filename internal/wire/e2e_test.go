package wire

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
)

// shortInstance builds a small tour (a few hundred slots) so a full
// over-the-wire tour stays fast under -race.
func shortInstance(t *testing.T, n int, pathLen float64, seed int64) *core.Instance {
	t.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: pathLen, MaxOffset: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	// Paper-scale accrual (a full 10 km tour's worth) regardless of the
	// shortened path, so budgets afford enough slots to exercise the
	// schedulers.
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 2000, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(d, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fleet is a set of sensor clients running against a sink (directly or
// through a chaos proxy).
type fleet struct {
	clients []*SensorClient
	errs    chan error
}

// launchFleet dials one client per sensor and runs their protocol loops.
func launchFleet(t *testing.T, addr string, inst *core.Instance, inj *fault.Injector) *fleet {
	t.Helper()
	fl := &fleet{errs: make(chan error, len(inst.Sensors))}
	for i := range inst.Sensors {
		cfg := SensorConfigFor(inst, i)
		cfg.Faults = inj
		c, err := DialSensor(addr, cfg)
		if err != nil {
			t.Fatalf("dial sensor %d: %v", i, err)
		}
		fl.clients = append(fl.clients, c)
		go func() { fl.errs <- c.Run(context.Background()) }()
	}
	return fl
}

// join waits for every client loop to exit cleanly.
func (fl *fleet) join(t *testing.T) {
	t.Helper()
	for range fl.clients {
		select {
		case err := <-fl.errs:
			if err != nil {
				t.Errorf("sensor client: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("sensor clients did not exit after sink close")
		}
	}
}

// wireTour runs one tour over loopback TCP and returns the sink's result
// plus the fleet (already joined, for client-side assertions).
func wireTour(t *testing.T, inst *core.Instance, sched online.Scheduler, rec *Recovery, chaos *ChaosConfig) (*online.Result, *fleet, ChaosStats) {
	t.Helper()
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: sched, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	addr := sink.Addr()
	var proxy *ChaosProxy
	var inj *fault.Injector
	if chaos != nil {
		proxy, err = NewChaosProxy(addr, *chaos, len(inst.Sensors), inst.T)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		addr = proxy.Addr()
		inj, err = fault.NewInjector(chaos.Plan, len(inst.Sensors), inst.T)
		if err != nil {
			t.Fatal(err)
		}
	}
	fl := launchFleet(t, addr, inst, inj)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if proxy != nil {
		proxy.Close()
	}
	fl.join(t)
	var cs ChaosStats
	if proxy != nil {
		cs = proxy.Stats()
	}
	return res, fl, cs
}

// TestLoopbackParity is the keystone correctness check: a zero-fault
// tour over real TCP must be byte-identical to the in-process run —
// same allocation, same collected data, same message counts, same
// residual budgets on both the sink's ledger and the sensors' own.
//
// The recovery subcase runs the timed protocol on the same lossless
// link: every window closes as soon as every answer is in, so generous
// windows cost nothing, and the tour must be byte-identical too, with
// nothing recovered. It pins that the loss-aware commit on a quiet
// interval is the lossless commit.
func TestLoopbackParity(t *testing.T) {
	inst := shortInstance(t, 60, 2000, 7)
	for _, tc := range []struct {
		name string
		mk   func() online.Scheduler
		rec  *Recovery
	}{
		{"appro", func() online.Scheduler { return &online.Appro{} }, nil},
		{"greedy", func() online.Scheduler { return &online.Greedy{} }, nil},
		{"appro-recovery", func() online.Scheduler { return &online.Appro{} },
			&Recovery{MaxRetries: 2, RegWindow: 5 * time.Second, ConfirmWindow: 5 * time.Second}},
	} {
		mk := tc.mk
		t.Run(tc.name, func(t *testing.T) {
			want, err := online.Run(inst, mk())
			if err != nil {
				t.Fatal(err)
			}
			got, fl, _ := wireTour(t, inst, mk(), tc.rec, nil)
			if tc.rec != nil {
				if got.Fault == nil || *got.Fault != (fault.Stats{}) {
					t.Errorf("lossless recovery tour recovered something: %+v", got.Fault)
				}
			}

			if got.Data != want.Data {
				t.Errorf("data: wire %v, in-process %v", got.Data, want.Data)
			}
			if !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner) {
				t.Error("slot assignments diverge")
			}
			if got.Messages != want.Messages {
				t.Errorf("messages: wire %+v, in-process %+v", got.Messages, want.Messages)
			}
			if got.Intervals != want.Intervals {
				t.Errorf("intervals: wire %d, in-process %d", got.Intervals, want.Intervals)
			}
			if !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn) {
				t.Error("registration history diverges")
			}
			for i := range want.Residual {
				if got.Residual[i] != want.Residual[i] {
					t.Fatalf("sensor %d sink-ledger residual: wire %v, in-process %v",
						i, got.Residual[i], want.Residual[i])
				}
				if r := fl.clients[i].Residual(); r != want.Residual[i] {
					t.Fatalf("sensor %d client residual %v, in-process %v", i, r, want.Residual[i])
				}
				if !math.IsInf(want.ResidualData[i], 1) && got.ResidualData[i] != want.ResidualData[i] {
					t.Fatalf("sensor %d residual data: wire %v, in-process %v",
						i, got.ResidualData[i], want.ResidualData[i])
				}
			}
			if err := got.CheckLemma1(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShortfallTourParity runs a harvest-shortfall tour over loopback
// TCP with the idealized sink. Every client carries a shortfall-only
// plan's injector, so the sensors it cuts short write the shortfall off
// themselves at a Probe and claim less. The sink's books must be
// bit-equal to online.RunOpts under the same plan, message counts
// included. Every sensor without a shortfall must end with its own
// residuals bit-equal to the books; one with a shortfall ends below
// them, because the books never hold a shortfall.
func TestShortfallTourParity(t *testing.T) {
	inst := shortInstance(t, 40, 2000, 7)
	// Cut half the budget of the first sensor of three probe sets from
	// the second interval on, at that interval's first slot.
	reach := reachOf(inst)
	short := make(map[int]bool)
	var plan fault.Plan
	for j := 1; j < len(reach) && len(plan.Shortfalls) < 3; j++ {
		for _, id := range reach[j] {
			if !short[id] {
				short[id] = true
				plan.Shortfalls = append(plan.Shortfalls, fault.Shortfall{Sensor: id, Slot: j * inst.Gamma, Joules: inst.Sensors[id].Budget / 2})
				break
			}
		}
	}
	if len(plan.Shortfalls) < 3 {
		t.Fatalf("only %d probe sets to cut short", len(plan.Shortfalls))
	}
	want, err := online.RunOpts(inst, &online.Appro{}, online.Options{Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if want.Fault.ShortfallJoules == 0 {
		t.Fatal("no sensor wrote off its shortfall in process")
	}
	inj, err := fault.NewInjector(plan, len(inst.Sensors), inst.T)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Appro{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	fl := launchFleet(t, sink.Addr(), inst, inj)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	fl.join(t)

	if math.Float64bits(got.Data) != math.Float64bits(want.Data) || !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner) {
		t.Errorf("wire tour collected %v bits, in process %v, or their slot owners differ", got.Data, want.Data)
	}
	if got.Messages != want.Messages || !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn) {
		t.Errorf("messages or registrations differ: wire %+v, in process %+v", got.Messages, want.Messages)
	}
	for i, c := range fl.clients {
		books := [2]float64{got.Residual[i], got.ResidualData[i]}
		if ref := [2]float64{want.Residual[i], want.ResidualData[i]}; math.Float64bits(books[0]) != math.Float64bits(ref[0]) || math.Float64bits(books[1]) != math.Float64bits(ref[1]) {
			t.Fatalf("sensor %d: wire books %v, in process %v", i, books, ref)
		}
		own := [2]float64{c.Residual(), c.ResidualData()}
		switch {
		case short[i] && own[0] >= books[0]:
			t.Errorf("sensor %d wrote off no shortfall: own residual %v, books %v", i, own[0], books[0])
		case !short[i] && (math.Float64bits(own[0]) != math.Float64bits(books[0]) || math.Float64bits(own[1]) != math.Float64bits(books[1])):
			t.Errorf("sensor %d: own residuals %v, books %v", i, own, books)
		}
	}
}

// TestIntervalHistograms pins where the sink observes its interval
// histograms on a lossless loopback tour, in both modes: the
// registration roundtrip and the commit latency once per interval, the
// scheduler compute once per scheduled interval, and the fan-out once
// per broadcast — a Probe for each interval whose probe set is not
// empty, then each Schedule and Finish.
func TestIntervalHistograms(t *testing.T) {
	inst := shortInstance(t, 16, 1200, 13)
	probed := 0
	for _, ids := range reachOf(inst) {
		if len(ids) > 0 {
			probed++
		}
	}
	for _, rec := range []*Recovery{nil, {MaxRetries: 2, RegWindow: 5 * time.Second, ConfirmWindow: 5 * time.Second}} {
		before := make(map[string]uint64)
		for name, h := range LatencyHistograms() {
			before[name] = h.Count()
		}
		res, _, _ := wireTour(t, inst, &online.Greedy{}, rec, nil)
		m := res.Messages
		for name, want := range map[string]int{
			"wire_registration_roundtrip_seconds": res.Intervals,
			"wire_interval_commit_ns":             res.Intervals,
			"wire_interval_compute_seconds":       m.Schedules,
			"wire_broadcast_fanout_ns":            probed + m.Schedules + m.Finishes,
		} {
			if got := LatencyHistograms()[name].Count() - before[name]; got != uint64(want) {
				t.Errorf("recovery=%v: %s observed %d times, want %d", rec != nil, name, got, want)
			}
		}
	}
}

// TestChaosProxyTour pushes a seeded fault plan through the proxy as
// real network damage and checks the recovery machinery holds the
// protocol invariants end to end.
func TestChaosProxyTour(t *testing.T) {
	inst := shortInstance(t, 24, 1600, 5)
	plan := fault.Plan{
		Seed:         42,
		DropProbe:    0.15,
		DropAck:      0.15,
		DropSchedule: 0.25,
		DropFinish:   1, // every Finish lost: all claims go stale
		MaxRetries:   2,
		Crashes: []fault.Crash{
			{Sensor: 3, From: inst.T / 4, To: inst.T},
			{Sensor: 11, From: 0, To: inst.T / 2},
		},
		StallIntervals: []int{1},
	}
	stallOnly := fault.Plan{Seed: plan.Seed, StallIntervals: plan.StallIntervals}
	stalls, err := fault.NewInjector(stallOnly, len(inst.Sensors), inst.T)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recovery{
		MaxRetries:    plan.MaxRetries,
		RegWindow:     50 * time.Millisecond,
		ConfirmWindow: 50 * time.Millisecond,
		Stalls:        stalls,
	}
	chaos := &ChaosConfig{Plan: plan, MaxDelay: 2 * time.Millisecond, ReorderProb: 0.1}

	res, _, cs := wireTour(t, inst, &online.Appro{}, rec, chaos)
	st := res.Fault
	if st == nil {
		t.Fatal("recovery run produced no fault stats")
	}
	if err := res.CheckLemma1(); err != nil {
		t.Errorf("lemma 1 violated under chaos: %v", err)
	}
	if res.Data <= 0 {
		t.Error("chaos tour collected no data")
	}
	for i, r := range res.Residual {
		if r < 0 {
			t.Errorf("sensor %d residual went negative: %v", i, r)
		}
	}
	if cs.Dropped() == 0 {
		t.Error("proxy dropped nothing despite nonzero drop rates")
	}
	if cs.DroppedFinishes == 0 {
		t.Error("DropFinish=1 but no Finish frames dropped")
	}
	if st.ProbeRetransmissions == 0 {
		t.Error("probe/ack drops occurred but no retransmission rounds ran")
	}
	if res.Messages.Retransmits != st.ProbeRetransmissions {
		t.Errorf("Retransmits %d != ProbeRetransmissions %d",
			res.Messages.Retransmits, st.ProbeRetransmissions)
	}
	if res.Messages.RepairUnicasts != st.RepairedSlots {
		t.Errorf("RepairUnicasts %d != RepairedSlots %d",
			res.Messages.RepairUnicasts, st.RepairedSlots)
	}
	if cs.DroppedSchedules > 0 && st.SchedulesMissed == 0 {
		t.Error("schedule broadcasts dropped but sink detected no missed schedules")
	}
	if st.SchedulesMissed > 0 && st.RepairedSlots+st.LostSlots == 0 {
		t.Error("missed schedules produced neither repairs nor lost slots")
	}
	if st.BudgetClamps == 0 {
		t.Error("every Finish was jammed yet no stale budget was clamped")
	}
	if st.DegradedIntervals != 1 {
		t.Errorf("DegradedIntervals = %d, want 1 (forced stall of interval 1)", st.DegradedIntervals)
	}
}

// TestChaosDelayReorderOnly checks pure timing chaos (no drops): delays
// and reorders alone must not break the protocol, because per-connection
// TCP ordering plus interval tags filter stale traffic.
func TestChaosDelayReorderOnly(t *testing.T) {
	inst := shortInstance(t, 16, 1200, 9)
	rec := &Recovery{MaxRetries: 1, RegWindow: 60 * time.Millisecond, ConfirmWindow: 60 * time.Millisecond}
	chaos := &ChaosConfig{
		Plan:        fault.Plan{Seed: 17},
		MaxDelay:    3 * time.Millisecond,
		ReorderProb: 0.2,
	}
	res, _, cs := wireTour(t, inst, &online.Greedy{}, rec, chaos)
	if err := res.CheckLemma1(); err != nil {
		t.Error(err)
	}
	if res.Data <= 0 {
		t.Error("no data collected under delay/reorder chaos")
	}
	if cs.Dropped() != 0 {
		t.Errorf("zero drop rates but proxy dropped %d frames", cs.Dropped())
	}
	if cs.Delayed == 0 {
		t.Error("MaxDelay set but nothing was delayed")
	}
}

// TestProxyHalfClosesOnSinkHangup: when the sink hangs up, the proxy
// hands the sensor every frame it forwarded and then EOF, and the
// sensor's answer to the last frame is read, not met with a connection
// reset that would fail the sensor's tour.
func TestProxyHalfClosesOnSinkHangup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy, err := NewChaosProxy(ln.Addr().String(), ChaosConfig{Plan: fault.Plan{Seed: 1}}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	answered := make(chan Msg, 1)
	go func() { // the sink: one Schedule, then a half-close and a drain
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(raw)
		defer c.Close()
		if _, err := c.ReadMsg(); err != nil { // the Hello
			return
		}
		if err := c.WriteMsg(&Sync{Token: 1, Interval: -1}); err != nil {
			return
		}
		_ = c.WriteMsg(&Schedule{Interval: 0, Pairs: []Assign{{Slot: 0, Sensor: 0}}})
		c.closeWrite()
		for {
			m, err := c.ReadMsg()
			if err != nil {
				return
			}
			select {
			case answered <- m:
			default:
			}
		}
	}()
	raw, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	defer c.Close()
	if _, err := c.ClientHandshake(0, 0, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadMsg(); err != nil {
		t.Fatalf("read the Schedule: %v", err)
	}
	if err := c.WriteMsg(&Ack{Kind: AckConfirm, Interval: 0, Sensor: 0}); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	if _, err := c.ReadMsg(); !errors.Is(err, io.EOF) {
		t.Fatalf("read after the sink hung up: %v, want EOF", err)
	}
	select {
	case m := <-answered:
		if a, ok := m.(*Ack); !ok || a.Kind != AckConfirm {
			t.Errorf("sink got %v, want the Confirm", m)
		}
	case <-time.After(5 * time.Second):
		t.Error("the Confirm never reached the sink")
	}
}
