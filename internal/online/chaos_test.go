package online

import (
	"context"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/radio"
)

// chaosRates is the acceptance sweep: the drop probability applied to
// every message class at once.
var chaosRates = []float64{0, 0.05, 0.2, 0.5}

func sameAlloc(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Data != b.Data {
		t.Errorf("%s: data %v vs %v", label, a.Data, b.Data)
	}
	for j := range a.Alloc.SlotOwner {
		if a.Alloc.SlotOwner[j] != b.Alloc.SlotOwner[j] {
			t.Fatalf("%s: slot %d owner %d vs %d", label, j, a.Alloc.SlotOwner[j], b.Alloc.SlotOwner[j])
		}
	}
	if a.Messages != b.Messages {
		t.Errorf("%s: messages %+v vs %+v", label, a.Messages, b.Messages)
	}
	for i := range a.Residual {
		if a.Residual[i] != b.Residual[i] {
			t.Fatalf("%s: residual[%d] %v vs %v", label, i, a.Residual[i], b.Residual[i])
		}
	}
}

// TestChaosSweep runs the full fault plan at every acceptance drop rate
// and checks the tour stays invariant-clean: Run's internal Validate
// guarantees ≤1 sensor per slot and no energy/data overdraw, and Lemma 1
// must survive retransmission and repair.
func TestChaosSweep(t *testing.T) {
	inst := paperInstance(t, 80, 21, radio.Paper2013(), 5, 1)
	for _, sched := range []Scheduler{&Appro{}, &Greedy{}} {
		base, err := Run(inst, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range chaosRates {
			plan := &fault.Plan{
				Seed:         97,
				DropProbe:    rate,
				DropAck:      rate,
				DropSchedule: rate,
				DropFinish:   rate,
				StallProb:    rate / 2,
				MaxRetries:   2,
			}
			if rate > 0 {
				plan.Crashes = []fault.Crash{
					{Sensor: 3, From: 100, To: 400},
					{Sensor: 17, From: 0, To: inst.T - 1},
					{Sensor: 42, From: 900, To: 1100},
				}
				plan.Shortfalls = []fault.Shortfall{
					{Sensor: 7, Slot: 50, Joules: 0.5},
					{Sensor: 23, Slot: 800, Joules: 1e6},
				}
			}
			res, err := RunOpts(inst, sched, Options{Faults: plan})
			if err != nil {
				t.Fatalf("%s rate %v: %v", sched.Name(), rate, err)
			}
			if err := res.CheckLemma1(); err != nil {
				t.Errorf("%s rate %v: %v", sched.Name(), rate, err)
			}
			if rate == 0 {
				// A zero plan must bypass the fault path entirely.
				if res.Fault != nil {
					t.Fatalf("%s: zero plan took the fault path", sched.Name())
				}
				sameAlloc(t, sched.Name()+" rate 0", base, res)
				continue
			}
			if res.Fault == nil {
				t.Fatalf("%s rate %v: no fault stats", sched.Name(), rate)
			}
			if res.Data > base.Data {
				t.Errorf("%s rate %v: faulty tour collected %v > fault-free %v",
					sched.Name(), rate, res.Data, base.Data)
			}
			for i, r := range res.Residual {
				if r < 0 {
					t.Fatalf("%s rate %v: sensor %d residual %v < 0", sched.Name(), rate, i, r)
				}
			}
		}
	}
}

// TestFaultPathParity drives the fault machinery with nothing to inject
// (a zero plan forced onto the fault path by a generous compute deadline)
// and requires the result byte-identical to the plain protocol — the
// strongest form of the "zero-fault path unchanged" guarantee.
func TestFaultPathParity(t *testing.T) {
	inst := paperInstance(t, 80, 22, radio.Paper2013(), 5, 1)
	for _, opts := range []Options{
		{},
		{AckWindow: 8, Seed: 5},
	} {
		base, err := RunOpts(inst, &Appro{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		forced := opts
		forced.ComputeDeadline = time.Minute
		res, err := RunOpts(inst, &Appro{}, forced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault == nil {
			t.Fatal("forced run skipped the fault path")
		}
		if *res.Fault != (fault.Stats{}) {
			t.Fatalf("zero plan injected something: %+v", *res.Fault)
		}
		sameAlloc(t, "parity", base, res)
	}
}

// TestTotalFaults checks the protocol's behaviour at the extremes: a tour
// where nobody hears a Probe, a tour where everybody misses the Schedule,
// and a tour where every budget evaporates all collect nothing — without
// errors or invariant violations.
func TestTotalFaults(t *testing.T) {
	inst := paperInstance(t, 50, 23, radio.Paper2013(), 5, 1)
	allShort := make([]fault.Shortfall, len(inst.Sensors))
	for i := range allShort {
		allShort[i] = fault.Shortfall{Sensor: i, Slot: 0, Joules: 1e9}
	}
	cases := []struct {
		name string
		plan fault.Plan
	}{
		{"deaf-probes", fault.Plan{Seed: 1, DropProbe: 1, MaxRetries: 3}},
		{"deaf-schedules", fault.Plan{Seed: 1, DropSchedule: 1}},
		{"drained", fault.Plan{Seed: 1, Shortfalls: allShort}},
	}
	for _, tc := range cases {
		res, err := RunOpts(inst, &Greedy{}, Options{Faults: &tc.plan})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Data != 0 {
			t.Errorf("%s: collected %v bits, want 0", tc.name, res.Data)
		}
		switch tc.name {
		case "deaf-probes":
			if res.Messages.Acks != 0 {
				t.Errorf("deaf sensors acked %d times", res.Messages.Acks)
			}
			if res.Fault.ProbesDropped == 0 || res.Fault.ProbeRetransmissions == 0 {
				t.Errorf("stats missed the probe storm: %+v", res.Fault)
			}
		case "deaf-schedules":
			if res.Fault.SchedulesMissed == 0 || res.Fault.LostSlots == 0 {
				t.Errorf("stats missed the schedule blackout: %+v", res.Fault)
			}
			if res.Fault.RepairedSlots != 0 {
				t.Errorf("repaired %d slots with every candidate deaf", res.Fault.RepairedSlots)
			}
		case "drained":
			if res.Fault.ShortfallJoules == 0 {
				t.Errorf("stats missed the drain: %+v", res.Fault)
			}
		}
	}
}

// TestRetransmissionRecovers checks that extra registration rounds claw
// back sensors a lossy Ack channel lost: same seed, same drop rate, more
// retries must never collect less.
func TestRetransmissionRecovers(t *testing.T) {
	inst := paperInstance(t, 80, 24, radio.Paper2013(), 5, 1)
	run := func(retries int) *Result {
		t.Helper()
		res, err := RunOpts(inst, &Greedy{}, Options{Faults: &fault.Plan{
			Seed: 11, DropAck: 0.5, MaxRetries: retries,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	none, four := run(0), run(4)
	if four.Data < none.Data {
		t.Errorf("retries lost data: %v with 4 retries vs %v with none", four.Data, none.Data)
	}
	if four.Fault.ProbeRetransmissions == 0 {
		t.Error("no retransmission rounds recorded")
	}
	if four.Messages.Retransmits != four.Fault.ProbeRetransmissions {
		t.Errorf("message stats count %d retransmits, fault stats %d rounds",
			four.Messages.Retransmits, four.Fault.ProbeRetransmissions)
	}
	if four.Messages.Total() <= none.Messages.Total() {
		t.Errorf("retransmissions are not free: %d total messages vs %d",
			four.Messages.Total(), none.Messages.Total())
	}
}

// TestFinishJamClampsBudgets checks the feasibility guard: with every
// Finish jammed, sensors re-register with stale budgets and the sink must
// clamp them (the run's internal Validate proves nothing overdrew).
func TestFinishJamClampsBudgets(t *testing.T) {
	inst := paperInstance(t, 80, 25, radio.Paper2013(), 5, 1)
	res, err := RunOpts(inst, &Appro{}, Options{Faults: &fault.Plan{Seed: 3, DropFinish: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages.Finishes != 0 {
		t.Errorf("%d Finish broadcasts delivered through a full jam", res.Messages.Finishes)
	}
	if res.Fault.FinishesJammed == 0 {
		t.Error("no jams recorded")
	}
	if res.Fault.BudgetClamps == 0 {
		t.Error("no stale registration was clamped — guard untested")
	}
}

// TestCrashRepair crashes a mid-tour sensor and checks the sink repairs
// or writes off its slots (and that repaired slots carry real data).
func TestCrashRepair(t *testing.T) {
	inst := paperInstance(t, 80, 26, radio.Paper2013(), 5, 1)
	// Crash every third sensor for the middle half of the tour.
	var crashes []fault.Crash
	for i := 0; i < len(inst.Sensors); i += 3 {
		crashes = append(crashes, fault.Crash{Sensor: i, From: inst.T / 4, To: 3 * inst.T / 4})
	}
	res, err := RunOpts(inst, &Appro{}, Options{Faults: &fault.Plan{Seed: 7, Crashes: crashes}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.RepairedSlots+res.Fault.LostSlots == 0 {
		t.Fatalf("crashes never disturbed the schedule: %+v", res.Fault)
	}
	// A crashed sensor must not own slots inside its outage window.
	for _, c := range crashes {
		for j := c.From; j <= c.To; j++ {
			if res.Alloc.SlotOwner[j] == c.Sensor {
				t.Fatalf("sensor %d owns slot %d inside its crash window", c.Sensor, j)
			}
		}
	}
}

// hangingScheduler blocks until its context dies — a stand-in for a
// solver that blows every compute deadline.
type hangingScheduler struct{}

func (s *hangingScheduler) Name() string { return "hanging" }
func (s *hangingScheduler) Schedule(ctx context.Context, _ *core.Instance, _ Interval, _ []Registration) (map[int]int, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDegradedMode forces every interval into degraded mode and checks
// the fallback produces exactly the density-greedy tour.
func TestDegradedMode(t *testing.T) {
	inst := paperInstance(t, 80, 27, radio.Paper2013(), 5, 1)
	greedy, err := Run(inst, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	intervals := make([]int, greedy.Intervals)
	for j := range intervals {
		intervals[j] = j
	}
	res, err := RunOpts(inst, &Appro{}, Options{Faults: &fault.Plan{Seed: 9, StallIntervals: intervals}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.DegradedIntervals == 0 {
		t.Fatal("no interval degraded under forced stalls")
	}
	sameAlloc(t, "degraded-vs-greedy", greedy, res)
}

// TestComputeDeadline checks the wall-clock fallback: a scheduler that
// sleeps through its deadline must be replaced by the degraded policy
// mid-tour, not error the run out.
func TestComputeDeadline(t *testing.T) {
	inst := paperInstance(t, 50, 28, radio.Paper2013(), 5, 1)
	greedy, err := Run(inst, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpts(inst, &hangingScheduler{}, Options{ComputeDeadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.DegradedIntervals == 0 {
		t.Fatal("deadline never fired")
	}
	sameAlloc(t, "deadline-vs-greedy", greedy, res)
}

// TestComputeDeadlineRespectsCancel checks a canceled tour still aborts:
// cancellation must not be mistaken for a stall and absorbed by fallback.
func TestComputeDeadlineRespectsCancel(t *testing.T) {
	inst := paperInstance(t, 50, 29, radio.Paper2013(), 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, inst, &hangingScheduler{}, Options{ComputeDeadline: time.Hour}); err == nil {
		t.Fatal("canceled tour completed")
	}
}
