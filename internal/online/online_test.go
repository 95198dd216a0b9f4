package online

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/matching"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

func paperInstance(t *testing.T, n int, seed int64, model radio.Model, speed, tau float64) *core.Instance {
	t.Helper()
	d, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, 10000/speed, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(d, model, speed, tau)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, &Greedy{}); err == nil {
		t.Error("expected nil-instance error")
	}
	inst := paperInstance(t, 20, 1, radio.Paper2013(), 5, 1)
	if _, err := Run(inst, nil); err == nil {
		t.Error("expected nil-scheduler error")
	}
}

func TestApproTour(t *testing.T) {
	inst := paperInstance(t, 100, 2, radio.Paper2013(), 5, 1)
	res, err := Run(inst, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data <= 0 {
		t.Fatal("no data collected")
	}
	if v, err := inst.Validate(res.Alloc); err != nil || math.Abs(v-res.Data) > 1e-6 {
		t.Fatalf("allocation invalid: %v (v=%v data=%v)", err, v, res.Data)
	}
	if err := res.CheckLemma1(); err != nil {
		t.Error(err)
	}
	if res.Intervals != (inst.T+inst.Gamma-1)/inst.Gamma {
		t.Errorf("intervals = %d", res.Intervals)
	}
	// Residual budgets never negative and never above initial.
	for i, r := range res.Residual {
		if r < 0 || r > inst.Sensors[i].Budget+1e-12 {
			t.Fatalf("sensor %d residual %v outside [0, %v]", i, r, inst.Sensors[i].Budget)
		}
	}
}

// Theorem 3: message complexity is O(n) — per tour each sensor acks at most
// twice, and the sink sends 3 broadcasts per interval.
func TestMessageComplexity(t *testing.T) {
	for _, n := range []int{50, 100, 200} {
		inst := paperInstance(t, n, int64(n), radio.Paper2013(), 5, 1)
		res, err := Run(inst, &Greedy{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages.Acks > 2*n {
			t.Errorf("n=%d: %d acks > 2n", n, res.Messages.Acks)
		}
		maxIv := (inst.T + inst.Gamma - 1) / inst.Gamma
		if res.Messages.Probes != maxIv {
			t.Errorf("n=%d: probes = %d, want %d", n, res.Messages.Probes, maxIv)
		}
		if res.Messages.Schedules > maxIv || res.Messages.Finishes > maxIv {
			t.Errorf("n=%d: too many broadcasts: %+v", n, res.Messages)
		}
		if res.Messages.Total() > 2*n+3*maxIv {
			t.Errorf("n=%d: total messages %d exceed 2n+3K", n, res.Messages.Total())
		}
	}
}

// The online algorithm can never beat the offline one on the same instance.
func TestOnlineBelowOffline(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		inst := paperInstance(t, 120, seed, radio.Paper2013(), 10, 2)
		off, err := core.OfflineAppro(inst, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(inst, &Appro{})
		if err != nil {
			t.Fatal(err)
		}
		// The paper reports online within ~93% of offline; allow a loose
		// floor here, but online must not exceed the upper bound and
		// should be in the same ballpark.
		if on.Data > inst.UpperBound()+1e-6 {
			t.Fatalf("online exceeds upper bound")
		}
		if on.Data > off.Data*1.10 {
			t.Fatalf("online %v suspiciously above offline %v", on.Data, off.Data)
		}
		if on.Data < off.Data*0.5 {
			t.Fatalf("online %v below half of offline %v — locality loss too large", on.Data, off.Data)
		}
	}
}

func TestMaxMatchRequiresFixedPower(t *testing.T) {
	inst := paperInstance(t, 60, 4, radio.Paper2013(), 5, 1)
	if _, err := Run(inst, &MaxMatch{}); err == nil {
		t.Error("expected fixed-power error")
	}
}

func TestMaxMatchTour(t *testing.T) {
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	inst := paperInstance(t, 120, 5, fp, 5, 1)
	mm, err := Run(inst, &MaxMatch{})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Run(inst, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(mm.Alloc); err != nil {
		t.Fatal(err)
	}
	// Per interval MaxMatch is exact while Appro is a 1/2-approximation;
	// over the tour MaxMatch should not lose.
	if mm.Data < ap.Data*0.99 {
		t.Errorf("online maxmatch %v below online appro %v", mm.Data, ap.Data)
	}
	// And the offline exact solution dominates the online one.
	off, err := core.OfflineMaxMatch(inst)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Data > off.Data+1e-6 {
		t.Errorf("online %v exceeds offline optimum %v", mm.Data, off.Data)
	}
	if err := mm.CheckLemma1(); err != nil {
		t.Error(err)
	}
}

// TestMaxMatchCountsSlotsByFits: both MaxMatch solvers cap a sensor's
// slots by adding P'·τ while knapsack.Fits holds, the sum Validate and
// the ledger form. A budget 2e-9 J short of three 2.4 J slots buys two
// (a floor of budget/(P'·τ) + 1e-9 granted three, which Validate refuses
// and which ended the online tour), and one 5e-10 J short of three 0.3 J
// slots buys three (the floor granted two).
func TestMaxMatchCountsSlotsByFits(t *testing.T) {
	fp, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		tau, short float64
		want       int // the most slots a sensor's budget buys
	}{
		{"2.4J-slots", 8, 2e-9, 2},
		{"0.3J-slots", 1, 5e-10, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := paperInstance(t, 30, 1, fp, 5, c.tau)
			for i := range inst.Sensors {
				inst.Sensors[i].Budget = 3*0.3*c.tau - c.short
			}
			for _, solver := range []struct {
				name  string
				solve func() (*core.Allocation, error)
			}{
				{"Offline_MaxMatch", func() (*core.Allocation, error) { return core.OfflineMaxMatch(inst) }},
				{"Online_MaxMatch", func() (*core.Allocation, error) {
					res, err := Run(inst, &MaxMatch{})
					if err != nil {
						return nil, err
					}
					return res.Alloc, nil
				}},
			} {
				alloc, err := solver.solve()
				if err == nil {
					_, err = inst.Validate(alloc)
				}
				if err != nil {
					t.Errorf("%s: %v", solver.name, err)
					continue
				}
				slots := make([]int, len(inst.Sensors))
				for _, i := range alloc.SlotOwner {
					if i >= 0 {
						slots[i]++
					}
				}
				if most := slices.Max(slots); most != c.want {
					t.Errorf("%s: a sensor takes up to %d slots, want %d", solver.name, most, c.want)
				}
			}
		})
	}
}

func TestGreedySchedulerTour(t *testing.T) {
	inst := paperInstance(t, 80, 6, radio.Paper2013(), 5, 1)
	res, err := Run(inst, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data <= 0 {
		t.Fatal("greedy collected nothing")
	}
	ap, err := Run(inst, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	// Appro should usually beat plain greedy; assert it is at least not
	// dramatically worse (sanity, not a theorem).
	if ap.Data < res.Data*0.8 {
		t.Errorf("appro %v much worse than greedy %v", ap.Data, res.Data)
	}
}

func TestSchedulerNames(t *testing.T) {
	if (&Appro{}).Name() != "Online_Appro" {
		t.Error("Appro name")
	}
	if (&MaxMatch{}).Name() != "Online_MaxMatch" {
		t.Error("MaxMatch name")
	}
	if (&Greedy{}).Name() != "Online_Greedy" {
		t.Error("Greedy name")
	}
}

func TestCheckLemma1Failures(t *testing.T) {
	r := &Result{RegisteredIn: [][]int{{0, 1, 2}}}
	if err := r.CheckLemma1(); err == nil {
		t.Error("expected >2 registrations error")
	}
	r = &Result{RegisteredIn: [][]int{{0, 2}}}
	if err := r.CheckLemma1(); err == nil {
		t.Error("expected non-consecutive error")
	}
	r = &Result{RegisteredIn: [][]int{{0, 1}, {3}, nil}}
	if err := r.CheckLemma1(); err != nil {
		t.Errorf("valid registrations rejected: %v", err)
	}
}

// TestCommitRejectsViolations checks the commit's protocol rules: a plan
// that breaks one is an error, never a fault to heal — on the lossless
// path and on the fault path alike (forced by a compute deadline with
// nothing injected).
func TestCommitRejectsViolations(t *testing.T) {
	inst := paperInstance(t, 50, 7, radio.Paper2013(), 5, 1)
	capped := paperInstance(t, 50, 7, radio.Paper2013(), 5, 1)
	caps := make([]float64, len(capped.Sensors))
	for i := range caps {
		caps[i] = 1e3
	}
	if err := capped.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		violation, want string
		inst            *core.Instance
	}{
		{"unregistered", "to unregistered sensor", inst},
		{"outside-clip", "outside clipped window", inst},
		{"energy", "J with only", inst},
		{"data", "bits with only", capped},
	} {
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"idealized", Options{}},
			{"fault-path", Options{ComputeDeadline: time.Minute}},
		} {
			t.Run(tc.violation+"/"+mode.name, func(t *testing.T) {
				_, err := RunOpts(tc.inst, &misbehavingScheduler{violation: tc.violation}, mode.opts)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err %v, want one containing %q", err, tc.want)
				}
			})
		}
	}
}

// misbehavingScheduler breaks one protocol rule in the first interval
// that lets it, and plans nothing before that.
type misbehavingScheduler struct{ violation string }

func (m *misbehavingScheduler) Name() string   { return "bad-" + m.violation }
func (m *misbehavingScheduler) CapAware() bool { return true }

func (m *misbehavingScheduler) Schedule(_ context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	switch m.violation {
	case "unregistered":
		reg := make(map[int]bool)
		for _, r := range regs {
			reg[r.Sensor] = true
		}
		for i := range inst.Sensors {
			if !reg[i] {
				return map[int]int{iv.Start: i}, nil
			}
		}
	case "outside-clip":
		for _, r := range regs {
			if r.ClipEnd < iv.End {
				return map[int]int{r.ClipEnd + 1: r.Sensor}, nil
			}
			if r.ClipStart > iv.Start {
				return map[int]int{r.ClipStart - 1: r.Sensor}, nil
			}
		}
	case "energy":
		// One sensor gets its whole clipped window.
		for _, r := range regs {
			plan, spend := map[int]int{}, 0.0
			for j := r.ClipStart; j <= r.ClipEnd; j++ {
				plan[j] = r.Sensor
				spend += inst.Sensors[r.Sensor].PowerAt(j) * inst.Tau
			}
			if spend > r.Budget+1e-6 {
				return plan, nil
			}
		}
	case "data":
		// One slot whose energy the sensor affords but whose data
		// overflows its queue.
		for _, r := range regs {
			s := &inst.Sensors[r.Sensor]
			for j := r.ClipStart; j <= r.ClipEnd; j++ {
				if s.PowerAt(j)*inst.Tau <= r.Budget && s.RateAt(j)*inst.Tau > r.DataLeft+1e-3 {
					return map[int]int{j: r.Sensor}, nil
				}
			}
		}
	}
	return map[int]int{}, nil
}

func TestTourDeterminism(t *testing.T) {
	instA := paperInstance(t, 90, 8, radio.Paper2013(), 5, 1)
	instB := paperInstance(t, 90, 8, radio.Paper2013(), 5, 1)
	a, err := Run(instA, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(instB, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Data != b.Data {
		t.Errorf("same inputs, different data: %v vs %v", a.Data, b.Data)
	}
	for j := range a.Alloc.SlotOwner {
		if a.Alloc.SlotOwner[j] != b.Alloc.SlotOwner[j] {
			t.Fatalf("slot %d differs", j)
		}
	}
}

func TestSequentialSchedulerUncapped(t *testing.T) {
	inst := paperInstance(t, 100, 12, radio.Paper2013(), 5, 1)
	seq, err := Run(inst, &Sequential{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(seq.Alloc); err != nil {
		t.Fatal(err)
	}
	if seq.Data <= 0 {
		t.Fatal("sequential collected nothing")
	}
	// Sequential per-interval packing should be competitive with Appro.
	ap, err := Run(inst, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Data < ap.Data*0.8 {
		t.Errorf("sequential %v far below appro %v", seq.Data, ap.Data)
	}
	if (&Sequential{}).Name() != "Online_Sequential" {
		t.Error("name")
	}
}

func TestDataCappedOnlineRun(t *testing.T) {
	inst := paperInstance(t, 80, 13, radio.Paper2013(), 5, 1)
	// Tight caps: each sensor may upload at most 100 kb.
	caps := make([]float64, len(inst.Sensors))
	for i := range caps {
		caps[i] = 100e3
	}
	if err := inst.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	// Cap-oblivious schedulers are rejected up front.
	if _, err := Run(inst, &Appro{}); err == nil {
		t.Error("expected cap-awareness rejection for Appro")
	}
	res, err := Run(inst, &Sequential{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(res.Alloc); err != nil {
		t.Fatalf("capped allocation infeasible: %v", err)
	}
	// Per-sensor upload within cap; residuals consistent.
	per := make([]float64, len(inst.Sensors))
	for j, i := range res.Alloc.SlotOwner {
		if i >= 0 {
			per[i] += inst.Sensors[i].RateAt(j) * inst.Tau
		}
	}
	for i, v := range per {
		if v > caps[i]+1e-6 {
			t.Fatalf("sensor %d uploaded %v > cap", i, v)
		}
		if math.Abs((caps[i]-v)-res.ResidualData[i]) > 1e-6 {
			t.Fatalf("sensor %d residual data %v inconsistent (uploaded %v)", i, res.ResidualData[i], v)
		}
	}
	// The caps must actually bind relative to the uncapped run.
	uncapped := paperInstance(t, 80, 13, radio.Paper2013(), 5, 1)
	free, err := Run(uncapped, &Sequential{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data >= free.Data {
		t.Errorf("caps did not bind: %v vs %v", res.Data, free.Data)
	}
}

// Registration contention (internal/mac) degrades throughput gracefully:
// more backoff slots recover more of the ideal-registration throughput.
func TestRegistrationContention(t *testing.T) {
	inst := paperInstance(t, 150, 14, radio.Paper2013(), 5, 1)
	ideal, err := Run(inst, &Appro{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, w := range []int{2, 8, 64} {
		res, err := RunOpts(inst, &Appro{}, Options{AckWindow: w, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Validate(res.Alloc); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Data > ideal.Data+1e-6 {
			t.Fatalf("w=%d: contention cannot beat ideal (%v vs %v)", w, res.Data, ideal.Data)
		}
		if res.Data < prev*0.9 {
			t.Fatalf("w=%d: throughput %v fell far below smaller window %v", w, res.Data, prev)
		}
		prev = res.Data
	}
	// A wide window recovers nearly the ideal throughput.
	wide, err := RunOpts(inst, &Appro{}, Options{AckWindow: 256, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Data < ideal.Data*0.95 {
		t.Errorf("wide window recovers only %v of ideal %v", wide.Data, ideal.Data)
	}
	// Determinism per seed.
	again, err := RunOpts(inst, &Appro{}, Options{AckWindow: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res8, err := RunOpts(inst, &Appro{}, Options{AckWindow: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if again.Data != res8.Data {
		t.Error("contention runs must be deterministic per seed")
	}
}

// copiesMaxMatch is the paper's literal G′ construction for
// Online_MaxMatch, the reference MaxMatch's capacitated graph is checked
// against: n′_i identical copies of each registered sensor, each a
// unit-capacity left node.
type copiesMaxMatch struct{}

func (copiesMaxMatch) Name() string { return "Online_MaxMatch_Copies" }

func (copiesMaxMatch) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pFixed, ok := inst.FixedTxPower()
	if !ok {
		return nil, errors.New("MaxMatch scheduler requires a fixed transmission power instance")
	}
	perSlot := pFixed * inst.Tau
	copies := make([]int, len(regs))
	nL := 0
	for k, r := range regs {
		copies[k] = max(0, min(int(math.Floor(r.Budget/perSlot+1e-9)), r.ClipEnd-r.ClipStart+1, inst.Gamma))
		nL += copies[k]
	}
	g, err := matching.NewGraph(nL, iv.End-iv.Start+1)
	if err != nil {
		return nil, err
	}
	var copySensor []int // left node → sensor
	for k, r := range regs {
		for range copies[k] {
			l := len(copySensor)
			copySensor = append(copySensor, r.Sensor)
			for j := r.ClipStart; j <= r.ClipEnd; j++ {
				if rate := inst.Sensors[r.Sensor].RateAt(j); rate > 0 {
					if err := g.AddEdge(l, j-iv.Start, rate*inst.Tau); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	assign := make(map[int]int)
	for r, l := range g.MaxWeight().RightMatch {
		if l >= 0 {
			assign[r+iv.Start] = copySensor[l]
		}
	}
	return assign, nil
}

// The paper's literal sensor copies and the capacity-aware graph must
// collect identical throughput on live tours.
func TestMaxMatchBackendsAgree(t *testing.T) {
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	for seed := int64(30); seed < 33; seed++ {
		inst := paperInstance(t, 100, seed, fp, 5, 1)
		flow, err := Run(inst, &MaxMatch{})
		if err != nil {
			t.Fatal(err)
		}
		copies, err := Run(inst, copiesMaxMatch{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(flow.Data-copies.Data) > 1e-6 {
			t.Fatalf("seed %d: capacities %v != copies %v", seed, flow.Data, copies.Data)
		}
	}
}

// TestLedgerResidualDuringCommit reads residuals from another goroutine
// while a driver commits a tour, as a wire session handshake does: the
// ledger's lock must order the reads against the debits (run it with
// -race), and the tour must end with Run's residuals.
func TestLedgerResidualDuringCommit(t *testing.T) {
	inst := paperInstance(t, 60, 41, radio.Paper2013(), 5, 1)
	want, err := Run(inst, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	res := NewResult(inst)
	led, err := NewLedger(inst, res, &Greedy{}, nil, Fallback{})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Plan{}, len(inst.Sensors), inst.T)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(led, newMemory(inst, res, inj, Options{}), 0)
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range inst.Sensors {
				if e, _ := led.Residual(i); e < 0 || e > inst.Sensors[i].Budget {
					t.Errorf("sensor %d residual %v outside [0, %v] mid-tour", i, e, inst.Sensors[i].Budget)
					return
				}
			}
		}
	}()
	for j := 0; j < res.Intervals; j++ {
		if err := d.Interval(context.Background(), j); err != nil {
			close(stop)
			<-read
			t.Fatal(err)
		}
	}
	close(stop)
	<-read
	for i := range want.Residual {
		if e, data := led.Residual(i); e != want.Residual[i] || data != want.ResidualData[i] {
			t.Fatalf("sensor %d residuals (%v, %v), Run ends at (%v, %v)", i, e, data, want.Residual[i], want.ResidualData[i])
		}
	}
}
