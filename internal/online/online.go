// Package online implements the paper's distributed data-collection
// framework (Algorithm 2) and its two per-interval time-slot schedulers:
//
//   - Appro  — the GAP-based scheduler of §V.B (Online_Appro),
//   - MaxMatch — the matching-based scheduler of §VI for the fixed
//     transmission power special case (Online_MaxMatch),
//
// plus a density-greedy scheduler as a baseline.
//
// Per tour the sink divides the T slots into intervals of Γ = ⌊R/(r_s·τ)⌋
// slots. At each interval start it broadcasts a Probe; sensors currently in
// range reply with an Ack carrying their profile (position, residual
// budget, window); when the registration timer expires the sink runs the
// scheduler over the interval's slots and the registered sensors only,
// broadcasts the Schedule, collects data, then broadcasts Finish, at which
// point the registered sensors debit their energy budgets. The sink never
// learns about sensors it has not probed — that locality is the only
// difference from the offline algorithms, and Lemma 1 guarantees every
// sensor is probed in at most two consecutive intervals.
package online

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/gap"
	"mobisink/internal/knapsack"
	"mobisink/internal/matching"
)

// Registration is the sensor profile carried by an Ack message, as visible
// to the sink in one interval.
type Registration struct {
	Sensor int     // sensor index
	Budget float64 // residual energy at registration time, J
	// DataLeft is the residual sensed data still queued at the sensor,
	// bits; +Inf on instances without data caps.
	DataLeft float64
	// ClipStart/ClipEnd is [i'_s, i'_e] = A(v) ∩ interval, inclusive;
	// ClipStart > ClipEnd when the overlap is empty.
	ClipStart, ClipEnd int
}

// Interval describes one probe interval.
type Interval struct {
	Index      int // j
	Start, End int // inclusive slot range [a_j, b_j]
}

// Scheduler allocates one interval's slots among the registered sensors.
// Implementations must respect each registration's residual budget and
// clipped window, and should poll ctx inside long computations so a
// canceled tour aborts mid-interval. The returned map is
// slot → sensor index.
type Scheduler interface {
	Name() string
	Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error)
}

// MessageStats counts protocol messages per tour.
type MessageStats struct {
	Probes    int // broadcast probes (one per interval, the paper's exchange)
	Acks      int // sensor acknowledgements
	Schedules int // broadcast scheduling results
	Finishes  int // broadcast finish messages
	// Retransmits counts the extra Probe broadcasts of the recovery
	// protocol's registration rounds beyond the paper's single exchange
	// (always 0 on fault-free runs).
	Retransmits int
	// RepairUnicasts counts the unicast schedule-repair messages that
	// reassign a silent sensor's slot to a replacement (always 0 on
	// fault-free runs).
	RepairUnicasts int
}

// Total returns all messages sent per tour, including the recovery
// traffic (retransmitted probes and repair unicasts).
func (m MessageStats) Total() int {
	return m.Probes + m.Acks + m.Schedules + m.Finishes + m.Retransmits + m.RepairUnicasts
}

// Result is the outcome of one simulated tour.
type Result struct {
	Alloc     *core.Allocation
	Data      float64 // bits collected
	Messages  MessageStats
	Intervals int
	// RegisteredIn[i] lists the interval indices in which sensor i
	// registered (for the Lemma 1 check).
	RegisteredIn [][]int
	// Residual[i] is sensor i's remaining budget after the tour in the
	// sink's books, which only Ledger.Commit and the journal replay
	// write. A sensor writes off its own harvest shortfall, so the books
	// stay above its own residual by that shortfall: a lower claim bounds
	// the interval's plan but never reaches the books.
	Residual []float64
	// ResidualData[i] is sensor i's remaining queued data after the tour
	// in the sink's books, bits (+Inf entries on uncapped instances).
	ResidualData []float64
	// Fault tallies the injected faults and performed recoveries when the
	// run used a fault plan (Options.Faults or ComputeDeadline); nil on
	// fault-free runs.
	Fault *fault.Stats
}

// NewResult builds the empty tour ledger for an instance: a fresh
// allocation, full energy budgets, and full data caps. Both the
// simulated runner and the wire transport's sink start from it, so
// their ledgers agree bit-for-bit before the first interval.
func NewResult(inst *core.Instance) *Result {
	res := &Result{
		Alloc:        inst.NewAllocation(),
		RegisteredIn: make([][]int, len(inst.Sensors)),
		Residual:     make([]float64, len(inst.Sensors)),
		ResidualData: make([]float64, len(inst.Sensors)),
	}
	for i := range inst.Sensors {
		res.Residual[i] = inst.Sensors[i].Budget
		res.ResidualData[i] = inst.DataCapOf(i)
	}
	return res
}

// CheckLemma1 verifies each sensor registered in at most two consecutive
// intervals (paper Lemma 1).
func (r *Result) CheckLemma1() error {
	for i, ivs := range r.RegisteredIn {
		if len(ivs) > 2 {
			return fmt.Errorf("online: sensor %d registered in %d intervals %v", i, len(ivs), ivs)
		}
		if len(ivs) == 2 && ivs[1] != ivs[0]+1 {
			return fmt.Errorf("online: sensor %d registered in non-consecutive intervals %v", i, ivs)
		}
	}
	return nil
}

// Options tunes protocol realism beyond the paper's idealized assumptions.
type Options struct {
	// AckWindow, when positive, simulates CSMA contention during the
	// registration phase with that many backoff slots per interval
	// (internal/mac); sensors whose Ack collides miss the interval. The
	// paper assumes AckWindow = 0, i.e. collision-free registration.
	AckWindow int
	// Seed drives the contention randomness; runs are deterministic per
	// seed.
	Seed int64
	// Faults, when non-nil and non-zero, injects the fault plan into the
	// tour (message drops, crashes, harvest shortfalls, compute stalls —
	// see internal/fault) and enables the recovery protocol: bounded
	// Probe/Ack retransmission, schedule repair, budget feasibility
	// guards, and degraded-mode fallback. Nil (or a zero plan) keeps the
	// paper's lossless channel and the byte-identical fault-free path.
	Faults *fault.Plan
	// ComputeDeadline, when positive, bounds each interval's scheduler
	// wall-clock time; an interval whose scheduler overruns it falls back
	// to the degraded scheduler (wall-clock dependent, so off by default;
	// deterministic stalls are injected via Faults.StallProb instead).
	ComputeDeadline time.Duration
}

// Run simulates one tour of the online protocol over the instance using the
// given scheduler, under the paper's idealized registration (no Ack
// contention).
func Run(inst *core.Instance, sched Scheduler) (*Result, error) {
	return RunCtx(context.Background(), inst, sched, Options{})
}

// RunOpts is Run with protocol options.
func RunOpts(inst *core.Instance, sched Scheduler, opts Options) (*Result, error) {
	return RunCtx(context.Background(), inst, sched, opts)
}

// RunCtx is RunOpts with cancellation: the context is polled at every
// interval boundary and threaded into the scheduler, so a canceled job
// stops between (or inside) intervals instead of finishing the tour.
func RunCtx(ctx context.Context, inst *core.Instance, sched Scheduler, opts Options) (*Result, error) {
	// The injector reads the instance, so the checks come first.
	if err := checkTour(inst, sched); err != nil {
		return nil, err
	}
	// The recovering ledger is used only when something can actually
	// fire, so a fault-free run commits exactly the paper's protocol.
	var plan fault.Plan
	var fb *Fallback
	if (opts.Faults != nil && !opts.Faults.Zero()) || opts.ComputeDeadline > 0 {
		if opts.Faults != nil {
			plan = *opts.Faults
		}
		plan.Seed = cmp.Or(plan.Seed, opts.Seed) // one seed reproduces the whole run
		fb = &Fallback{Deadline: opts.ComputeDeadline}
	}
	inj, err := fault.NewInjector(plan, len(inst.Sensors), inst.T)
	if err != nil {
		return nil, err
	}
	if fb != nil {
		fb.Stalls = inj
	}
	d, err := newTour(inst, sched, fb, inj.MaxRetries(), nil, nil, func(res *Result) Transport {
		return newMemory(inst, res, inj, opts)
	})
	if err != nil {
		return nil, err
	}
	return d.Run(ctx, 0)
}

// Appro is the GAP-based scheduler (Online_Appro): within the interval it
// runs the same local-ratio algorithm as the offline solution, restricted
// to the registered sensors and the interval's Γ slots.
type Appro struct {
	Opts core.Options
}

// Name implements Scheduler.
func (a *Appro) Name() string { return "Online_Appro" }

// Schedule implements Scheduler.
func (a *Appro) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	ws := gap.GetWorkspace()
	defer ws.Release()
	// Bins in the offline ordering rule, over the clipped windows.
	order := claimOrder(regs, ws.Order(len(regs)))
	quantum, eps := a.Opts.Oracle(inst)
	c, err := compile(ws.Builder(), inst, iv, regs, order, quantum, eps)
	if err != nil {
		return nil, err
	}
	itemBin := ws.ItemBin(c.NumItems)
	if err := c.SolveInto(ctx, ws.Scratch(), itemBin); err != nil {
		return nil, err
	}
	return plan(iv, regs, order, itemBin), nil
}

// compile writes the interval's GAP into b: one bin per claim, in order,
// with the claimed budget as its capacity; one item per slot of the
// interval, each usable slot of the clipped window an entry, listed by
// one Builder.Run per part of a link run the clip covers.
func compile(b *gap.Builder, inst *core.Instance, iv Interval, regs []Registration, order []int, quantum, eps float64) (*gap.Compiled, error) {
	b.Reset(iv.End-iv.Start+1, nil, quantum, eps)
	for _, k := range order {
		r := &regs[k]
		s := &inst.Sensors[r.Sensor]
		b.Bin(r.Budget)
		clip(b, r, iv, s.Runs, inst.Tau)
		for wi := range s.More {
			clip(b, r, iv, s.More[wi].Runs, inst.Tau)
		}
	}
	return b.Compiled()
}

// clip lists in b's open bin the slots of one window's link runs that the
// claim's clip covers.
func clip(b *gap.Builder, r *Registration, iv Interval, runs []core.LinkRun, tau float64) {
	for _, run := range runs {
		if run.Start > r.ClipEnd {
			return
		}
		if lo, hi := max(r.ClipStart, run.Start), min(r.ClipEnd, run.End); lo <= hi {
			b.Run(lo-iv.Start, hi-lo+1, run.Rate*tau, run.Power*tau)
		}
	}
}

// plan maps a pass's item → bin result, bin b being claim order[b], to
// the interval's slot → sensor plan, sized to the assigned slots.
func plan(iv Interval, regs []Registration, order []int, itemBin []int32) map[int]int {
	n := 0
	for _, b := range itemBin {
		if b >= 0 {
			n++
		}
	}
	assign := make(map[int]int, n)
	for item, b := range itemBin {
		if b >= 0 {
			assign[item+iv.Start] = regs[order[b]].Sensor
		}
	}
	return assign
}

// claimOrder fills order with the claims' indices in Algorithm 1's line-1
// order, over the clipped windows: by start slot, then end slot, then
// sensor.
func claimOrder(regs []Registration, order []int) []int {
	order = order[:0]
	for k := range regs {
		order = append(order, k)
	}
	slices.SortFunc(order, func(x, y int) int {
		rx, ry := &regs[x], &regs[y]
		return cmp.Or(cmp.Compare(rx.ClipStart, ry.ClipStart), cmp.Compare(rx.ClipEnd, ry.ClipEnd), cmp.Compare(rx.Sensor, ry.Sensor))
	})
	return order
}

// MaxMatch is the matching-based scheduler for the fixed-power special case
// (Online_MaxMatch): per interval, a maximum-weight matching between
// registered sensors (with capacity n'_i = min(Γ, |[i'_s, i'_e]|,
// ⌊P(v_i)/(P'·τ)⌋), the quotient counted by knapsack.FitCount as the
// ledger sums spend) and the interval's slots, solved as a capacity-aware
// min-cost flow rather than over the paper's n'_i sensor copies.
type MaxMatch struct{}

// Name implements Scheduler.
func (m *MaxMatch) Name() string { return "Online_MaxMatch" }

// Schedule implements Scheduler.
func (m *MaxMatch) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	pFixed, ok := inst.FixedTxPower()
	if !ok {
		return nil, errors.New("MaxMatch scheduler requires a fixed transmission power instance")
	}
	perSlot := pFixed * inst.Tau
	g, err := matching.NewGraph(len(regs), iv.End-iv.Start+1)
	if err != nil {
		return nil, err
	}
	for k, r := range regs {
		s := &inst.Sensors[r.Sensor]
		nCopies := knapsack.FitCount(perSlot, r.Budget, min(r.ClipEnd-r.ClipStart+1, inst.Gamma))
		if err := g.SetLeftCap(k, nCopies); err != nil {
			return nil, err
		}
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if rate := s.RateAt(j); rate > 0 {
				if err := g.AddEdge(k, j-iv.Start, rate*inst.Tau); err != nil {
					return nil, err
				}
			}
		}
	}
	match, err := g.MaxWeightCtx(ctx)
	if err != nil {
		return nil, err
	}
	assign := make(map[int]int)
	for rSlot, k := range match.RightMatch {
		if k >= 0 {
			assign[rSlot+iv.Start] = regs[k].Sensor
		}
	}
	return assign, nil
}

// Greedy is a per-interval density-greedy scheduler baseline.
type Greedy struct{}

// Name implements Scheduler.
func (g *Greedy) Name() string { return "Online_Greedy" }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ws := gap.GetWorkspace()
	defer ws.Release()
	// One bin per claim, in the claims' own order.
	order := ws.Order(len(regs))
	for k := range order {
		order[k] = k
	}
	c, err := compile(ws.Builder(), inst, iv, regs, order, 0, 0)
	if err != nil {
		return nil, err
	}
	itemBin := ws.ItemBin(c.NumItems)
	if err := c.Greedy(ws.Scratch(), itemBin); err != nil {
		return nil, err
	}
	return plan(iv, regs, order, itemBin), nil
}
