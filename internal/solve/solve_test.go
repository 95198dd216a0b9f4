package solve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
)

func paperInstance(tb testing.TB, n int, seed int64, speed, tau float64) *core.Instance {
	tb.Helper()
	d, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, 10000/speed, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	inst, err := core.BuildInstance(d, radio.Paper2013(), speed, tau)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func fixedPowerInstance(tb testing.TB, n int, seed int64, speed, tau float64) *core.Instance {
	tb.Helper()
	d, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, 10000/speed, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	model, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := core.BuildInstance(d, model, speed, tau)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestRegistryNames(t *testing.T) {
	want := []string{
		"Offline_Appro", "Offline_Greedy", "Offline_MaxMatch", "Offline_Sequential", "Offline_WaterFill",
		"Online_Appro", "Online_Greedy", "Online_MaxMatch", "Online_Sequential",
	}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestNewCaseInsensitive(t *testing.T) {
	for _, name := range []string{"Offline_Appro", "offline_appro", "OFFLINE_APPRO"} {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != "Offline_Appro" {
			t.Fatalf("New(%q).Name() = %q, want canonical Offline_Appro", name, s.Name())
		}
	}
}

func TestNewUnknown(t *testing.T) {
	_, err := New("offline_magic", Options{})
	if err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if !strings.Contains(err.Error(), "offline_magic") {
		t.Fatalf("error %q does not name the unknown algorithm", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register("OFFLINE_APPRO", func(Options) Solver { return nil })
}

// TestAllSolversRun exercises every registered solver end to end on a
// small instance and validates the allocations.
func TestAllSolversRun(t *testing.T) {
	inst := fixedPowerInstance(t, 40, 3, 5, 1)
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := inst.Validate(alloc); err != nil {
			t.Fatalf("%s produced infeasible allocation: %v", name, err)
		}
		if alloc.Data <= 0 {
			t.Fatalf("%s collected no data", name)
		}
	}
}

// TestSolveCanceledUpfront: an already-canceled context fails every solver
// without producing an allocation.
func TestSolveCanceledUpfront(t *testing.T) {
	inst := fixedPowerInstance(t, 30, 4, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx, inst); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", name, err)
		}
	}
}

// pollCtx is a context that counts its Err polls and, from poll
// cancelAt on (0: never), reports context.Canceled. It records which
// polls the GAP engine's pass (the function named pass) made, from their
// call stacks.
type pollCtx struct {
	context.Context
	pass            string
	cancelAt, polls int
	inPass          []int
}

func (c *pollCtx) Err() error {
	c.polls++
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if strings.HasSuffix(f.Function, c.pass) {
			c.inPass = append(c.inPass, c.polls)
			break
		}
	}
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestSolveCancelsMidSweep proves cancellation aborts real work on the
// production engine: a context canceled at a poll halfway through the
// GAP passes of an uncanceled run — the local-ratio sweeps of
// Offline_Appro and Online_Appro, the sequential passes of
// Offline_Sequential and Online_Sequential — must stop the solver with
// context.Canceled, polling at most once more.
func TestSolveCancelsMidSweep(t *testing.T) {
	inst := paperInstance(t, 60, 5, 5, 1)
	for _, tc := range []struct{ name, pass string }{
		{"Offline_Appro", "gap.(*Compiled).sweep"},
		{"Online_Appro", "gap.(*Compiled).sweep"},
		{"Offline_Sequential", "gap.(*Compiled).Sequential"},
		{"Online_Sequential", "gap.(*Compiled).Sequential"},
	} {
		s, err := New(tc.name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		probe := &pollCtx{Context: context.Background(), pass: tc.pass}
		if _, err := s.Solve(probe, inst); err != nil {
			t.Fatal(err)
		}
		if len(probe.inPass) < 10 {
			t.Fatalf("%s: only %d of %d polls inside the pass", tc.name, len(probe.inPass), probe.polls)
		}
		k := probe.inPass[len(probe.inPass)/2]
		ctx := &pollCtx{Context: context.Background(), pass: tc.pass, cancelAt: k}
		if _, err := s.Solve(ctx, inst); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", tc.name, err)
		}
		if ctx.polls > k+1 {
			t.Fatalf("%s: canceled at poll %d of %d, polled %d times", tc.name, k, probe.polls, ctx.polls)
		}
	}
}

// fleetInstance builds a K-sink joint instance: the paper topology with
// the straight highway split into k contiguous sink segments.
func fleetInstance(tb testing.TB, n int, seed int64, k int, speed, tau float64) *core.Instance {
	tb.Helper()
	d, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, 10000/speed, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	if err := d.SplitSinks(k, nil); err != nil {
		tb.Fatal(err)
	}
	inst, err := core.BuildFleetInstance(d, radio.Paper2013(), speed, tau)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestSolversOnFleetInstance: the offline solvers accept fleet instances
// and produce feasible (conflict-free) allocations; the online protocol
// refuses them.
func TestSolversOnFleetInstance(t *testing.T) {
	inst := fleetInstance(t, 40, 3, 2, 5, 1)
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := s.Solve(context.Background(), inst)
		if strings.HasPrefix(name, "Online_") {
			if err == nil {
				t.Fatalf("%s accepted a fleet instance", name)
			}
			continue
		}
		if name == "Offline_MaxMatch" {
			// The paper-rate model is not fixed-power; MaxMatch refuses.
			if err == nil {
				t.Fatalf("%s accepted a multi-power instance", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := inst.Validate(alloc); err != nil {
			t.Fatalf("%s produced infeasible fleet allocation: %v", name, err)
		}
		if alloc.Data <= 0 {
			t.Fatalf("%s collected no data", name)
		}
	}
}

func benchInstanceSolver(b *testing.B, name string, opts Options, build func(b *testing.B, n int) *core.Instance) {
	for _, n := range []int{50, 100, 200} {
		inst := build(b, n)
		s, err := New(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("N="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSolver(b *testing.B, name string, opts Options) {
	benchInstanceSolver(b, name, opts, func(b *testing.B, n int) *core.Instance {
		return paperInstance(b, n, 42, 5, 1)
	})
}

// benchFleetSolver benches a solver on K-sink joint instances; the K=
// path component becomes the K column of BENCH_solvers.json rows.
func benchFleetSolver(b *testing.B, name string, k int, opts Options) {
	b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
		benchInstanceSolver(b, name, opts, func(b *testing.B, n int) *core.Instance {
			return fleetInstance(b, n, 42, k, 5, 1)
		})
	})
}

// BenchmarkSolvers drives `make bench`: each sub-benchmark is one
// (solver, network size) point of BENCH_solvers.json.
func BenchmarkSolvers(b *testing.B) {
	// Every interval stalled: the degraded row isolates the fallback
	// scheduler plus the fault-path bookkeeping overhead.
	degraded := Options{Online: online.Options{Faults: &fault.Plan{StallProb: 1}}}
	b.Run("Offline_Appro", func(b *testing.B) { benchSolver(b, "Offline_Appro", Options{}) })
	b.Run("Offline_Appro_Fleet", func(b *testing.B) {
		benchFleetSolver(b, "Offline_Appro", 2, Options{})
		benchFleetSolver(b, "Offline_Appro", 4, Options{})
	})
	b.Run("Offline_Greedy", func(b *testing.B) { benchSolver(b, "Offline_Greedy", Options{}) })
	b.Run("Offline_Sequential", func(b *testing.B) { benchSolver(b, "Offline_Sequential", Options{}) })
	b.Run("Offline_WaterFill", func(b *testing.B) { benchSolver(b, "Offline_WaterFill", Options{}) })
	b.Run("Online_Appro", func(b *testing.B) { benchSolver(b, "Online_Appro", Options{}) })
	b.Run("Online_Appro_Degraded", func(b *testing.B) { benchSolver(b, "Online_Appro", degraded) })
}
