package solve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/knapsack"
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

// TestSolveCancelsMidSweep proves cancellation aborts real work: a knapsack
// oracle cancels the context on its first invocation, and the local-ratio
// sweep must stop before reaching the remaining bins.
func TestSolveCancelsMidSweep(t *testing.T) {
	inst := paperInstance(t, 60, 5, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	opts := Options{Core: core.Options{
		Knapsack: func(items []knapsack.Item, c float64) knapsack.Solution {
			calls++
			if calls == 1 {
				cancel()
			}
			return knapsack.FPTAS(0.1)(items, c)
		},
	}}
	s, err := New("Offline_Appro", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, inst); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The sweep has one knapsack call per sensor bin; cancellation after
	// the first call must prevent the vast majority of them.
	if calls > 2 {
		t.Fatalf("sweep ran %d knapsacks after cancellation", calls)
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
