package solve

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/lagrange"
)

// TestOracleMemoConcurrentFirstRead: an instance derives its knapsack-
// oracle quanta on the first read. Solvers that make that first read at
// the same time on one fresh instance must agree bit for bit with the same
// solvers run one after another on an identical instance.
func TestOracleMemoConcurrentFirstRead(t *testing.T) {
	// Every GAP solver here, offline or one interval of an online tour,
	// draws its builder, scratch and item → bin array from the one pool
	// of gap workspaces, across concurrent solves.
	names := []string{"Offline_Appro", "Online_Appro", "Offline_Sequential", "Online_Sequential", "Online_Greedy", "Offline_Greedy"}
	// Slot owners and data per solver, then the Lagrangian bound.
	type outcome struct {
		owners [][]int
		data   []float64
		bound  float64
	}
	solveAll := func(inst *core.Instance, concurrent bool) outcome {
		out := outcome{owners: make([][]int, len(names)), data: make([]float64, len(names))}
		errs := make([]error, len(names)+1)
		jobs := make([]func(), 0, len(names)+1)
		for i, name := range names {
			jobs = append(jobs, func() {
				s, err := New(name, Options{})
				if err == nil {
					var a *core.Allocation
					if a, err = s.Solve(context.Background(), inst); err == nil {
						out.owners[i], out.data[i] = a.SlotOwner, a.Data
					}
				}
				errs[i] = err
			})
		}
		jobs = append(jobs, func() {
			res, err := lagrange.UpperBound(inst, lagrange.Options{Iterations: 10})
			if err == nil {
				out.bound = res.Bound
			}
			errs[len(names)] = err
		})
		if concurrent {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, job := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					job()
				}()
			}
			close(start)
			wg.Wait()
		} else {
			for _, job := range jobs {
				job()
			}
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for seed := int64(1); seed <= 3; seed++ {
		want := solveAll(paperInstance(t, 60, seed, 5, 1), false)
		got := solveAll(paperInstance(t, 60, seed, 5, 1), true)
		for i, name := range names {
			if !reflect.DeepEqual(got.owners[i], want.owners[i]) {
				t.Errorf("seed %d %s: concurrent slot owners differ from sequential", seed, name)
			}
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Errorf("seed %d %s: concurrent data %v != sequential %v", seed, name, got.data[i], want.data[i])
			}
		}
		if math.Float64bits(got.bound) != math.Float64bits(want.bound) {
			t.Errorf("seed %d lagrange: concurrent bound %v != sequential %v", seed, got.bound, want.bound)
		}
	}
}
