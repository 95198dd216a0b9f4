package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachStealingRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	stats, err := ForEachStealing(n, 8, func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if stats.Tasks != n {
		t.Fatalf("stats.Tasks = %d, want %d", stats.Tasks, n)
	}
	if stats.Steals < 0 || stats.Steals > n {
		t.Fatalf("stats.Steals = %d out of range", stats.Steals)
	}
}

// TestForEachRunsAll: a task count that does not divide evenly by the
// workers still runs every task exactly once.
func TestForEachRunsAll(t *testing.T) {
	const n = 100
	var hits [n]int32
	_, err := ForEachStealing(n, 7, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestForEachCollectsErrors(t *testing.T) {
	wantA := errors.New("a")
	_, err := ForEachStealing(5, 2, func(i int) error {
		if i == 1 {
			return wantA
		}
		if i == 3 {
			return fmt.Errorf("b%d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined error")
	}
	if !errors.Is(err, wantA) {
		t.Error("joined error lost identity")
	}
	if !strings.Contains(err.Error(), "b3") {
		t.Error("second error missing")
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	_, err := ForEachStealing(4, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not reported: %v", err)
	}
}

// TestForEachStealingBoundsConcurrency: at most `workers` tasks run at
// once.
func TestForEachStealingBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	_, err := ForEachStealing(50, 3, func(i int) error {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent tasks, limit 3", p)
	}
}

func TestForEachStealingValidation(t *testing.T) {
	if _, err := ForEachStealing(-1, 1, func(int) error { return nil }); err == nil {
		t.Error("expected negative-count error")
	}
	if _, err := ForEachStealing(3, 1, nil); err == nil {
		t.Error("expected nil-fn error")
	}
	if _, err := ForEachStealing(0, 1, func(int) error { return errors.New("x") }); err != nil {
		t.Error("zero tasks must succeed")
	}
}

func TestForEachStealingSmallAndEmpty(t *testing.T) {
	if stats, err := ForEachStealing(0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil || stats.Tasks != 0 {
		t.Fatalf("n=0: stats=%+v err=%v", stats, err)
	}
	ran := false
	if _, err := ForEachStealing(1, 0, func(i int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("n=1 workers=0: ran=%v err=%v", ran, err)
	}
}

// TestForEachStealingStealsUnderSkew gives the first worker's chunk all
// the slow tasks; the other workers must steal from it.
func TestForEachStealingStealsUnderSkew(t *testing.T) {
	const n, workers = 64, 4
	var ran atomic.Int32
	stats, err := ForEachStealing(n, workers, func(i int) error {
		if i < n/workers {
			time.Sleep(2 * time.Millisecond) // first chunk is slow
		}
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	if stats.Steals == 0 {
		t.Fatal("no steals under a maximally skewed chunk")
	}
}

func TestForEachStealingJoinsErrorsInIndexOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := ForEachStealing(10, 3, func(i int) error {
		switch i {
		case 2:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error %v missing a task error", err)
	}
	if err.Error() != "a\nb" {
		t.Fatalf("joined error %q, want the task errors in index order", err)
	}
}

func TestForEachStealingRecoversPanic(t *testing.T) {
	var ran atomic.Int32
	_, err := ForEachStealing(20, 4, func(i int) error {
		if i == 5 {
			panic(fmt.Sprintf("task %d exploded", i))
		}
		ran.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 5 panicked") {
		t.Fatalf("panic not reported as task 5's error: %v", err)
	}
	if ran.Load() != 19 {
		t.Fatalf("panic stopped siblings: only %d of 19 clean tasks ran", ran.Load())
	}
}
