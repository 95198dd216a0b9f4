package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	const n = 100
	var hits [n]int32
	err := ForEach(n, 7, func(i int) error {
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

func TestForEachBoundsConcurrency(t *testing.T) {
	var cur, max int32
	err := ForEach(50, 3, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
				break
			}
		}
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > 3 {
		t.Fatalf("observed %d concurrent tasks, limit 3", max)
	}
}

func TestForEachCollectsErrors(t *testing.T) {
	wantA := errors.New("a")
	err := ForEach(5, 2, func(i int) error {
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
	err := ForEach(4, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not reported: %v", err)
	}
}

func TestForEachValidation(t *testing.T) {
	if err := ForEach(-1, 1, func(int) error { return nil }); err == nil {
		t.Error("expected negative-count error")
	}
	if err := ForEach(3, 1, nil); err == nil {
		t.Error("expected nil-fn error")
	}
	if err := ForEach(0, 1, func(int) error { return errors.New("x") }); err != nil {
		t.Error("zero tasks must succeed")
	}
}
