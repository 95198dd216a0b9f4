// Package parallel provides the bounded fork-join primitive used by the
// experiment harness: run n independent index-addressed tasks with a fixed
// worker budget, collect every error, and keep results deterministic by
// writing into caller-owned, index-addressed storage.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Sem is a counting semaphore bounding concurrent work. It is the
// channel-of-tokens idiom ForEach has always used, exported so other
// bounded pools (notably internal/jobs' worker pool) share one
// implementation instead of re-deriving it.
type Sem chan struct{}

// NewSem returns a semaphore with n slots (GOMAXPROCS when n ≤ 0).
func NewSem(n int) Sem {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(Sem, n)
}

// Acquire blocks until a slot is free.
func (s Sem) Acquire() { s <- struct{}{} }

// Release frees a slot taken by Acquire.
func (s Sem) Release() { <-s }

// Cap returns the slot count.
func (s Sem) Cap() int { return cap(s) }

// ForEach runs fn(i) for every i in [0, n) using at most `workers`
// concurrent goroutines (GOMAXPROCS when workers ≤ 0). All tasks run even
// if some fail; the returned error joins every task error in index order.
// fn must write its result into caller-owned storage at index i — that
// keeps aggregation deterministic regardless of scheduling.
func ForEach(n, workers int, fn func(i int) error) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative task count %d", n)
	}
	if fn == nil {
		return errors.New("parallel: nil task function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := NewSem(workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem.Acquire()
		go func(i int) {
			defer wg.Done()
			defer sem.Release()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, r)
				}
			}()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	var nonNil []error
	for _, err := range errs {
		if err != nil {
			nonNil = append(nonNil, err)
		}
	}
	return errors.Join(nonNil...)
}
