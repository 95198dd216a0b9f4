// Package parallel provides the bounded fork-join primitive used by the
// experiment harness and the batch solver: run n independent
// index-addressed tasks on a fixed worker budget, collect every error,
// and keep results deterministic by writing into caller-owned,
// index-addressed storage. It also holds the counting semaphore of the
// job queue's worker pool.
package parallel

import "runtime"

// Sem is a counting semaphore bounding concurrent work: the
// channel-of-tokens idiom, exported so bounded pools (notably
// internal/jobs' worker pool) share one implementation instead of
// re-deriving it.
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
