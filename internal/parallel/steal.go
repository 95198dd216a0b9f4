package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// StealStats reports how a ForEachStealing run balanced itself: Tasks is
// the number of tasks executed, Steals how many of them a worker claimed
// from another worker's chunk after draining its own.
type StealStats struct {
	Tasks  int64
	Steals int64
}

// chunk is one worker's contiguous task range [next, limit). The cursor is
// claimed with CAS so idle workers can steal from the tail without
// coordination; padding keeps neighboring cursors off one cache line.
type chunk struct {
	next  atomic.Int64
	limit int64
	_     [48]byte
}

func (c *chunk) claim() int64 {
	for {
		v := c.next.Load()
		if v >= c.limit {
			return -1
		}
		if c.next.CompareAndSwap(v, v+1) {
			return v
		}
	}
}

// ForEachStealing runs fn(i) for every i in [0, n) on a work-stealing pool
// of `workers` goroutines (GOMAXPROCS when workers ≤ 0), so at most
// `workers` tasks run at once: the index range is split into per-worker
// contiguous chunks, each worker drains its own chunk first, then claims
// from other workers' chunks. That keeps long-running tasks from
// serializing behind a static partition, at the cost of nondeterministic
// execution order — fn must write its result into caller-owned storage
// at index i. All tasks run even if some fail; the returned error joins
// every task error in index order, and a panicking task is reported as
// its error.
func ForEachStealing(n, workers int, fn func(i int) error) (StealStats, error) {
	if n < 0 {
		return StealStats{}, fmt.Errorf("parallel: negative task count %d", n)
	}
	if fn == nil {
		return StealStats{}, errors.New("parallel: nil task function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return StealStats{}, nil
	}
	chunks := make([]chunk, workers)
	for w := 0; w < workers; w++ {
		chunks[w].next.Store(int64(w * n / workers))
		chunks[w].limit = int64((w + 1) * n / workers)
	}
	errs := make([]error, n)
	run := func(i int64) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, r)
			}
		}()
		errs[i] = fn(int(i))
	}
	var steals atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := chunks[w].claim()
				if i < 0 {
					break
				}
				run(i)
			}
			// Own chunk drained: steal from the others round-robin.
			for off := 1; off < workers; off++ {
				victim := &chunks[(w+off)%workers]
				for {
					i := victim.claim()
					if i < 0 {
						break
					}
					steals.Add(1)
					run(i)
				}
			}
		}(w)
	}
	wg.Wait()
	var nonNil []error
	for _, err := range errs {
		if err != nil {
			nonNil = append(nonNil, err)
		}
	}
	return StealStats{Tasks: int64(n), Steals: steals.Load()}, errors.Join(nonNil...)
}
