package solve

import "mobisink/internal/metrics"

// Batch instrumentation on the process-wide registry: an allocserver
// sharing metrics.Default exposes these on /metrics.
var (
	batchSize = metrics.Default().Histogram("solve_batch_size",
		"Instances per Batch call.", metrics.ExpBuckets(1, 2, 12))
	stealTotal = metrics.Default().Counter("solve_steal_total",
		"Batch tasks a work-stealing worker claimed from another worker's chunk.")
)

// ObserveBatchSize records the size of an externally assembled batch
// (the HTTP batch endpoint fans requests through its job queue rather
// than Batch).
func ObserveBatchSize(n int) { batchSize.Observe(float64(n)) }
