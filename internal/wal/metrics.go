package wal

import "mobisink/internal/metrics"

// Journal instrumentation, on the process-wide default registry so
// cmd/sinkd's stats dump and tests share one view.
var (
	recordsWritten = metrics.Default().Counter(
		"wal_records_written_total",
		"Journal records appended and fsynced.")
	recordsReplayed = metrics.Default().Counter(
		"wal_records_replayed_total",
		"Journal records decoded during replay scans.")
)
