package wire

import "mobisink/internal/metrics"

// Wire-transport instrumentation, on the process-wide default registry
// so cmd/sinkd's stats dump and tests share one view. Registration is
// idempotent, so plain var initialization is safe.
var (
	openConns = metrics.Default().Gauge(
		"wire_open_connections",
		"Sensor connections currently open on the sink server.")
	framesSent = metrics.Default().CounterVec(
		"wire_frames_sent_total",
		"Protocol frames written, by message type.", "type")
	framesReceived = metrics.Default().CounterVec(
		"wire_frames_received_total",
		"Protocol frames read and decoded, by message type.", "type")
	framesDropped = metrics.Default().CounterVec(
		"wire_frames_dropped_total",
		"Frames discarded by the chaos proxy, by message type.", "type")
	decodeErrors = metrics.Default().Counter(
		"wire_decode_errors_total",
		"Frames that failed strict decoding.")
	regRoundtrip = metrics.Default().Histogram(
		"wire_registration_roundtrip_seconds",
		"Probe broadcast to registration-window close, per interval.", nil)
	intervalCompute = metrics.Default().Histogram(
		"wire_interval_compute_seconds",
		"Scheduler compute time per interval on the sink server.", nil)
	sessionsResumed = metrics.Default().Counter(
		"wire_sessions_resumed_total",
		"Sensor sessions successfully resumed after a reconnect.")
	reconnects = metrics.Default().Counter(
		"wire_reconnects_total",
		"Sensor client redial attempts that reached a completed handshake.")
	heartbeatTimeouts = metrics.Default().Counter(
		"wire_heartbeat_timeouts_total",
		"Connections dropped after a read deadline expired with no frame.")
	recoverySeconds = metrics.Default().Histogram(
		"wire_recovery_seconds",
		"Journal replay to first-probe latency on sink restart.", nil)
	// broadcastFanout measures the interval loop's stall per broadcast:
	// one encode plus the hand-off to the fan-out worker. Delivery itself
	// proceeds on the conn writers and never blocks the tour.
	broadcastFanout = metrics.Default().Histogram(
		"wire_broadcast_fanout_ns",
		"Interval-loop stall per broadcast frame fan-out, nanoseconds.",
		metrics.ExpBuckets(250, 2, 24))
	// intervalCommitNs spans an interval's full critical path: probe
	// broadcast start to sealed (journaled) commit.
	intervalCommitNs = metrics.Default().Histogram(
		"wire_interval_commit_ns",
		"Probe broadcast to sealed interval commit, nanoseconds.",
		metrics.ExpBuckets(1024, 2, 26))
	connKills = metrics.Default().Counter(
		"wire_conn_backpressure_kills_total",
		"Connections killed because their bounded outbound queue overflowed.")
)

// sentByType / recvByType resolve each message type's counter once at
// init, so the frame hot paths (the per-conn writers, the encode-once
// fan-out) pay a single atomic add per frame instead of rendering the
// label string on every call.
var (
	sentByType [TypeHeartbeat + 1]*metrics.Counter
	recvByType [TypeHeartbeat + 1]*metrics.Counter
)

func init() {
	for t := TypeHello; t <= TypeHeartbeat; t++ {
		sentByType[t] = framesSent.With(t.String())
		recvByType[t] = framesReceived.With(t.String())
	}
}

func countSent(t Type) {
	if int(t) < len(sentByType) && sentByType[t] != nil {
		sentByType[t].Inc()
		return
	}
	framesSent.With(t.String()).Inc()
}

func countReceived(t Type) {
	if int(t) < len(recvByType) && recvByType[t] != nil {
		recvByType[t].Inc()
		return
	}
	framesReceived.With(t.String()).Inc()
}

// LatencyHistograms returns the wire latency histograms by metric name,
// for percentile reporting in cmd/loadgen and cmd/sinkd -stats. Names
// ending in _seconds record seconds; _ns record nanoseconds.
func LatencyHistograms() map[string]*metrics.Histogram {
	return map[string]*metrics.Histogram{
		"wire_registration_roundtrip_seconds": regRoundtrip,
		"wire_interval_compute_seconds":       intervalCompute,
		"wire_broadcast_fanout_ns":            broadcastFanout,
		"wire_interval_commit_ns":             intervalCommitNs,
	}
}
