package srv

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"mobisink/internal/metrics"
)

// This file hardens the serving path against misbehaving solvers and
// overload, in layers (outermost first):
//
//   - recoverMW: a handler panic becomes a 500 and a metric, never a
//     dropped connection or a dead worker;
//   - load shedding: when the job queue saturates, new allocations are
//     transparently degraded to the cheap greedy solver as they are
//     admitted (cached under the degraded algorithm's own key, so
//     primary results are never poisoned);
//   - circuit breaker: consecutive server-side solver failures open the
//     circuit and fail fast with 503 until a cooldown probe succeeds;
//   - retry with backoff: transient server-side failures (including
//     recovered solver panics) are retried before counting against the
//     breaker;
//   - runSafe: a panicking solver is captured as an error at the
//     invocation boundary, so one poisoned request cannot take down the
//     shared worker pool.

// Breaker states, exported via the srv_breaker_state gauge.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is a consecutive-failure circuit breaker. Closed passes
// everything; threshold consecutive failures open it; after cooldown one
// half-open probe is admitted — success closes the circuit, failure
// re-opens it for another cooldown.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test hook

	state    int
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	opens *metrics.Counter
}

func newBreaker(threshold int, cooldown time.Duration, opens *metrics.Counter) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, opens: opens}
}

// Allow reports whether a request may invoke the solver right now.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe only
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a healthy solver invocation.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a server-side solver failure.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		if b.state != breakerOpen {
			b.opens.Inc()
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
	}
}

// Neutral records an invocation that says nothing about solver health
// (client error, caller cancellation): a half-open probe slot is returned
// without moving the state.
func (b *breaker) Neutral() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Open reports whether the circuit is currently failing fast.
func (b *breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedAt) < b.cooldown
}

func (b *breaker) stateValue() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.state)
}

// resilienceMetrics is the hardening layer's instrumentation.
type resilienceMetrics struct {
	panics       *metrics.Counter
	solverPanics *metrics.Counter
	retries      *metrics.Counter
	breakerOpens *metrics.Counter
	shed         *metrics.Counter
}

func newResilienceMetrics(r *metrics.Registry) *resilienceMetrics {
	return &resilienceMetrics{
		panics: r.Counter("srv_panics_recovered_total",
			"HTTP handler panics recovered into 500 responses."),
		solverPanics: r.Counter("srv_solver_panics_total",
			"Solver invocations that panicked and were captured as errors."),
		retries: r.Counter("srv_solver_retries_total",
			"Solver invocations retried after a transient failure."),
		breakerOpens: r.Counter("srv_breaker_open_total",
			"Circuit breaker transitions into the open state."),
		shed: r.Counter("srv_load_shed_total",
			"Allocations degraded to the greedy solver under queue saturation."),
	}
}

// recoverMW converts a handler panic into a 500 instead of killing the
// connection (net/http would otherwise log and drop it); the response
// write is best-effort — if the handler already streamed a body, the
// client sees a truncated response either way.
func (s *Server) recoverMW(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.rm.panics.Inc()
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h(w, r)
	}
}

// shouldShed reports whether the job queue is saturated enough to degrade
// new allocations (waiting jobs ≥ ShedFraction × capacity).
func (s *Server) shouldShed() bool {
	if s.cfg.ShedFraction >= 1 {
		return false
	}
	return float64(s.queue.Stats().Queued) >= s.cfg.ShedFraction*float64(s.queue.Depth())
}

// admit makes the load-shedding decision for a request the handler is
// about to serve or enqueue, and reports whether it degraded it: under
// queue saturation, as the queue stands before the request joins it, the
// request's algorithm becomes its cheap fallback. The decision is made
// once, here: a job runs with the algorithm it was admitted with,
// however the queue behind it fills by the time a worker starts it. The
// caller counts the shed once the request is admitted.
func (s *Server) admit(req *Request) bool {
	if !s.shouldShed() {
		return false
	}
	cheap := degradedAlgorithm(req.Algorithm, req.DataCaps != nil)
	if cheap == "" {
		return false
	}
	req.Algorithm = cheap
	return true
}

// degradedAlgorithm maps an algorithm to its cheap fallback under load:
// the greedy scheduler of the same family, or the sequential one when the
// request carries data caps (greedy cannot honor them). Returns "" when
// the request is already as cheap as it gets.
func degradedAlgorithm(alg string, capped bool) string {
	a := strings.ToLower(alg)
	if a == "" {
		a = "offline_appro"
	}
	family := "offline"
	if strings.HasPrefix(a, "online") {
		family = "online"
	}
	cheap := family + "_greedy"
	if capped {
		cheap = family + "_sequential"
	}
	if a == cheap {
		return ""
	}
	return cheap
}

// errSolverPanic marks a captured solver panic (always server-side,
// always retryable — the next attempt may hit a healthy code path or the
// cache).
type errSolverPanic struct{ v any }

func (e *errSolverPanic) Error() string { return fmt.Sprintf("solver panicked: %v", e.v) }

// runSafe invokes the solver with panic capture, so one poisoned request
// degrades to an error instead of unwinding the worker goroutine.
func (s *Server) runSafe(ctx context.Context, req *Request) (resp *Response, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.rm.solverPanics.Inc()
			resp, err = nil, &errSolverPanic{rec}
		}
	}()
	return s.run(ctx, req)
}

// serverSide reports whether the error indicts the solver (and should
// trip retries and the breaker) rather than the request or the caller.
func serverSide(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.code >= 500
	}
	return true
}

// invoke is the hardened solver call: breaker check, then bounded
// retry-with-backoff around the panic-capturing runner. Client errors and
// cancellations pass through untouched and leave the breaker alone.
func (s *Server) invoke(ctx context.Context, req *Request) (*Response, error) {
	if !s.br.Allow() {
		return nil, &httpError{http.StatusServiceUnavailable, "circuit breaker open, retry later"}
	}
	var err error
	for attempt := 0; ; attempt++ {
		var resp *Response
		resp, err = s.runSafe(ctx, req)
		if err == nil {
			s.br.Success()
			return resp, nil
		}
		if !serverSide(err) {
			s.br.Neutral()
			return nil, err
		}
		if attempt >= s.cfg.RetryAttempts {
			break
		}
		s.rm.retries.Inc()
		backoff := s.cfg.RetryBackoff << attempt
		select {
		case <-ctx.Done():
			s.br.Neutral()
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
	}
	s.br.Failure()
	var ep *errSolverPanic
	if errors.As(err, &ep) {
		// A panic must surface as a plain 500, not leak internals upward.
		return nil, fmt.Errorf("srv: %w", err)
	}
	return nil, err
}
