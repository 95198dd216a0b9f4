package srv

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"mobisink/internal/cache"
	"mobisink/internal/jobs"
	"mobisink/internal/metrics"
	"mobisink/internal/solve"
)

// Config sizes the service's concurrency and memory knobs; zero values
// pick the defaults noted on each field.
type Config struct {
	// Workers is the solver pool size shared by the async and batch
	// paths; ≤ 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is the maximum number of jobs waiting for a worker
	// before submissions are rejected with 429; ≤ 0 means 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; ≤ 0 means 256.
	CacheEntries int
	// MaxBodyBytes caps request bodies (413 beyond it); ≤ 0 means 8 MiB.
	MaxBodyBytes int64
	// JobTimeout is the default per-job deadline for the async path;
	// ≤ 0 means no deadline. Individual submissions may set a shorter
	// one via timeout_ms.
	JobTimeout time.Duration
	// Metrics is the registry the server instruments and serves at
	// GET /metrics; nil means a fresh private registry (Server.Metrics
	// returns it either way).
	Metrics *metrics.Registry
	// RetryAttempts is how many times a server-side solver failure
	// (including a captured panic) is retried before counting against the
	// circuit breaker; ≤ 0 means 1.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt; ≤ 0 means 10ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive server-side failure count that
	// opens the circuit breaker (503 until cooldown); ≤ 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe; ≤ 0 means 5s.
	BreakerCooldown time.Duration
	// ShedFraction is the queue-utilization level (waiting jobs over
	// capacity) beyond which new allocations degrade to the greedy
	// solver; ≤ 0 means 0.8, ≥ 1 disables shedding.
	ShedFraction float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ShedFraction <= 0 {
		c.ShedFraction = 0.8
	}
	return c
}

// Server owns the allocation service's long-lived state: the job queue,
// the worker pool, and the result cache. Construct with New, expose over
// HTTP with Mux, and drain with Close on shutdown.
type Server struct {
	cfg   Config
	queue *jobs.Queue
	memo  *cache.Memo[string, *Response]
	reg   *metrics.Registry
	hm    *httpMetrics
	rm    *resilienceMetrics
	br    *breaker
	// run computes one allocation; it defaults to AllocateCtx and exists
	// so tests can observe or stall computations.
	run func(context.Context, *Request) (*Response, error)
}

// New returns a started server (its worker pool is live immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rm := newResilienceMetrics(reg)
	s := &Server{
		cfg:   cfg,
		queue: jobs.New(cfg.Workers, cfg.QueueDepth, jobs.WithMetrics(jobs.NewMetrics(reg))),
		memo:  cache.NewMemo[string, *Response](cfg.CacheEntries),
		reg:   reg,
		hm:    newHTTPMetrics(reg),
		rm:    rm,
		br:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, rm.breakerOpens),
		run:   AllocateCtx,
	}
	s.registerStateMetrics(reg)
	reg.GaugeFunc("srv_breaker_state",
		"Circuit breaker state: 0 closed, 1 half-open, 2 open.",
		s.br.stateValue)
	return s
}

// Metrics returns the server's registry (for embedders that want to add
// their own instruments or serve it elsewhere).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// NewMux returns a default-configured service routing table (the
// historical entry point, kept for embedders that only need the
// synchronous path).
func NewMux() *http.ServeMux { return New(Config{}).Mux() }

// Close stops accepting jobs and drains queued and running work until
// ctx expires; stragglers are canceled on expiry.
func (s *Server) Close(ctx context.Context) error { return s.queue.Close(ctx) }

// Mux returns the service's routing table. Every /v1 route is wrapped
// in the metrics middleware (request counts by status class, latency
// histograms, in-flight gauge) around the panic-recovery middleware, so
// a panicking handler is recorded as a 500 rather than a dropped
// connection; the registry itself is served at GET /metrics in the
// Prometheus text format.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(name, s.recoverMW(h)))
	}
	route("GET /v1/healthz", "/v1/healthz", s.handleHealthz) // GET also serves HEAD
	route("GET /v1/version", "/v1/version", s.handleVersion)
	route("POST /v1/allocate", "/v1/allocate", s.handleAllocate)
	route("POST /v1/jobs", "/v1/jobs", s.handleJobSubmit)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobGet)
	route("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobCancel)
	route("POST /v1/batch", "/v1/batch", s.handleBatch)
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// cacheKey canonicalizes a request into the cache/single-flight key: the
// SHA-256 of its JSON encoding with the algorithm default applied, so
// "" and "offline_appro" address the same entry. Struct field order
// makes the encoding deterministic.
func cacheKey(req *Request) (string, error) {
	c := *req
	if c.Algorithm == "" {
		c.Algorithm = "offline_appro"
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("srv: canonicalize request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// compute runs one allocation through the result cache: repeats are
// served from the LRU and concurrent identical requests share a single
// solver run. Errors are never cached. The context belongs to the caller
// that initiated the flight (job or HTTP request); a follower of the
// single-flight may therefore observe the initiator's cancellation error,
// which is not cached and clears on retry.
//
// The request arrives as admitted (see admit): a degraded request is
// keyed by its degraded algorithm, so degraded results live under that
// algorithm's own entry and never shadow primary results. The solver
// invocation itself goes through the hardened path (breaker, retry,
// panic capture) in resilience.go.
func (s *Server) compute(ctx context.Context, req *Request) (resp *Response, cached bool, err error) {
	key, err := cacheKey(req)
	if err != nil {
		return nil, false, err
	}
	resp, err, cached = s.memo.Do(key, func() (*Response, error) { return s.invoke(ctx, req) })
	return resp, cached, err
}

// decode reads a JSON body into dst, enforcing the body-size cap and
// rejecting unknown fields.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return &httpError{http.StatusBadRequest, "bad json: " + err.Error()}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps service errors onto HTTP statuses: httpError carries
// its own code, queue saturation is 429, unknown job ids are 404,
// anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.code)
	case errors.Is(err, jobs.ErrQueueFull):
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, jobs.ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, jobs.ErrUnknownJob):
		http.Error(w, "unknown job", http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Health is the GET /v1/healthz payload.
type Health struct {
	Status string `json:"status"` // "ok" or "unavailable"
	Reason string `json:"reason,omitempty"`
}

// handleHealthz reports readiness, not mere liveness: a server that would
// fail-fast or reject the next allocation (open circuit breaker,
// saturated job queue) answers 503 with the reason, so load balancers
// rotate it out before clients hit the failure.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var reason string
	switch st := s.queue.Stats(); {
	case s.br.Open():
		reason = "circuit breaker open"
	case st.Queued >= s.queue.Depth():
		reason = "job queue saturated"
	}
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "unavailable", Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, Health{Status: "ok"})
}

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	Service      string `json:"service"`
	Version      string `json:"version"`
	GoVersion    string `json:"go_version"`
	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_depth"`
	CacheEntries int    `json:"cache_entries"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				version = kv.Value
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, VersionInfo{
		Service:      "allocserver",
		Version:      version,
		GoVersion:    runtime.Version(),
		Workers:      s.queue.Workers(),
		QueueDepth:   s.queue.Depth(),
		CacheEntries: s.cfg.CacheEntries,
	})
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if s.admit(&req) {
		s.rm.shed.Inc()
	}
	resp, cached, err := s.compute(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, resp)
}

// JobRequest is the POST /v1/jobs payload: an allocation request plus an
// optional per-job deadline.
type JobRequest struct {
	Request Request `json:"request"`
	// TimeoutMs bounds this job's running time; 0 inherits the server
	// default (Config.JobTimeout).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// JobAccepted is the POST /v1/jobs success payload.
type JobAccepted struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var jr JobRequest
	if err := s.decode(w, r, &jr); err != nil {
		writeError(w, err)
		return
	}
	var opts []jobs.Option
	switch {
	case jr.TimeoutMs > 0:
		opts = append(opts, jobs.WithTimeout(time.Duration(jr.TimeoutMs)*time.Millisecond))
	case s.cfg.JobTimeout > 0:
		opts = append(opts, jobs.WithTimeout(s.cfg.JobTimeout))
	}
	req := jr.Request
	shed := s.admit(&req)
	id, err := s.queue.Submit(func(ctx context.Context) (any, error) {
		// ctx is the job's context: canceling the job (timeout or
		// DELETE /v1/jobs/{id}) aborts the solver mid-search and frees
		// the worker.
		resp, _, err := s.compute(ctx, &req)
		if err != nil {
			return nil, err
		}
		return resp, nil
	}, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	if shed {
		s.rm.shed.Inc()
	}
	writeJSON(w, http.StatusAccepted, JobAccepted{ID: id, State: jobs.StateQueued})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, jobs.ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// BatchRequest is the POST /v1/batch payload: N independent allocation
// requests fanned across the worker pool.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one batch result, in the same position as its request.
type BatchItem struct {
	OK     bool      `json:"ok"`
	Result *Response `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch payload: results in input order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if err := s.decode(w, r, &br); err != nil {
		writeError(w, err)
		return
	}
	if len(br.Requests) == 0 {
		writeError(w, badRequest("batch needs at least one request"))
		return
	}
	solve.ObserveBatchSize(len(br.Requests))
	// Fan the batch across the shared pool as ordinary jobs, so batch
	// work obeys the same backpressure as /v1/jobs: if the queue cannot
	// hold the whole batch, roll back and reject with 429 rather than
	// block the handler.
	ids := make([]string, len(br.Requests))
	shed := 0
	for i := range br.Requests {
		req := br.Requests[i]
		if s.admit(&req) {
			shed++
		}
		id, err := s.queue.Submit(func(ctx context.Context) (any, error) {
			resp, _, err := s.compute(ctx, &req)
			if err != nil {
				return nil, err
			}
			return resp, nil
		})
		if err != nil {
			for _, prev := range ids[:i] {
				_, _ = s.queue.Cancel(prev)
			}
			writeError(w, err)
			return
		}
		ids[i] = id
	}
	s.rm.shed.Add(float64(shed))
	out := BatchResponse{Results: make([]BatchItem, len(ids))}
	for i, id := range ids {
		st, err := s.queue.Wait(r.Context(), id)
		if err != nil { // client went away; abandon politely
			for _, rest := range ids[i:] {
				_, _ = s.queue.Cancel(rest)
			}
			return
		}
		switch st.State {
		case jobs.StateDone:
			out.Results[i] = BatchItem{OK: true, Result: st.Result.(*Response)}
		default:
			out.Results[i] = BatchItem{Error: st.Err}
		}
	}
	writeJSON(w, http.StatusOK, out)
}
