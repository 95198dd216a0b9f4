package srv

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mobisink/internal/jobs"
	"mobisink/internal/metrics"
)

func fakeResponse(req *Request) *Response {
	return &Response{Algorithm: req.Algorithm, Slots: 1, SlotOwner: []int{-1}}
}

// stubReq builds a decodable request (Deployment validates on unmarshal,
// so even stubbed solvers need a real one); eps only differentiates cache
// keys.
func stubReq(t *testing.T, alg string, eps float64) *Request {
	t.Helper()
	return &Request{Deployment: testDeployment(t, 4), Speed: 1, SlotLen: 1, Algorithm: alg, Eps: eps}
}

func waitJob(t *testing.T, url, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp := doJSON(t, http.MethodGet, url+"/v1/jobs/"+id, nil)
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Second, metrics.NewRegistry().Counter("opens_total", ""))
	b.now = func() time.Time { return now }
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Failure()
	if !b.Allow() {
		t.Fatal("one failure under threshold 2 opened the breaker")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("threshold failures did not open the breaker")
	}
	if !b.Open() {
		t.Fatal("Open() disagrees with Allow()")
	}
	// Before cooldown: still failing fast.
	now = now.Add(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker admitted before cooldown")
	}
	// After cooldown: exactly one half-open probe.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// Probe fails: re-open for another full cooldown.
	b.Failure()
	if b.Allow() {
		t.Fatal("failed probe did not re-open")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("re-opened breaker never recovered")
	}
	// Neutral outcome returns the probe slot without closing.
	b.Neutral()
	if !b.Allow() {
		t.Fatal("neutral probe outcome lost the probe slot")
	}
	b.Success()
	if !b.Allow() || b.Open() {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestDegradedAlgorithmMapping(t *testing.T) {
	cases := []struct {
		alg    string
		capped bool
		want   string
	}{
		{"", false, "offline_greedy"},
		{"offline_appro", false, "offline_greedy"},
		{"Offline_MaxMatch", false, "offline_greedy"},
		{"online_appro", false, "online_greedy"},
		{"online_greedy", false, ""},
		{"offline_greedy", false, ""},
		{"offline_appro", true, "offline_sequential"},
		{"online_sequential", true, ""},
	}
	for _, c := range cases {
		if got := degradedAlgorithm(c.alg, c.capped); got != c.want {
			t.Errorf("degradedAlgorithm(%q, %v) = %q, want %q", c.alg, c.capped, got, c.want)
		}
	}
}

// TestHandlerPanicRecovered drives a panic through the full middleware
// stack (metrics around recovery) and expects a 500 plus both counters.
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(Config{})
	defer closeServer(t, s)
	h := s.instrument("/boom", s.recoverMW(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp := doJSON(t, http.MethodGet, ts.URL, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("srv_panics_recovered_total"); got != 1 {
		t.Errorf("srv_panics_recovered_total = %v, want 1", got)
	}
	if got := snap.Get(`http_requests_total{route="/boom",code="5xx"}`); got != 1 {
		t.Errorf("5xx counter = %v, want 1", got)
	}
}

// TestRetryRecoversTransientFailure: the first invocation fails, the
// retry succeeds, the client never notices.
func TestRetryRecoversTransientFailure(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	s, ts := newTestServer(t, Config{RetryAttempts: 2, RetryBackoff: time.Millisecond},
		func(req *Request) (*Response, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				return nil, errors.New("transient solver wobble")
			}
			return fakeResponse(req), nil
		})
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate", stubReq(t, "", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := s.Metrics().Snapshot().Get("srv_solver_retries_total"); got != 1 {
		t.Errorf("srv_solver_retries_total = %v, want 1", got)
	}
}

// TestClientErrorsNeitherRetryNorTrip: a 400 must pass through exactly
// once and leave the breaker closed.
func TestClientErrorsNeitherRetryNorTrip(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	s, ts := newTestServer(t, Config{RetryAttempts: 3, RetryBackoff: time.Millisecond, BreakerThreshold: 1},
		func(req *Request) (*Response, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			return nil, badRequest("no such deployment")
		})
	for i := 0; i < 3; i++ {
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate",
			stubReq(t, "", float64(i+1))) // distinct cache keys
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	}
	mu.Lock()
	if calls != 3 {
		t.Errorf("solver called %d times, want 3 (no retries on client errors)", calls)
	}
	mu.Unlock()
	if s.br.Open() {
		t.Error("client errors tripped the breaker")
	}
}

// TestBadEpsIsAClientError: an out-of-range eps is the client's fault on
// the sequential algorithms too. Six such requests per algorithm, more
// than the breaker's default threshold of five, each get 400; healthz
// stays 200, and a valid request then succeeds.
func TestBadEpsIsAClientError(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	defer closeServer(t, s)
	dep := testDeployment(t, 20)
	for _, alg := range []string{"offline_sequential", "online_sequential"} {
		for i := 0; i < 6; i++ {
			req := Request{Deployment: dep, Speed: 5, SlotLen: 1, Algorithm: alg, ForceFPTAS: true, Eps: 1.5}
			if _, resp := postAllocate(t, ts, req); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s request %d: status %d, want 400", alg, i+1, resp.StatusCode)
			}
		}
	}
	if hz := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil); hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after bad-eps requests, want 200", hz.StatusCode)
	}
	if out, resp := postAllocate(t, ts, Request{Deployment: dep, Speed: 5, SlotLen: 1, Algorithm: "offline_appro"}); out == nil {
		t.Fatalf("valid request after bad-eps requests: status %d, want 200", resp.StatusCode)
	}
}

// TestBreakerOpensAndHealthzReports: consecutive server-side failures
// open the circuit; requests fail fast with 503 and healthz flips to 503
// with the reason, then everything recovers after the cooldown.
func TestBreakerOpensAndHealthzReports(t *testing.T) {
	var mu sync.Mutex
	healthy := false
	s, ts := newTestServer(t, Config{
		RetryAttempts: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	}, func(req *Request) (*Response, error) {
		mu.Lock()
		defer mu.Unlock()
		if !healthy {
			return nil, errors.New("solver backend down")
		}
		return fakeResponse(req), nil
	})
	for i := 0; i < 2; i++ {
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate",
			stubReq(t, "", float64(i+1)))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// Circuit open: fail fast with 503, healthz agrees.
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate", stubReq(t, "", 9))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d, want 503", resp.StatusCode)
	}
	hz := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with open breaker, want 503", hz.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" || h.Reason != "circuit breaker open" {
		t.Fatalf("healthz payload %+v", h)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("srv_breaker_open_total"); got != 1 {
		t.Errorf("srv_breaker_open_total = %v, want 1", got)
	}
	if got := snap.Get("srv_breaker_state"); got != breakerOpen {
		t.Errorf("srv_breaker_state = %v, want %d", got, breakerOpen)
	}
	// Backend recovers; after the cooldown one probe closes the circuit.
	mu.Lock()
	healthy = true
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/allocate", stubReq(t, "", 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown returned %d, want 200", resp.StatusCode)
	}
	if hz := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil); hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after recovery, want 200", hz.StatusCode)
	}
}

// TestLoadSheddingDegradesToGreedy saturates the queue with slow jobs
// and checks a new allocation is transparently downgraded to the greedy
// solver — and that healthz reports saturation once the queue is full.
// Shedding starts at 0.75 × depth 2, so only a full queue sheds: each
// slow job is admitted with at most one job waiting ahead of it.
func TestLoadSheddingDegradesToGreedy(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ShedFraction: 0.75},
		func(req *Request) (*Response, error) {
			if req.Algorithm == "slow" {
				<-release
			}
			return fakeResponse(req), nil
		})
	// One job occupies the worker, two more fill the queue to capacity.
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, ts.URL, stubReq(t, "slow", float64(i+1))))
		if i == 0 {
			waitFor(t, func() bool { return s.queue.Stats().Running == 1 })
		}
	}
	waitFor(t, func() bool { return s.queue.Stats().Queued == 2 })

	// Queued 2 ≥ 0.75 × depth 2: shedding active, queue full.
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate",
		stubReq(t, "offline_appro", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shed allocate status %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "offline_greedy" {
		t.Fatalf("saturated allocate solved %q, want offline_greedy", out.Algorithm)
	}
	if got := s.Metrics().Snapshot().Get("srv_load_shed_total"); got != 1 {
		t.Errorf("srv_load_shed_total = %v, want 1", got)
	}
	hz := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with saturated queue, want 503", hz.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Reason != "job queue saturated" {
		t.Fatalf("healthz reason %q", h.Reason)
	}

	close(release) // frees every blocked job
	for _, id := range ids {
		if st := waitJob(t, ts.URL, id); st.State != jobs.StateDone {
			t.Fatalf("slow job %s ended %s: %s", id, st.State, st.Err)
		}
	}
	waitFor(t, func() bool {
		hz := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
		return hz.StatusCode == http.StatusOK
	})
}

// TestChaosServingE2E is the end-to-end chaos check (run under the race
// detector by `make test-fault`): a solver panic must come back as a
// plain 500 — on both the synchronous and async paths — while the shared
// worker pool keeps serving concurrent and subsequent jobs untouched.
func TestChaosServingE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2, RetryAttempts: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 100, // stay closed: this test is about panics, not the breaker
	}, func(req *Request) (*Response, error) {
		if req.Algorithm == "panic" {
			panic("solver hit a poisoned instance")
		}
		return fakeResponse(req), nil
	})

	// Synchronous path: panic → 500, not a dropped connection.
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/allocate",
		stubReq(t, "panic", 0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking allocate: status %d, want 500", resp.StatusCode)
	}

	// Async path: a panicking job fails cleanly while a mix of good and
	// poisoned jobs runs concurrently through the same pool.
	const good, bad = 8, 3
	var ids [good + bad]string
	for i := range ids {
		alg := "ok"
		if i%4 == 3 {
			alg = "panic"
		}
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", &JobRequest{
			Request: *stubReq(t, alg, float64(i+1)),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		var acc JobAccepted
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		ids[i] = acc.ID
	}
	for i, id := range ids {
		st := waitJob(t, ts.URL, id)
		if i%4 == 3 {
			if st.State != jobs.StateFailed {
				t.Fatalf("poisoned job %d ended %s, want failed", i, st.State)
			}
			continue
		}
		if st.State != jobs.StateDone {
			t.Fatalf("good job %d ended %s: %s", i, st.State, st.Err)
		}
	}

	// The pool survived: a fresh synchronous request still works.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/allocate",
		stubReq(t, "ok", 99))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos allocate: status %d, want 200", resp.StatusCode)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("srv_solver_panics_total"); got < 2 {
		t.Errorf("srv_solver_panics_total = %v, want ≥ 2", got)
	}
	if got := snap.Get("srv_panics_recovered_total"); got != 0 {
		t.Errorf("handler-level panics = %v, want 0 (runSafe must capture first)", got)
	}
}

// submitJob posts req to /v1/jobs and returns the accepted job's id.
func submitJob(t *testing.T, url string, req *Request) string {
	t.Helper()
	resp := doJSON(t, http.MethodPost, url+"/v1/jobs", &JobRequest{Request: *req})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", req.Algorithm, resp.StatusCode)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

// TestShedDecidedAtAdmission holds the worker busy, admits job A into an
// empty queue and job B behind it (one waiting ≥ 0.5 × depth 2), then
// frees the worker: A must run with its own algorithm and B degraded.
// Deciding when a job starts, as the server once did, degraded A too,
// since B waited behind it by then.
func TestShedDecidedAtAdmission(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ShedFraction: 0.5},
		func(req *Request) (*Response, error) {
			if req.Algorithm == "slow" {
				<-release
			}
			return fakeResponse(req), nil
		})
	submitJob(t, ts.URL, stubReq(t, "slow", 1))
	waitFor(t, func() bool { return s.queue.Stats().Running == 1 })
	a := submitJob(t, ts.URL, stubReq(t, "slow", 2))
	b := submitJob(t, ts.URL, stubReq(t, "slow", 3))
	close(release)
	for id, want := range map[string]string{a: "slow", b: "offline_greedy"} {
		st := waitJob(t, ts.URL, id)
		if st.State != jobs.StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Err)
		}
		if got := st.Result.(map[string]any)["algorithm"]; got != want {
			t.Errorf("job %s solved %v, want %s", id, got, want)
		}
	}
	if got := s.Metrics().Snapshot().Get("srv_load_shed_total"); got != 1 {
		t.Errorf("srv_load_shed_total = %v, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}
