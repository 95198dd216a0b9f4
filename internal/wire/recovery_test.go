package wire

import (
	"context"
	"errors"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/online"
	"mobisink/internal/wal"
)

// pipeConns wraps both ends of a net.Pipe (fully synchronous: a write
// blocks until the peer reads, the harshest possible stall).
func pipeConns(opt ConnOptions) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConnOpts(a, opt), NewConnOpts(b, opt)
}

// TestWriteDeadlineBoundsStalledPeer is the regression test for the
// unbounded-blocking defect: before ConnOptions, a peer that stopped
// draining its socket wedged WriteMsg — and with it the sink's broadcast
// path inside the interval loop — forever. With a write deadline the stall
// surfaces as a net.Error timeout in bounded time.
func TestWriteDeadlineBoundsStalledPeer(t *testing.T) {
	a, _ := pipeConns(ConnOptions{WriteTimeout: 50 * time.Millisecond})
	defer a.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- a.WriteMsg(&Finish{Interval: 0}) }()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("stalled write returned %v, want a net.Error timeout", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stalled write took %v to time out", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteMsg to a stalled peer did not return: unbounded blocking defect")
	}
}

// TestReadDeadlineBoundsSilentPeer: the read side of the same defect. A
// silent peer must surface a timeout, and a heartbeating peer must not.
func TestReadDeadlineBoundsSilentPeer(t *testing.T) {
	a, b := pipeConns(ConnOptions{ReadTimeout: 80 * time.Millisecond})
	defer a.Close()
	defer b.Close()
	if _, err := a.ReadMsg(); err == nil {
		t.Fatal("read from silent peer succeeded")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("silent peer read returned %v, want timeout", err)
		}
	}
	// A heartbeating peer keeps an otherwise idle connection alive well
	// past the read deadline.
	stop := b.StartHeartbeat(20 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(400 * time.Millisecond)
	beats := 0
	for time.Now().Before(deadline) {
		m, err := a.ReadMsg()
		if err != nil {
			t.Fatalf("idle heartbeating peer hit read deadline: %v", err)
		}
		if _, ok := m.(*Heartbeat); ok {
			beats++
		}
		if beats >= 5 {
			return
		}
	}
	if beats == 0 {
		t.Fatal("no heartbeats arrived within the window")
	}
}

// TestStalledSensorCannotWedgeTour runs a recovery-mode tour with one
// impostor that completes the handshake and then never reads or writes
// again. The sink's timed windows and write deadlines must bound every
// interval, so the tour still completes on the schedule of the live
// sensors.
func TestStalledSensorCannotWedgeTour(t *testing.T) {
	inst := shortInstance(t, 12, 900, 11)
	rec := &Recovery{MaxRetries: 1, RegWindow: 40 * time.Millisecond, ConfirmWindow: 40 * time.Millisecond}
	sink, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Greedy{}, Recovery: rec,
		Conn: ConnOptions{WriteTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// The impostor claims sensor 0's identity, handshakes, then stalls.
	raw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	imp := NewConn(raw)
	if _, err := imp.ClientHandshake(0, 0, -1); err != nil {
		t.Fatal(err)
	}
	// From here on the impostor neither reads nor writes.

	fl := &fleet{errs: make(chan error, len(inst.Sensors)-1)}
	for i := 1; i < len(inst.Sensors); i++ {
		cfg := SensorConfigFor(inst, i)
		c, err := DialSensor(sink.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fl.clients = append(fl.clients, c)
		go func() { fl.errs <- c.Run(context.Background()) }()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every interval is bounded by the recovery windows; the stalled peer
	// must not add unbounded time on top.
	intervals := (inst.T + inst.Gamma - 1) / inst.Gamma
	bound := time.Duration(intervals) * (2*rec.RegWindow + rec.ConfirmWindow + 2*time.Second)
	if elapsed := time.Since(start); elapsed > bound {
		t.Fatalf("tour took %v with a stalled sensor (bound %v)", elapsed, bound)
	}
	if res.Data <= 0 {
		t.Error("tour with stalled sensor collected no data")
	}
	sink.Close()
	fl.join(t)
}

// rawHandshake performs the client side of the handshake on a raw conn
// and returns the sink's Sync.
func rawHandshake(t *testing.T, addr string, sensor int, token uint64, last int) (*Conn, *Sync) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	sync, err := c.ClientHandshake(sensor, token, last)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c, sync
}

// TestSessionResumeAndTTL drives the session table directly: a fresh
// hello mints a token, reconnecting with it resumes, a bogus token gets
// a fresh session, and an expired TTL forfeits resumption.
func TestSessionResumeAndTTL(t *testing.T) {
	inst := shortInstance(t, 4, 600, 3)
	sink, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Greedy{},
		SessionTTL: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	base := sessionsResumed.Value()

	c1, s1 := rawHandshake(t, sink.Addr(), 0, 0, -1)
	if s1.Resumed || s1.Token == 0 {
		t.Fatalf("fresh connect: resumed=%v token=%d", s1.Resumed, s1.Token)
	}
	if s1.Interval != -1 || s1.Missed != 0 {
		t.Fatalf("fresh connect: interval=%d missed=%d", s1.Interval, s1.Missed)
	}
	if s1.Budget != inst.Sensors[0].Budget {
		t.Fatalf("fresh connect: budget %v, want %v", s1.Budget, inst.Sensors[0].Budget)
	}
	c1.Close()

	// Prompt reconnect with the minted token resumes the session.
	c2, s2 := rawHandshake(t, sink.Addr(), 0, s1.Token, -1)
	if !s2.Resumed || s2.Token != s1.Token {
		t.Fatalf("reconnect: resumed=%v token=%d want token %d", s2.Resumed, s2.Token, s1.Token)
	}
	if got := sessionsResumed.Value() - base; got != 1 {
		t.Fatalf("sessions_resumed_total delta %v, want 1", got)
	}

	// A newer connection presenting the same token kicks the older one.
	c3, s3 := rawHandshake(t, sink.Addr(), 0, s1.Token, -1)
	if !s3.Resumed || s3.Token != s1.Token {
		t.Fatalf("takeover: resumed=%v token=%d", s3.Resumed, s3.Token)
	}
	if err := c2.raw.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadMsg(); err == nil {
		t.Fatal("kicked connection still readable")
	}
	c2.Close()

	// A bogus token mints a fresh session instead of resuming.
	c4, s4 := rawHandshake(t, sink.Addr(), 1, 0xBAD, -1)
	if s4.Resumed {
		t.Fatal("bogus token resumed a session")
	}
	if s4.Token == 0 || s4.Token == 0xBAD {
		t.Fatalf("bogus token answered with token %d", s4.Token)
	}
	c4.Close()

	// TTL expiry: disconnect, outwait the TTL, and the token is dead.
	c3.Close()
	time.Sleep(150 * time.Millisecond)
	c5, s5 := rawHandshake(t, sink.Addr(), 0, s1.Token, -1)
	if s5.Resumed {
		t.Fatal("session resumed after TTL expiry")
	}
	if s5.Token == s1.Token {
		t.Fatal("expired session kept its token")
	}
	c5.Close()
	if got := sessionsResumed.Value() - base; got != 2 {
		t.Fatalf("sessions_resumed_total delta %v, want 2 (resume + takeover)", got)
	}
}

// launchRedialFleet dials one client per sensor with the reconnect
// policy enabled.
func launchRedialFleet(t *testing.T, addr string, inst *core.Instance, rd Redial) *fleet {
	t.Helper()
	fl := &fleet{errs: make(chan error, len(inst.Sensors))}
	for i := range inst.Sensors {
		cfg := SensorConfigFor(inst, i)
		r := rd
		cfg.Redial = &r
		c, err := DialSensor(addr, cfg)
		if err != nil {
			t.Fatalf("dial sensor %d: %v", i, err)
		}
		fl.clients = append(fl.clients, c)
		go func() { fl.errs <- c.Run(context.Background()) }()
	}
	return fl
}

// TestConnKillChurnTour is the churn end-to-end: a seeded plan kills
// every sensor's connection exactly once during the tour, at the last
// interval whose Probe reaches it (a kill fires on Probe delivery). Every
// session must resume, the tour must complete, and the protocol
// invariants must hold.
func TestConnKillChurnTour(t *testing.T) {
	inst := shortInstance(t, 16, 1200, 13)
	n := len(inst.Sensors)
	intervals := (inst.T + inst.Gamma - 1) / inst.Gamma
	if intervals < 4 {
		t.Fatalf("instance too short for mid-tour churn: %d intervals", intervals)
	}
	last := make(map[int]int, n)
	for j, ids := range reachOf(inst) {
		for _, i := range ids {
			last[i] = j
		}
	}
	plan := fault.Plan{Seed: 99, MaxRetries: 2}
	for i := 0; i < n; i++ {
		j, ok := last[i]
		if !ok {
			t.Fatalf("sensor %d is in no interval's probe set", i)
		}
		plan.ConnKills = append(plan.ConnKills, fault.ConnKill{Sensor: i, Interval: j})
	}
	rec := &Recovery{
		MaxRetries:    2,
		RegWindow:     120 * time.Millisecond,
		ConfirmWindow: 60 * time.Millisecond,
	}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Appro{}, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	proxy, err := NewChaosProxy(sink.Addr(), ChaosConfig{Plan: plan}, n, inst.T)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	baseResumed := sessionsResumed.Value()
	baseReconnects := reconnects.Value()
	fl := launchRedialFleet(t, proxy.Addr(), inst, Redial{
		MaxAttempts: 10, Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 7,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	proxy.Close()
	fl.join(t)

	if err := res.CheckLemma1(); err != nil {
		t.Errorf("lemma 1 violated under churn: %v", err)
	}
	if res.Data <= 0 {
		t.Error("churn tour collected no data")
	}
	for i, r := range res.Residual {
		if r < 0 {
			t.Errorf("sensor %d residual negative: %v", i, r)
		}
	}
	cs := proxy.Stats()
	if cs.ConnKills != int64(n) {
		t.Errorf("proxy killed %d connections, want %d (one per sensor)", cs.ConnKills, n)
	}
	if got := sessionsResumed.Value() - baseResumed; got != float64(n) {
		t.Errorf("wire_sessions_resumed_total delta %v, want %d", got, n)
	}
	if got := reconnects.Value() - baseReconnects; got < float64(n) {
		t.Errorf("wire_reconnects_total delta %v, want >= %d", got, n)
	}
	for i, c := range fl.clients {
		if c.Token() == 0 {
			t.Errorf("sensor %d finished the tour without a session token", i)
		}
	}
}

// TestSinkCrashRestartParity is the durability acceptance test: the sink
// is killed mid-tour and a successor process (a second Sink on the same
// WAL) resumes at the first uncommitted interval. The union of the two
// half-tours must be byte-identical to the uninterrupted in-process run —
// allocation, collected data, residual ledger, message counts, and the
// sensors' own residuals.
func TestSinkCrashRestartParity(t *testing.T) {
	inst := shortInstance(t, 24, 1400, 21)
	intervals := (inst.T + inst.Gamma - 1) / inst.Gamma
	if intervals < 4 {
		t.Fatalf("instance too short to crash mid-tour: %d intervals", intervals)
	}
	want, err := online.Run(inst, &online.Appro{})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "tour.wal")

	sink1, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Appro{},
		WALPath: walPath, HaltAfter: intervals / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink1.Addr()
	fl := launchRedialFleet(t, addr, inst, Redial{
		MaxAttempts: 60, Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Seed: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := sink1.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res1, err := sink1.RunTour(ctx)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("phase 1: got err %v, want ErrHalted", err)
	}
	if res1 == nil {
		t.Fatal("halted tour returned no partial result")
	}
	sink1.Close() // the crash: no End record, conns severed

	// The successor binds the same address (so redialing clients find it)
	// and replays the journal.
	sink2, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Appro{},
		Addr: addr, WALPath: walPath,
	})
	if err != nil {
		t.Fatalf("restart on journal: %v", err)
	}
	defer sink2.Close()
	if err := sink2.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := sink2.RunTour(ctx)
	if err != nil {
		t.Fatalf("resumed tour: %v", err)
	}
	sink2.Close()
	fl.join(t)

	if got.Data != want.Data {
		t.Errorf("data: crash-restart %v, in-process %v", got.Data, want.Data)
	}
	if !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner) {
		t.Error("slot assignments diverge across the crash")
	}
	if !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn) {
		t.Error("registration history diverges across the crash")
	}
	if got.Messages != want.Messages {
		t.Errorf("messages: crash-restart %+v, in-process %+v", got.Messages, want.Messages)
	}
	for i := range want.Residual {
		if got.Residual[i] != want.Residual[i] {
			t.Fatalf("sensor %d sink-ledger residual: crash-restart %v, in-process %v",
				i, got.Residual[i], want.Residual[i])
		}
		if r := fl.clients[i].Residual(); r != want.Residual[i] {
			t.Fatalf("sensor %d client residual %v, in-process %v", i, r, want.Residual[i])
		}
		if !math.IsInf(want.ResidualData[i], 1) && got.ResidualData[i] != want.ResidualData[i] {
			t.Fatalf("sensor %d residual data diverges", i)
		}
	}
	if err := got.CheckLemma1(); err != nil {
		t.Error(err)
	}

	// A third sink on the now-complete journal replays the whole tour
	// without running an interval.
	sink3, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Appro{}, WALPath: walPath,
	})
	if err != nil {
		t.Fatalf("reopen complete journal: %v", err)
	}
	defer sink3.Close()
	replayed, err := sink3.RunTour(ctx)
	if err != nil {
		t.Fatalf("replay-only tour: %v", err)
	}
	if replayed.Data != want.Data || !reflect.DeepEqual(replayed.Alloc.SlotOwner, want.Alloc.SlotOwner) {
		t.Error("replay-only tour diverges from the in-process run")
	}
}

// TestJournalRejectsForeignInstance: a journal written for one
// deployment must not replay into another.
func TestJournalRejectsForeignInstance(t *testing.T) {
	instA := shortInstance(t, 6, 600, 31)
	instB := shortInstance(t, 6, 600, 32) // same shape, different sensors
	walPath := filepath.Join(t.TempDir(), "tour.wal")
	sinkA, err := NewSink(SinkConfig{Inst: instA, Scheduler: &online.Greedy{}, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	sinkA.Close() // leaves just the Begin record
	if _, err := NewSink(SinkConfig{Inst: instB, Scheduler: &online.Greedy{}, WALPath: walPath}); err == nil {
		t.Fatal("sink accepted a journal written for a different instance")
	}
}

// TestCancelInConfirmWindowCommitsNothing: a context canceled while a
// Recovery sink waits for Confirms ends the interval before its commit.
// Reading the cancellation as the assignees' silence would commit and
// journal a slot loss the sensor never caused, which a restarted sink
// would replay.
func TestCancelInConfirmWindowCommitsNothing(t *testing.T) {
	inst := shortInstance(t, 4, 900, 17)
	id := -1
	for _, ids := range reachOf(inst) {
		if len(ids) > 0 {
			id = ids[0]
			break
		}
	}
	walPath := filepath.Join(t.TempDir(), "tour.wal")
	rec := &Recovery{RegWindow: 30 * time.Second, ConfirmWindow: 30 * time.Second}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Recovery: rec, Sensors: 1, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c, _ := rawHandshake(t, sink.Addr(), id, 0, -1)
	canceled := make(chan int, 1)
	peer := servePeer(c, func(m Msg) bool {
		switch m := m.(type) {
		case *Probe:
			_ = c.WriteMsg(liveClaim(inst, m, id))
		case *Schedule:
			if len(m.Pairs) > 0 { // cancel instead of confirming
				select {
				case canceled <- m.Interval:
					cancel()
				default:
				}
			}
		}
		return true
	})
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.RunTour(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTour: %v, want context.Canceled", err)
	}
	sink.Close()
	waitPeers(t, peer)

	j := <-canceled
	log, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	for _, r := range recs {
		if c, ok := r.(wal.Commit); ok && c.Interval >= j {
			t.Errorf("journal commits interval %d, canceled in its confirm window: %+v", c.Interval, c)
		}
	}
}
