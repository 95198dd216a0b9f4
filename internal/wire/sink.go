package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/online"
	"mobisink/internal/wal"
)

// ErrHalted is returned by RunTour when SinkConfig.HaltAfter stopped the
// tour early (the crash-restart demo's simulated crash point). The
// journal holds every committed interval; a new Sink on the same WAL
// resumes at the first uncommitted one.
var ErrHalted = errors.New("wire: tour halted by HaltAfter")

// Recovery enables the sink server's self-healing machinery, the wire
// counterpart of online.Options.Faults: bounded probe retransmission,
// stale-budget clamps, confirm-based silence detection with schedule
// repair, and degraded-mode fallback. Nil Recovery runs the paper's
// idealized protocol: the sink waits for every connected sensor's answer
// (register or decline) with no timers, which is what makes the
// fault-free tour byte-identical to online.Run.
type Recovery struct {
	// MaxRetries bounds the extra registration rounds per interval (the
	// in-process Plan.MaxRetries).
	MaxRetries int
	// RegWindow is how long the sink waits for outstanding answers in
	// each registration round before retransmitting (or giving up). It
	// must comfortably exceed the network round-trip time; sensors that
	// cannot answer within it are treated as out of reach. Default 100ms.
	RegWindow time.Duration
	// ConfirmWindow is how long the sink waits for Schedule confirmations
	// before declaring the silent assignees crashed or deaf and repairing
	// their slots. Default 100ms.
	ConfirmWindow time.Duration
	// Stalls, when non-nil, injects deterministic scheduler stalls
	// (Plan.StallProb/StallIntervals) that force the degraded fallback,
	// mirroring the in-process fault path.
	Stalls *fault.Injector
	// ComputeDeadline, when positive, bounds each interval's scheduler
	// wall-clock time; on overrun the interval falls back to Degraded.
	ComputeDeadline time.Duration
	// Degraded overrides the fallback scheduler (default density-greedy;
	// Sequential on data-capped instances).
	Degraded online.Scheduler
}

// SinkConfig configures a Sink server.
type SinkConfig struct {
	Inst      *core.Instance
	Scheduler online.Scheduler
	// Addr is the TCP listen address; default "127.0.0.1:0".
	Addr string
	// Sensors is the distinct-sensor count WaitSensors waits for; default
	// len(Inst.Sensors).
	Sensors int
	// Recovery enables the self-healing protocol; nil runs the idealized
	// lossless exchange.
	Recovery *Recovery
	// WALPath, when non-empty, journals every interval commit to an
	// append-only log (internal/wal). If the file already holds a journal
	// for this instance, NewSink replays it — restoring the allocation,
	// registrations, and residual ledger bit-for-bit — and RunTour
	// resumes at the first uncommitted interval.
	WALPath string
	// SessionTTL is how long a disconnected sensor's session (and its
	// resumption rights) survives. Default 1 minute.
	SessionTTL time.Duration
	// Conn sets per-operation I/O deadlines on every accepted
	// connection. The zero value keeps the idealized timer-free behavior;
	// set ReadTimeout to at least 3× the sensors' heartbeat period.
	Conn ConnOptions
	// Heartbeat, when positive, makes the sink write idle keepalives on
	// each connection so sensors with read deadlines see traffic between
	// intervals.
	Heartbeat time.Duration
	// HaltAfter, when positive, stops RunTour with ErrHalted after that
	// many intervals have committed in this process (crash-restart demo).
	HaltAfter int
	// Shards sets the writer-shard count of the broadcast plane: live
	// connections are partitioned id mod Shards, each shard fanning
	// pre-encoded frames out through per-conn bounded queues so the
	// interval loop never blocks on a socket write. 0 means the default
	// (8); values above 64 are clamped; a negative value disables the
	// sharded plane and restores the legacy in-line serial write loop.
	Shards int
	// Queue is the per-connection outbound queue depth on the sharded
	// plane. A peer that stops draining its socket fills only its own
	// queue; on overflow the connection is killed through the same drop
	// path as a write-deadline failure. Default 256.
	Queue int
}

// session is one sensor's resumption state: the token that authorizes a
// reconnect to pick the session back up, the conn that owns it (nil
// while disconnected), and when it disconnected (TTL anchor).
type session struct {
	token    uint64
	owner    *Conn
	lastGone time.Time
}

// inbound is one decoded message attributed to its sensor; a nil msg
// marks the connection closed.
type inbound struct {
	sensor int
	msg    Msg
}

// errClosed ends a tour whose sink was closed under it.
var errClosed = fmt.Errorf("sink closed: %w", net.ErrClosed)

// lingerTimeout bounds how long Close waits, after half-closing every
// connection, for the peers to hang up before closing outright.
const lingerTimeout = time.Second

// Registration-phase state of one sensor (Sink.ans). The phase marks its
// probe set, settles each sensor at most once, and resets the set to
// ansNone when it ends.
const (
	ansNone      uint8 = iota // not probed, or settled without a claim
	ansUnreached              // probed and silent, outside the current round's countdown
	ansWaiting                // probed and silent, counted in the countdown
	ansClaimed                // settled with a registration
)

// answer is one sensor's registration-phase state and claim.
type answer struct {
	state uint8
	reg   online.Registration
}

// Sink is the mobile sink as a TCP server: it accepts long-lived sensor
// connections and drives the tour's interval loop over them — probe
// broadcast, registration window, scheduler, schedule/finish broadcast —
// debiting budgets through the same commit path as the in-process
// runner. Sensors that disconnect mid-tour may resume their session
// (Resume/Sync handshake) within the session TTL; with a WAL configured
// the sink itself may die and a successor resume the tour from the
// journal.
type Sink struct {
	cfg      SinkConfig
	rec      *Recovery
	degraded online.Scheduler
	ttl      time.Duration
	ln       net.Listener
	inbox    chan inbound
	done     chan struct{}
	// bc is the sharded write plane (nil in legacy serial mode).
	bc *broadcaster

	// res is the tour ledger, created (or WAL-replayed) by NewSink.
	// RunTour's goroutine owns all writes; the session handshake reads
	// Residual/ResidualData/committedIv under lmu.
	res *online.Result
	lmu sync.Mutex
	// committedIv is the last interval whose commit is final (-1 none).
	committedIv int

	log          *wal.Log
	resumeFrom   int
	tourDone     bool
	recoverStart time.Time

	// ans is the registration phase's per-sensor state, indexed by
	// sensor; it belongs to RunTour's goroutine and is reused across
	// intervals.
	ans []answer

	// handlers counts the running connection handlers; Close waits on it.
	handlers sync.WaitGroup

	mu        sync.Mutex
	conns     map[int]*Conn
	open      map[*Conn]struct{} // every accepted conn, until its handler returns
	sessions  map[int]*session
	nextToken uint64
	joinedIDs map[int]bool
	closed    bool
}

// NewSink validates the configuration, opens and replays the journal
// (when configured), binds the listener, and starts accepting sensor
// connections. Callers must Close it.
func NewSink(cfg SinkConfig) (*Sink, error) {
	if cfg.Inst == nil {
		return nil, errors.New("wire: nil instance")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("wire: nil scheduler")
	}
	if cfg.Inst.DataCaps != nil {
		aware, ok := cfg.Scheduler.(interface{ CapAware() bool })
		if !ok || !aware.CapAware() {
			return nil, fmt.Errorf("wire: scheduler %s does not handle data-capped instances (use Sequential)", cfg.Scheduler.Name())
		}
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Sensors == 0 {
		cfg.Sensors = len(cfg.Inst.Sensors)
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Minute
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > 64 {
		cfg.Shards = 64
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	s := &Sink{
		cfg:         cfg,
		rec:         cfg.Recovery,
		ttl:         cfg.SessionTTL,
		inbox:       make(chan inbound, max(256, 16*cfg.Sensors)),
		done:        make(chan struct{}),
		ans:         make([]answer, len(cfg.Inst.Sensors)),
		conns:       make(map[int]*Conn),
		open:        make(map[*Conn]struct{}),
		sessions:    make(map[int]*session),
		joinedIDs:   make(map[int]bool),
		res:         online.NewResult(cfg.Inst),
		committedIv: -1,
	}
	if s.rec != nil {
		if s.rec.RegWindow <= 0 {
			s.rec.RegWindow = 100 * time.Millisecond
		}
		if s.rec.ConfirmWindow <= 0 {
			s.rec.ConfirmWindow = 100 * time.Millisecond
		}
		s.degraded = s.rec.Degraded
	}
	if s.degraded == nil {
		if cfg.Inst.DataCaps != nil {
			s.degraded = &online.Sequential{}
		} else {
			s.degraded = &online.Greedy{}
		}
	}
	if s.rec != nil && cfg.Inst.DataCaps != nil {
		aware, ok := s.degraded.(interface{ CapAware() bool })
		if !ok || !aware.CapAware() {
			return nil, fmt.Errorf("wire: degraded scheduler %s does not handle data-capped instances", s.degraded.Name())
		}
	}
	if cfg.WALPath != "" {
		if err := s.openJournal(cfg.WALPath); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.log != nil {
			s.log.Close()
		}
		return nil, err
	}
	s.ln = ln
	if cfg.Shards > 0 {
		s.bc = newBroadcaster(cfg.Shards, cfg.Queue, s.done, s.dropConn)
	}
	go s.acceptLoop()
	return s, nil
}

// openJournal opens (or creates) the WAL, verifies it belongs to this
// instance, and replays every committed interval into the ledger.
func (s *Sink) openJournal(path string) error {
	log, recs, err := wal.Open(path)
	if err != nil {
		return err
	}
	fp := instanceFingerprint(s.cfg.Inst)
	inst := s.cfg.Inst
	if len(recs) == 0 {
		if err := log.Append(wal.Begin{
			Sensors: len(inst.Sensors), T: inst.T, Gamma: inst.Gamma, Fingerprint: fp,
		}); err != nil {
			log.Close()
			return err
		}
		s.log = log
		return nil
	}
	s.recoverStart = time.Now()
	b, ok := recs[0].(wal.Begin)
	if !ok {
		log.Close()
		return errors.New("wire: journal does not start with a Begin record")
	}
	if b.Sensors != len(inst.Sensors) || b.T != inst.T || b.Gamma != inst.Gamma || b.Fingerprint != fp {
		log.Close()
		return fmt.Errorf("wire: journal written for a different instance (fingerprint %x, want %x)", b.Fingerprint, fp)
	}
	for _, r := range recs[1:] {
		switch r := r.(type) {
		case wal.Commit:
			if s.tourDone {
				log.Close()
				return errors.New("wire: journal has a Commit after End")
			}
			if err := s.applyCommit(r); err != nil {
				log.Close()
				return err
			}
		case wal.End:
			s.tourDone = true
		default:
			log.Close()
			return fmt.Errorf("wire: unexpected journal record kind %d", r.Kind())
		}
	}
	// Re-validate the replayed state before trusting it: the partial
	// allocation must be feasible and Lemma 1 must hold.
	inst.RecomputeData(s.res.Alloc)
	if _, err := inst.Validate(s.res.Alloc); err != nil {
		log.Close()
		return fmt.Errorf("wire: journal replays to infeasible allocation: %w", err)
	}
	if err := s.res.CheckLemma1(); err != nil {
		log.Close()
		return fmt.Errorf("wire: journal replays to Lemma 1 violation: %w", err)
	}
	s.resumeFrom = s.committedIv + 1
	s.log = log
	return nil
}

// applyCommit replays one committed interval into the ledger: the
// registrations, the slot owners, and the stored debits — the exact
// clamped subtraction the live commit performed, so residuals are
// bit-identical to the pre-crash process.
func (s *Sink) applyCommit(c wal.Commit) error {
	inst := s.cfg.Inst
	if c.Interval != s.committedIv+1 {
		return fmt.Errorf("wire: journal commits interval %d after %d", c.Interval, s.committedIv)
	}
	res := s.res
	for _, id := range c.Registered {
		if id >= len(inst.Sensors) {
			return fmt.Errorf("wire: journal registers unknown sensor %d", id)
		}
		res.RegisteredIn[id] = append(res.RegisteredIn[id], c.Interval)
	}
	for _, p := range c.Pairs {
		if p.Slot >= inst.T || p.Sensor >= len(inst.Sensors) {
			return fmt.Errorf("wire: journal assigns slot %d to sensor %d out of range", p.Slot, p.Sensor)
		}
		if res.Alloc.SlotOwner[p.Slot] != -1 {
			return fmt.Errorf("wire: journal double-books slot %d", p.Slot)
		}
		res.Alloc.SlotOwner[p.Slot] = p.Sensor
	}
	for _, d := range c.Debits {
		if d.Sensor >= len(inst.Sensors) {
			return fmt.Errorf("wire: journal debits unknown sensor %d", d.Sensor)
		}
		res.Residual[d.Sensor] = math.Max(0, res.Residual[d.Sensor]-d.Energy)
		if !math.IsInf(res.ResidualData[d.Sensor], 1) {
			res.ResidualData[d.Sensor] = math.Max(0, res.ResidualData[d.Sensor]-d.Data)
		}
	}
	// Reconstruct the message counters the live run would have tallied.
	// Retransmission and repair-unicast counts are not journaled (they
	// are transport effort, not tour state) and restart at zero.
	res.Messages.Probes++
	if len(c.Registered) > 0 {
		res.Messages.Acks += len(c.Registered)
		res.Messages.Schedules++
		res.Messages.Finishes++
	}
	s.committedIv = c.Interval
	return nil
}

// instanceFingerprint folds the tour-defining parameters — shape, slot
// length, radio range, and every sensor's budget, window, position, and
// data cap — into one hash, so a journal cannot be replayed against a
// different deployment.
func instanceFingerprint(inst *core.Instance) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(inst.T))
	put(uint64(inst.Gamma))
	put(math.Float64bits(inst.Tau))
	put(math.Float64bits(inst.Range))
	for i := range inst.Sensors {
		sn := &inst.Sensors[i]
		put(uint64(sn.ID))
		put(math.Float64bits(sn.Budget))
		put(uint64(int64(sn.Start)))
		put(uint64(int64(sn.End)))
		put(math.Float64bits(sn.Pos.X))
		put(math.Float64bits(sn.Pos.Y))
		put(math.Float64bits(inst.DataCapOf(i)))
	}
	return h.Sum64()
}

// Addr returns the bound listen address ("127.0.0.1:port").
func (s *Sink) Addr() string { return s.ln.Addr().String() }

// Close tears down the listener, all sensor connections, and the
// journal; a RunTour in progress returns an error wrapping
// net.ErrClosed. Connections linger: each is half-closed, so its peer
// reads every frame already written and then EOF, and its handler reads
// and discards until the peer hangs up. Close then closes every
// connection outright once all handlers have returned, or after
// lingerTimeout. Closing a socket that still holds unread input (the
// last interval's Confirm Acks, typically) would instead reset the
// peer's connection, which can lose it the final frames.
func (s *Sink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*Conn, 0, len(s.open))
	for c := range s.open {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	lingered := make(chan struct{})
	go func() {
		for _, c := range conns {
			c.closeWrite()
		}
		s.handlers.Wait()
		close(lingered)
	}()
	timer := time.NewTimer(lingerTimeout)
	select {
	case <-lingered:
	case <-timer.C:
	}
	timer.Stop()
	for _, c := range conns {
		c.Close()
	}
	if s.log != nil {
		s.log.Close()
	}
	return err
}

func (s *Sink) acceptLoop() {
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConnOpts(raw, s.cfg.Conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.open[c] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.open, c)
			s.mu.Unlock()
		}()
	}
}

// handle runs one connection: Hello, then the Resume/Sync session
// handshake, then the protocol read loop feeding the inbox. The conn
// only joins the broadcast set after its Sync is on the wire, so a
// resuming sensor never sees interval traffic before its session state.
// When the read loop ends, handle sends the connection's closed marker
// behind every message it forwarded — unless the sink is closing, when
// it instead drains the conn until the peer hangs up (see Close).
func (s *Sink) handle(c *Conn) {
	hello, err := c.ServerHandshake()
	if err != nil {
		c.Close()
		return
	}
	id := hello.Sensor
	if id >= len(s.cfg.Inst.Sensors) {
		c.Close()
		return
	}
	m, err := c.ReadMsg()
	if err != nil {
		c.Close()
		return
	}
	rs, ok := m.(*Resume)
	if !ok || rs.Token != hello.Token {
		c.Close()
		return
	}
	sync, old := s.attach(id, c, rs)
	if sync == nil { // sink closed
		c.Close()
		return
	}
	if old != nil {
		old.Close() // kick the stale connection owning this session
	}
	if err := c.WriteMsg(sync); err != nil {
		s.detachSession(id, c)
		c.Close()
		return
	}
	// Join the write plane before the conn set: any broadcast that sees
	// the conn in s.conns must find its shard queue already live.
	var sc *sconn
	if s.bc != nil {
		sc = s.bc.add(id, c)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if sc != nil {
			s.bc.remove(id, sc)
		}
		s.detachSession(id, c)
		c.Close()
		return
	}
	s.conns[id] = c
	s.joinedIDs[id] = true
	s.mu.Unlock()
	openConns.Inc()
	var stopHB func()
	if s.cfg.Heartbeat > 0 {
		stopHB = c.StartHeartbeat(s.cfg.Heartbeat)
	}
	defer func() {
		if stopHB != nil {
			stopHB()
		}
		s.mu.Lock()
		if s.conns[id] == c {
			delete(s.conns, id)
		}
		s.mu.Unlock()
		if sc != nil {
			s.bc.remove(id, sc)
		}
		s.detachSession(id, c)
		openConns.Dec()
		c.Close()
		select {
		case s.inbox <- inbound{sensor: id}:
		case <-s.done:
		}
	}()
	for {
		m, err := c.ReadMsg()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				heartbeatTimeouts.Inc()
			}
			return
		}
		if _, ok := m.(*Heartbeat); ok {
			continue // liveness traffic, not protocol
		}
		select {
		case s.inbox <- inbound{sensor: id, msg: m}:
		case <-s.done: // closing: discard
		}
	}
}

// attach reconciles a Resume claim against the session table and builds
// the answering Sync. It returns the stale conn to kick when the session
// was still nominally owned, and nil Sync when the sink is closed.
func (s *Sink) attach(id int, c *Conn, rs *Resume) (*Sync, *Conn) {
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil
	}
	sess := s.sessions[id]
	resumed := sess != nil && rs.Token != 0 && sess.token == rs.Token &&
		(sess.owner != nil || now.Sub(sess.lastGone) <= s.ttl)
	var old *Conn
	if sess != nil && sess.owner != nil {
		old = sess.owner
		if s.conns[id] == old {
			delete(s.conns, id)
		}
	}
	if !resumed {
		s.nextToken++
		sess = &session{token: s.nextToken}
		s.sessions[id] = sess
	}
	sess.owner = c
	sess.lastGone = time.Time{}
	token := sess.token
	s.mu.Unlock()

	s.lmu.Lock()
	committed := s.committedIv
	budget := s.res.Residual[id]
	dataLeft := s.res.ResidualData[id]
	s.lmu.Unlock()

	missed := 0
	if resumed && committed > rs.LastInterval {
		missed = committed - rs.LastInterval
	}
	if resumed {
		sessionsResumed.Inc()
	}
	return &Sync{
		Resumed: resumed, Token: token, Interval: committed,
		Missed: missed, Budget: budget, DataLeft: dataLeft,
	}, old
}

// detachSession marks the session disconnected iff c still owns it (a
// newer conn may have taken it over).
func (s *Sink) detachSession(id int, c *Conn) {
	s.mu.Lock()
	if sess := s.sessions[id]; sess != nil && sess.owner == c {
		sess.owner = nil
		sess.lastGone = time.Now()
	}
	s.mu.Unlock()
}

// WaitSensors blocks until the configured number of distinct sensors has
// completed the handshake (or the context expires).
func (s *Sink) WaitSensors(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.joinedIDs)
		s.mu.Unlock()
		if n >= s.cfg.Sensors {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("wire: %w waiting for sensors (%d/%d joined)", ctx.Err(), n, s.cfg.Sensors)
		case <-tick.C:
		}
	}
}

// connOf returns the sensor's current connection (nil while down). The
// broadcast and repair paths look connections up live rather than from a
// per-interval snapshot, so a sensor that resumed mid-interval is
// reachable the moment its Sync is written.
func (s *Sink) connOf(id int) *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[id]
}

// liveIDs returns the connected sensor indices, ascending.
func (s *Sink) liveIDs() []int {
	s.mu.Lock()
	ids := make([]int, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Ints(ids)
	return ids
}

// reachableLocked reports whether the sensor is connected or holds a
// resumable session — disconnected for less than the TTL, so it may
// reconnect mid-interval. The caller holds s.mu.
func (s *Sink) reachableLocked(id int, now time.Time) bool {
	if s.conns[id] != nil {
		return true
	}
	sess := s.sessions[id]
	return sess != nil && (sess.owner != nil || now.Sub(sess.lastGone) <= s.ttl)
}

// reachableIDs returns the sensors the recovery-mode registration phase
// should solicit, ascending: everyone connected plus everyone whose
// session is still within its TTL — a sensor whose connection just died
// may resume before the registration window closes, and writing it off
// immediately would let a fast tour outrun every reconnect.
func (s *Sink) reachableIDs() []int {
	now := time.Now()
	var ids []int
	s.mu.Lock()
	for id := range s.cfg.Inst.Sensors {
		if s.reachableLocked(id, now) {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	return ids
}

// dropConn discards a connection whose write failed; its sensor may
// still resume its session from a fresh connection. Once the sink is
// closing, Close owns the conn's teardown (the lingering close), so
// dropConn leaves it open.
func (s *Sink) dropConn(id int, c *Conn) {
	s.mu.Lock()
	if s.conns[id] == c {
		delete(s.conns, id)
	}
	closing := s.closed
	s.mu.Unlock()
	if s.bc != nil {
		s.bc.removeConn(id, c)
	}
	if !closing {
		c.Close()
	}
}

// RunTour drives one tour of the online protocol over the connected
// sensors and returns the same Result as online.Run: on a lossless
// network with Recovery nil, byte-identical allocations, collected data,
// residual budgets, and message counts. With Recovery set, Result.Fault
// tallies the sink-observable recoveries (retransmission rounds, budget
// clamps, missed schedules, repairs, lost slots, degraded intervals);
// network-side drop counts live in the chaos layer, which the sink
// cannot observe. With a WAL configured the tour starts at the first
// uncommitted interval — on a fresh journal that is interval 0; on a
// replayed one it is wherever the previous process died.
func (s *Sink) RunTour(ctx context.Context) (*online.Result, error) {
	inst := s.cfg.Inst
	res := s.res
	var st *fault.Stats
	if s.rec != nil {
		st = &fault.Stats{}
		res.Fault = st
	}
	gamma := inst.Gamma
	intervals := (inst.T + gamma - 1) / gamma
	res.Intervals = intervals
	if !s.recoverStart.IsZero() {
		recoverySeconds.Observe(time.Since(s.recoverStart).Seconds())
		s.recoverStart = time.Time{}
	}
	ran := 0
	for j := s.resumeFrom; j < intervals && !s.tourDone; j++ {
		start := j * gamma
		end := start + gamma - 1
		if end >= inst.T {
			end = inst.T - 1
		}
		iv := online.Interval{Index: j, Start: start, End: end}
		if err := s.runInterval(ctx, iv, res, st); err != nil {
			return nil, fmt.Errorf("wire: interval %d: %w", j, err)
		}
		ran++
		if s.cfg.HaltAfter > 0 && ran >= s.cfg.HaltAfter && j+1 < intervals {
			return res, ErrHalted
		}
	}
	// Drain the write plane before declaring the tour done, so the final
	// Finish frames are on the wire before the caller tears the sink
	// down. A HaltAfter "crash" returns above without flushing — frames
	// a real crash would lose stay lost, and the Resume/Sync min-residual
	// adoption heals the divergence bit-exactly.
	if s.bc != nil {
		if err := s.bc.Flush(ctx); err != nil {
			return nil, fmt.Errorf("wire: final flush: %w", err)
		}
	}
	if s.log != nil && !s.tourDone {
		if err := s.log.Append(wal.End{}); err != nil {
			return nil, fmt.Errorf("wire: journal end: %w", err)
		}
	}
	inst.RecomputeData(res.Alloc)
	res.Data = res.Alloc.Data
	if _, err := inst.Validate(res.Alloc); err != nil {
		return nil, fmt.Errorf("wire: produced infeasible allocation: %w", err)
	}
	return res, nil
}

// runInterval executes one probe → ack → schedule → finish cycle over
// the wire, journaling the commit before the Finish broadcast so a
// crash between the two cannot lose a debit the sensors performed.
func (s *Sink) runInterval(ctx context.Context, iv online.Interval, res *online.Result, st *fault.Stats) error {
	inst := s.cfg.Inst
	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)
	probe := &Probe{Interval: iv.Index, Start: iv.Start, End: iv.End, SinkX: sinkPos.X, SinkY: sinkPos.Y}

	probeAt := time.Now()
	regs, err := s.registration(ctx, iv, probe, res, st)
	if err != nil {
		return err
	}
	regRoundtrip.Observe(time.Since(probeAt).Seconds())

	// regs come in canonical order (ascending sensor index, matching the
	// in-process runner regardless of Ack arrival order). The recovery
	// path adds a feasibility guard: a stale claim — the sensor missed a
	// Finish and never debited — is clamped against the sink's ledger.
	ids := make([]int, len(regs))
	for k := range regs {
		r := &regs[k]
		id := r.Sensor
		ids[k] = id
		res.RegisteredIn[id] = append(res.RegisteredIn[id], iv.Index)
		if s.rec != nil {
			if r.Budget > res.Residual[id] {
				st.BudgetClamps++
				r.Budget = res.Residual[id]
			}
			if !math.IsInf(res.ResidualData[id], 1) && r.DataLeft > res.ResidualData[id] {
				r.DataLeft = res.ResidualData[id]
			}
		}
	}
	if len(regs) == 0 {
		// Nobody answered; the sink idles this interval. The empty commit
		// still journals so a restarted sink resumes past it.
		if err := s.commitInterval(iv.Index, nil, nil, nil, nil); err != nil {
			return err
		}
		intervalCommitNs.Observe(float64(time.Since(probeAt).Nanoseconds()))
		return nil
	}

	computeAt := time.Now()
	assign, err := s.schedule(ctx, iv, regs, st)
	if err != nil {
		return err
	}
	intervalCompute.Observe(time.Since(computeAt).Seconds())

	// Schedule broadcast to the registered sensors (slot → sensor pairs
	// sorted by slot; one logical broadcast regardless of fan-out).
	pairs := make([]Assign, 0, len(assign))
	for slot, sensor := range assign {
		pairs = append(pairs, Assign{Slot: slot, Sensor: sensor})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].Slot < pairs[b].Slot })
	s.broadcast(&Schedule{Interval: iv.Index, Pairs: pairs}, ids)
	res.Messages.Schedules++

	var committed []wal.Assign
	spend := make(map[int]float64)
	dataSpend := make(map[int]float64)
	if s.rec == nil {
		s.lmu.Lock()
		err := online.ApplyAssignment(inst, iv, regs, assign, res)
		s.lmu.Unlock()
		if err != nil {
			return err
		}
		// Mirror ApplyAssignment's commit exactly — ascending slot order,
		// identical accumulation — so the journaled debits reproduce the
		// live residuals bit-for-bit on replay.
		for _, p := range pairs {
			spend[p.Sensor] += inst.Sensors[p.Sensor].PowerAt(p.Slot) * inst.Tau
			dataSpend[p.Sensor] += inst.Sensors[p.Sensor].RateAt(p.Slot) * inst.Tau
			committed = append(committed, wal.Assign{Slot: p.Slot, Sensor: p.Sensor})
		}
	} else {
		confirmed, err := s.collectConfirms(ctx, iv, assign)
		if err != nil {
			return err
		}
		s.lmu.Lock()
		committed, err = s.commitRecover(iv, regs, assign, confirmed, res, st, spend, dataSpend)
		s.lmu.Unlock()
		if err != nil {
			return err
		}
	}
	if err := s.commitInterval(iv.Index, ids, committed, spend, dataSpend); err != nil {
		return err
	}
	intervalCommitNs.Observe(float64(time.Since(probeAt).Nanoseconds()))

	// Finish broadcast: the registered sensors debit their budgets on
	// receipt; TCP ordering delivers it before the next interval's Probe,
	// so every later registration claim reflects the debit.
	s.broadcast(&Finish{Interval: iv.Index}, ids)
	res.Messages.Finishes++
	return nil
}

// commitInterval journals the sealed interval (when a WAL is configured)
// and advances the committed-interval watermark the session handshake
// reports to resuming sensors.
func (s *Sink) commitInterval(interval int, ids []int, pairs []wal.Assign, spend, dataSpend map[int]float64) error {
	if s.log != nil {
		rec := wal.Commit{Interval: interval, Registered: ids, Pairs: pairs}
		sensors := make([]int, 0, len(spend))
		for sensor := range spend {
			sensors = append(sensors, sensor)
		}
		sort.Ints(sensors)
		for _, sensor := range sensors {
			rec.Debits = append(rec.Debits, wal.Debit{
				Sensor: sensor, Energy: spend[sensor], Data: dataSpend[sensor],
			})
		}
		if err := s.log.Append(rec); err != nil {
			return fmt.Errorf("journal commit: %w", err)
		}
	}
	s.lmu.Lock()
	s.committedIv = interval
	s.lmu.Unlock()
	return nil
}

// broadcast fans one frame out to the listed sensors. On the sharded
// plane the frame is encoded once and handed to the writer shards, so
// the observed fan-out time is the interval loop's stall — delivery
// proceeds concurrently on the per-shard writers, and a failed conn is
// discarded by its shard through dropConn. Legacy serial mode (Shards
// negative) is the original in-line write loop, timed end to end.
func (s *Sink) broadcast(m Msg, ids []int) {
	start := time.Now()
	if s.bc != nil {
		_ = s.bc.Broadcast(m, ids)
	} else {
		for _, id := range ids {
			c := s.connOf(id)
			if c == nil {
				continue
			}
			if err := c.WriteMsg(m); err != nil {
				s.dropConn(id, c)
			}
		}
	}
	broadcastFanout.Observe(float64(time.Since(start).Nanoseconds()))
}

// registration runs the interval's registration phase and returns the
// heard claims in ascending sensor order. With Recovery nil it is the
// idealized exchange: every connected sensor answers every probe
// (register or decline), so the window closes exactly when all answers
// are in — no timers, no drops, and Ack counts that match the in-process
// run. With Recovery set it runs timed windows with up to MaxRetries
// retransmit rounds unicast to the sensors still silent; a sensor that
// loses its connection mid-window and resumes its session before the
// next round is re-probed like any other straggler.
func (s *Sink) registration(ctx context.Context, iv online.Interval, probe *Probe, res *online.Result, st *fault.Stats) ([]online.Registration, error) {
	var all []int
	mark := ansWaiting
	if s.rec == nil {
		all = s.liveIDs()
	} else {
		// Recovery mode also waits (bounded by the windows) for sensors
		// whose connection died but whose session is inside its TTL: they
		// may resume before the window closes and answer a retransmit.
		// Each round counts down the ones reachable at its start.
		all = s.reachableIDs()
		mark = ansUnreached
	}
	s.broadcast(probe, all)
	res.Messages.Probes++
	for _, id := range all {
		s.ans[id].state = mark
	}
	err := s.awaitAnswers(ctx, iv, probe, all, res, st)
	var regs []online.Registration
	for _, id := range all {
		a := &s.ans[id]
		if a.state == ansClaimed {
			regs = append(regs, a.reg)
		}
		a.state = ansNone
	}
	if err != nil {
		return nil, err
	}
	return regs, nil
}

// awaitAnswers runs the registration windows over the marked probe set.
// Idealized mode counts every probed sensor down once, with no timer.
// Recovery mode recomputes the countdown at each round boundary from the
// sensors still silent and reachable then, so a session TTL that expires
// mid-round is noticed at the next boundary.
func (s *Sink) awaitAnswers(ctx context.Context, iv online.Interval, probe *Probe, all []int, res *online.Result, st *fault.Stats) error {
	if s.rec == nil {
		return s.countDown(ctx, len(all), nil, iv.Index, res)
	}
	for attempt := 0; attempt <= s.rec.MaxRetries; attempt++ {
		pending := s.countReachable(all)
		if len(pending) == 0 {
			break
		}
		if attempt > 0 {
			// One retransmission round: re-probe the stragglers (unicast,
			// but tallied as one round like the in-process recovery).
			rp := *probe
			rp.Attempt = attempt
			s.broadcast(&rp, pending)
			res.Messages.Retransmits++
			st.ProbeRetransmissions++
		}
		timer := time.NewTimer(s.rec.RegWindow)
		err := s.countDown(ctx, len(pending), timer.C, iv.Index, res)
		timer.Stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// countDown is one registration window: it settles inbox messages until
// the left counted sensors have all settled or expire fires (never, when
// nil), so each message costs O(1).
func (s *Sink) countDown(ctx context.Context, left int, expire <-chan time.Time, interval int, res *online.Result) error {
	for left > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return errClosed
		case <-expire:
			return nil
		case in := <-s.inbox:
			if s.settle(in, interval, res) {
				left--
			}
		}
	}
	return nil
}

// countReachable starts a recovery round: every probed sensor still
// silent is counted down this round if it is connected or holds a
// session within its TTL, and otherwise left unreached. It returns the
// counted ids, ascending.
func (s *Sink) countReachable(all []int) []int {
	now := time.Now()
	var pending []int
	s.mu.Lock()
	for _, id := range all {
		a := &s.ans[id]
		if a.state != ansWaiting && a.state != ansUnreached {
			continue
		}
		a.state = ansUnreached
		if s.reachableLocked(id, now) {
			a.state = ansWaiting
			pending = append(pending, id)
		}
	}
	s.mu.Unlock()
	return pending
}

// settle applies one inbox message to the registration phase and
// reports whether it settled a sensor counted in the current countdown.
// Only a probed, still-silent sensor's first valid answer settles it;
// in idealized mode so does its connection's closed marker, which
// handle sends behind every message it forwarded from that connection.
// Recovery mode ignores closed markers: the sensor may resume and
// answer a retransmit.
func (s *Sink) settle(in inbound, interval int, res *online.Result) bool {
	a := &s.ans[in.sensor]
	if a.state != ansWaiting && a.state != ansUnreached {
		return false // not probed, or already settled
	}
	if in.msg == nil {
		if s.rec != nil {
			return false
		}
		a.state = ansNone
		return true
	}
	ack, ok := in.msg.(*Ack)
	if !ok || ack.Interval != interval || ack.Kind == AckConfirm || ack.Sensor != in.sensor {
		return false // stale or out-of-phase traffic
	}
	counted := a.state == ansWaiting
	a.state = ansNone
	if ack.Kind == AckRegister {
		a.state, a.reg = ansClaimed, ack.Registration()
		res.Messages.Acks++
	}
	return counted
}

// schedule runs the interval's scheduler under the recovery stall model,
// mirroring the in-process fault path: an injected stall skips the
// primary scheduler outright; a compute-deadline overrun aborts it via
// context. Either way the degraded fallback reschedules the interval.
func (s *Sink) schedule(ctx context.Context, iv online.Interval, regs []online.Registration, st *fault.Stats) (map[int]int, error) {
	inst, sched := s.cfg.Inst, s.cfg.Scheduler
	if s.rec != nil {
		if s.rec.Stalls != nil && s.rec.Stalls.Stalled(iv.Index) {
			st.DegradedIntervals++
			return s.degraded.Schedule(ctx, inst, iv, regs)
		}
		if s.rec.ComputeDeadline > 0 {
			cctx, cancel := context.WithTimeout(ctx, s.rec.ComputeDeadline)
			assign, err := sched.Schedule(cctx, inst, iv, regs)
			cancel()
			if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				st.DegradedIntervals++
				return s.degraded.Schedule(ctx, inst, iv, regs)
			}
			return assign, err
		}
	}
	return sched.Schedule(ctx, inst, iv, regs)
}

// collectConfirms waits out the confirm window and returns the assigned
// sensors that acknowledged the Schedule broadcast. A sensor with slots
// but no confirm is crashed, deaf, or unreachable — commitRecover
// repairs its slots.
func (s *Sink) collectConfirms(ctx context.Context, iv online.Interval, assign map[int]int) (map[int]bool, error) {
	want := make(map[int]bool)
	for _, sensor := range assign {
		want[sensor] = true
	}
	confirmed := make(map[int]bool, len(want))
	timer := time.NewTimer(s.rec.ConfirmWindow)
	defer timer.Stop()
	for len(confirmed) < len(want) {
		select {
		case <-ctx.Done():
			return confirmed, nil
		case <-s.done:
			return nil, errClosed
		case <-timer.C:
			return confirmed, nil
		case in := <-s.inbox:
			if in.msg == nil {
				continue
			}
			ack, ok := in.msg.(*Ack)
			if ok && ack.Kind == AckConfirm && ack.Interval == iv.Index && want[in.sensor] {
				confirmed[in.sensor] = true
			}
		}
	}
	return confirmed, nil
}

// commitRecover is the wire counterpart of the in-process faulty commit:
// it validates the scheduler output under the protocol rules, then
// commits slot by slot, treating unconfirmed assignees as silent — one
// detection slot lost per silent sensor, remaining slots repaired to the
// best-rate eligible replacement via unicast Schedule updates. Repairs
// commit optimistically: the sink cannot observe a dropped repair
// unicast, and any resulting ledger divergence is healed by the budget
// clamp at the sensor's next registration. It returns the committed
// (slot, sensor) pairs in ascending slot order and fills spend/dataSpend
// with the per-sensor debits, for the journal.
func (s *Sink) commitRecover(iv online.Interval, regs []online.Registration, assign map[int]int, confirmed map[int]bool, res *online.Result, st *fault.Stats, spend, dataSpend map[int]float64) ([]wal.Assign, error) {
	inst := s.cfg.Inst
	regOf := make(map[int]*online.Registration, len(regs))
	for k := range regs {
		regOf[regs[k].Sensor] = &regs[k]
	}
	slots := make([]int, 0, len(assign))
	for slot, sensor := range assign {
		r, ok := regOf[sensor]
		if !ok {
			return nil, fmt.Errorf("scheduler assigned slot %d to unregistered sensor %d", slot, sensor)
		}
		if slot < r.ClipStart || slot > r.ClipEnd {
			return nil, fmt.Errorf("slot %d outside clipped window [%d,%d] of sensor %d", slot, r.ClipStart, r.ClipEnd, sensor)
		}
		if res.Alloc.SlotOwner[slot] != -1 {
			return nil, fmt.Errorf("slot %d double-booked", slot)
		}
		slots = append(slots, slot)
	}
	sort.Ints(slots)

	deaf := make(map[int]bool)
	for _, sensor := range assign {
		if !confirmed[sensor] {
			deaf[sensor] = true
		}
	}
	countedDeaf := make(map[int]bool)
	detected := make(map[int]bool)
	var committed []wal.Assign

	fits := func(sensor, slot int) bool {
		r := regOf[sensor]
		e := inst.Sensors[sensor].PowerAt(slot) * inst.Tau
		d := inst.Sensors[sensor].RateAt(slot) * inst.Tau
		if spend[sensor]+e > r.Budget+1e-9 {
			return false
		}
		return dataSpend[sensor]+d <= r.DataLeft+1e-6
	}
	commit := func(sensor, slot int) {
		spend[sensor] += inst.Sensors[sensor].PowerAt(slot) * inst.Tau
		dataSpend[sensor] += inst.Sensors[sensor].RateAt(slot) * inst.Tau
		res.Alloc.SlotOwner[slot] = sensor
		committed = append(committed, wal.Assign{Slot: slot, Sensor: sensor})
	}
	repair := func(slot, exclude int) {
		best, bestRate := -1, 0.0
		for _, r := range regs {
			i := r.Sensor
			if i == exclude || deaf[i] || detected[i] {
				continue
			}
			if slot < r.ClipStart || slot > r.ClipEnd {
				continue
			}
			rate, pw := inst.Sensors[i].RateAt(slot), inst.Sensors[i].PowerAt(slot)
			if rate <= 0 || pw <= 0 || !fits(i, slot) {
				continue
			}
			if rate > bestRate {
				best, bestRate = i, rate
			}
		}
		if best < 0 {
			st.LostSlots++
			return
		}
		fix := &Schedule{Interval: iv.Index, Repair: true, Pairs: []Assign{{Slot: slot, Sensor: best}}}
		if s.bc != nil {
			// Shard-routed unicast: FIFO behind the interval's Schedule
			// broadcast, so the repair cannot overtake it. Delivery is
			// asynchronous and optimistic, exactly like a repair whose
			// frame the network dropped (see the commit rules above).
			if !s.bc.Unicast(best, fix) {
				st.LostSlots++
				return
			}
		} else if c := s.connOf(best); c != nil {
			if err := c.WriteMsg(fix); err != nil {
				s.dropConn(best, c)
				st.LostSlots++
				return
			}
		} else {
			st.LostSlots++
			return
		}
		res.Messages.RepairUnicasts++
		st.RepairedSlots++
		commit(best, slot)
	}

	for _, slot := range slots {
		sensor := assign[slot]
		switch {
		case deaf[sensor]:
			if !countedDeaf[sensor] {
				countedDeaf[sensor] = true
				st.SchedulesMissed++
			}
			if !detected[sensor] {
				// The sink spends this slot discovering the silence.
				detected[sensor] = true
				st.LostSlots++
				continue
			}
			repair(slot, sensor)
		case detected[sensor]:
			repair(slot, sensor)
		case !fits(sensor, slot):
			// Only possible after a repair consumed this sensor's budget;
			// the sink made that repair, so it reassigns proactively.
			repair(slot, sensor)
		default:
			commit(sensor, slot)
		}
	}

	// Debit the ledger exactly like the fault-free path: per-sensor
	// accumulation in ascending slot order, one subtraction per sensor.
	for sensor, e := range spend {
		res.Residual[sensor] = math.Max(0, res.Residual[sensor]-e)
		if !math.IsInf(res.ResidualData[sensor], 1) {
			res.ResidualData[sensor] = math.Max(0, res.ResidualData[sensor]-dataSpend[sensor])
		}
	}
	return committed, nil
}
