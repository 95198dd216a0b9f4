package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/online"
	"mobisink/internal/wal"
)

// ErrHalted is returned by RunTour when SinkConfig.HaltAfter stopped the
// tour early; a new Sink on the same WAL resumes it.
var ErrHalted = online.ErrHalted

// Recovery enables the sink server's self-healing machinery, the wire
// counterpart of online.Options.Faults: bounded probe retransmission,
// stale-budget clamps, confirm-based silence detection with schedule
// repair, and degraded-mode fallback. Nil Recovery runs the paper's
// idealized protocol: the sink probes the connected sensors its radio
// reaches and waits for every one's answer with no timers, which is what
// makes the fault-free tour byte-identical to online.Run.
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
	// (Plan.StallProb/StallIntervals) that force the degraded fallback
	// (density greedy; Sequential on data-capped instances), mirroring
	// the in-process fault path.
	Stalls *fault.Injector
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
	// WALPath, when non-empty, names the tour's journal (internal/wal).
	// A journal already there for this instance is replayed bit-for-bit,
	// and RunTour resumes at the first uncommitted interval.
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

// Sink is the mobile sink as a TCP server: it accepts long-lived sensor
// connections, keeps their sessions, and runs a tour built by
// online.NewTour over them, as the in-process runner does; its
// sinkTransport only moves the frames. Sensors that disconnect mid-tour
// may resume their session (a Hello answered by a Sync) within the
// session TTL; with a WAL configured the sink itself may die and a
// successor resume the tour from the journal.
type Sink struct {
	cfg   SinkConfig
	rec   *Recovery
	ln    net.Listener
	inbox chan inbound
	done  chan struct{}
	// bc is the write plane.
	bc *broadcaster

	// drv runs the tour on RunTour's goroutine; the session handshake
	// reads the residuals and the committed interval through its ledger.
	drv *online.Driver
	led *online.Ledger
	// recoverStart is when NewSink found a journal to replay.
	recoverStart time.Time

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

// NewSink opens the journal (when configured), builds the tour on it,
// binds the listener, and starts accepting sensor connections. Callers
// must Close it.
func NewSink(cfg SinkConfig) (*Sink, error) {
	s := &Sink{
		rec:       cfg.Recovery,
		done:      make(chan struct{}),
		conns:     make(map[int]*Conn),
		open:      make(map[*Conn]struct{}),
		sessions:  make(map[int]*session),
		joinedIDs: make(map[int]bool),
	}
	var fb *online.Fallback
	retries := 0
	if s.rec != nil {
		retries = s.rec.MaxRetries
		if s.rec.RegWindow <= 0 {
			s.rec.RegWindow = 100 * time.Millisecond
		}
		if s.rec.ConfirmWindow <= 0 {
			s.rec.ConfirmWindow = 100 * time.Millisecond
		}
		fb = &online.Fallback{Stalls: s.rec.Stalls}
	}
	var log online.Journal // nil unless opened: a nil *wal.Log is not
	var recs []wal.Record
	if cfg.WALPath != "" {
		l, r, err := wal.Open(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		log, recs = l, r
		if len(recs) > 0 {
			s.recoverStart = time.Now()
		}
	}
	drv, err := online.NewTour(cfg.Inst, cfg.Scheduler, fb, retries, log, recs, func(res *online.Result) online.Transport {
		return &sinkTransport{s: s, res: res, ans: make([]uint8, len(cfg.Inst.Sensors)), silent: make(map[int]bool)}
	})
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, fmt.Errorf("wire: %w", err)
	}
	s.drv, s.led = drv, drv.Ledger()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Sensors == 0 {
		cfg.Sensors = len(cfg.Inst.Sensors)
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Minute
	}
	s.cfg = cfg
	s.inbox = make(chan inbound, max(256, 16*cfg.Sensors))
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		drv.Close()
		return nil, err
	}
	s.ln = ln
	s.bc = newBroadcaster(writeQueue, s.done, s.dropConn)
	go s.acceptLoop()
	return s, nil
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
	s.drv.Close()
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

// handle runs one connection: the sensor's Hello, answered by a Sync,
// then the protocol read loop feeding the inbox. A first frame that is
// not a Hello from one of the instance's sensors closes the conn with
// nothing written. The conn only joins the broadcast set after its Sync
// is on the wire, so a resuming sensor never sees interval traffic
// before its session state. When the read loop ends, handle sends the
// connection's closed marker behind every message it forwarded —
// unless the sink is closing, when it instead drains the conn until the
// peer hangs up (see Close).
func (s *Sink) handle(c *Conn) {
	m, err := c.ReadMsg()
	hello, ok := m.(*Hello)
	if err != nil || !ok || hello.Sensor >= len(s.cfg.Inst.Sensors) {
		c.Close()
		return
	}
	id := hello.Sensor
	sync, old := s.attach(id, c, hello)
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
	// the conn in s.conns must find its write queue already live.
	sc := s.bc.add(id, c)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.bc.remove(id, sc)
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
		s.bc.remove(id, sc)
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

// attach reconciles a Hello's session claim against the session table
// and builds the answering Sync. It returns the stale conn to kick when
// the session was still nominally owned, and nil Sync when the sink is
// closed.
func (s *Sink) attach(id int, c *Conn, h *Hello) (*Sync, *Conn) {
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil
	}
	sess := s.sessions[id]
	resumed := sess != nil && h.Token != 0 && sess.token == h.Token &&
		(sess.owner != nil || now.Sub(sess.lastGone) <= s.cfg.SessionTTL)
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

	committed := s.led.Committed()
	budget, dataLeft := s.led.Residual(id)

	missed := 0
	if resumed && committed > h.LastInterval {
		missed = committed - h.LastInterval
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

// reachableLocked reports whether a Probe can reach the sensor: it is
// connected or, in Recovery mode, holds a resumable session —
// disconnected for less than the TTL, so it may reconnect before the
// round closes, and writing it off at once would let a fast tour outrun
// every reconnect. The caller holds s.mu.
func (s *Sink) reachableLocked(id int, now time.Time) bool {
	if s.conns[id] != nil {
		return true
	}
	sess := s.sessions[id]
	return s.rec != nil && sess != nil && (sess.owner != nil || now.Sub(sess.lastGone) <= s.cfg.SessionTTL)
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
	s.bc.removeConn(id, c)
	if !closing {
		c.Close()
	}
}

// RunTour drives the tour over the connected sensors from its first
// uncommitted interval. On a lossless network with Recovery nil it
// returns the same Result as online.Run, byte for byte. With Recovery
// set, Result.Fault tallies the recoveries the sink can observe;
// network-side drop counts live in the chaos layer.
func (s *Sink) RunTour(ctx context.Context) (*online.Result, error) {
	if !s.recoverStart.IsZero() {
		recoverySeconds.Observe(time.Since(s.recoverStart).Seconds())
		s.recoverStart = time.Time{}
	}
	return s.drv.Run(ctx, s.cfg.HaltAfter)
}

// broadcast fans one frame out to the listed sensors: the frame is
// encoded once and handed to the fan-out worker, so the observed fan-out
// time is the interval loop's stall — delivery proceeds concurrently on
// the per-conn writers, and a failed conn is discarded through
// dropConn.
func (s *Sink) broadcast(m Msg, ids []int) {
	start := time.Now()
	_ = s.bc.Broadcast(m, ids)
	broadcastFanout.Observe(float64(time.Since(start).Nanoseconds()))
}
