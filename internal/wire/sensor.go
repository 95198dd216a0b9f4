package wire

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/geom"
	"mobisink/internal/online"
)

// Redial configures the client's reconnect policy. When set, a transport
// failure (connection killed, sink restarted) triggers jittered
// exponential-backoff redials that resume the session via the sensor's
// token; when nil, Run keeps the pre-v2 behavior and treats EOF as the
// end of the tour.
type Redial struct {
	// MaxAttempts bounds redials per outage; default 8. When the budget is
	// exhausted Run returns nil — the sink is gone, the tour is over.
	MaxAttempts int
	// Base is the first backoff; default 10ms. It doubles per failed
	// attempt up to Max (default 500ms), each sleep jittered by a uniform
	// factor in [0.5, 1.5) so a fleet killed together does not redial
	// together.
	Base time.Duration
	Max  time.Duration
	// Seed makes the jitter deterministic for tests; the sensor index is
	// folded in so peers diverge even with equal seeds.
	Seed int64
}

// SensorConfig is everything a sensor endpoint knows: its own link
// profile and budgets — never the rest of the network, preserving the
// protocol's locality.
type SensorConfig struct {
	// Sensor is the endpoint's own visibility window and link profile.
	Sensor core.SensorSlots
	// Tau and Range replicate the instance's slot length and radio range
	// (global constants every deployed node knows).
	Tau   float64
	Range float64
	// DataCap is the sensed-data queue, bits; +Inf when unbounded.
	DataCap float64
	// Faults, when non-nil, drives the sensor-side failure model: a
	// sensor that is crashed at a probed or assigned slot goes silent
	// (internal/fault Alive rolls). Message-level drops belong to the
	// network, i.e. ChaosProxy.
	Faults *fault.Injector
	// Conn sets per-operation I/O deadlines; zero keeps blocking reads.
	Conn ConnOptions
	// Heartbeat, when positive, writes idle keepalives so a sink read
	// deadline sees traffic between intervals.
	Heartbeat time.Duration
	// Redial, when non-nil, enables reconnect-and-resume on transport
	// failures.
	Redial *Redial
}

// SensorConfigFor extracts sensor i's endpoint configuration from a
// built instance.
func SensorConfigFor(inst *core.Instance, i int) SensorConfig {
	return SensorConfig{
		Sensor:  inst.Sensors[i],
		Tau:     inst.Tau,
		Range:   inst.Range,
		DataCap: inst.DataCapOf(i),
	}
}

// SensorClient speaks the sensor side of the protocol over one
// connection at a time: it answers probes according to its visibility
// window and residual budgets, confirms and stores schedules, and debits
// itself on Finish receipt — the exact floating-point debit the
// in-process runner performs, which is what makes wire and in-process
// residuals bit-identical on lossless networks. After a disconnect it
// can redial and resume its session: the sink's Sync reports the
// authoritative committed interval and the client adopts the minimum of
// the two residual views, so a sensor can never talk itself into budget
// it no longer has.
type SensorClient struct {
	cfg  SensorConfig
	addr string
	rng  *rand.Rand

	mu           sync.Mutex
	id           int
	conn         *Conn
	token        uint64
	lastFinished int // last interval whose Finish this sensor applied
	residual     float64
	residualData float64
	assigned     []int // slots of the current interval, ascending
	userClosed   bool
}

// DialSensor connects and handshakes a sensor endpoint. Callers then run
// its protocol loop via Run.
func DialSensor(addr string, cfg SensorConfig) (*SensorClient, error) {
	c := &SensorClient{
		cfg:          cfg,
		addr:         addr,
		id:           cfg.Sensor.ID,
		lastFinished: -1,
		residual:     cfg.Sensor.Budget,
		residualData: cfg.DataCap,
	}
	if rd := cfg.Redial; rd != nil {
		c.rng = rand.New(rand.NewSource(rd.Seed ^ int64(uint64(c.id)*0x9e3779b97f4a7c15)))
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials the sink and runs the handshake: a Hello carrying the
// session token and last committed interval, answered by the sink's
// Sync. On success the client adopts the sink's session token, the
// committed-interval watermark, and the minimum of the two residual
// views, and drops any half-built interval state.
func (c *SensorClient) connect() error {
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	conn := NewConnOpts(raw, c.cfg.Conn)
	c.mu.Lock()
	token := c.token
	last := c.lastFinished
	c.mu.Unlock()
	sync, err := conn.ClientHandshake(c.id, token, last)
	if err != nil {
		conn.Close()
		return err
	}
	c.mu.Lock()
	c.token = sync.Token
	if sync.Interval > c.lastFinished {
		// Intervals committed while we were gone: we never transmitted in
		// them (missed probes read as declines), so no debit to reconcile.
		c.lastFinished = sync.Interval
	}
	if sync.Budget < c.residual {
		c.residual = sync.Budget
	}
	if sync.DataLeft < c.residualData {
		c.residualData = sync.DataLeft
	}
	c.assigned = nil
	c.conn = conn
	c.mu.Unlock()
	if c.cfg.Heartbeat > 0 {
		conn.StartHeartbeat(c.cfg.Heartbeat)
	}
	return nil
}

// current returns the live connection.
func (c *SensorClient) current() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// Token returns the current session token (0 before the first Sync).
func (c *SensorClient) Token() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Residual returns the sensor's remaining energy budget, J.
func (c *SensorClient) Residual() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residual
}

// ResidualData returns the sensor's remaining queued data, bits.
func (c *SensorClient) ResidualData() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residualData
}

// Close tears down the connection (Run returns nil after a local Close,
// and does not redial).
func (c *SensorClient) Close() error {
	c.mu.Lock()
	c.userClosed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// Run processes protocol messages until the sink closes the connection
// (normal end of tour, returns nil) or the context is canceled. With
// Redial configured, a transport failure instead triggers
// reconnect-and-resume; Run returns nil only when the redial budget is
// exhausted (the sink is gone) or the client was closed locally.
func (c *SensorClient) Run(ctx context.Context) error {
	for {
		err := c.serve(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		c.mu.Lock()
		closed := c.userClosed
		c.mu.Unlock()
		if closed {
			return nil
		}
		transport := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
		var ne net.Error
		if errors.As(err, &ne) {
			transport = true
		}
		if c.cfg.Redial == nil {
			// Pre-v2 semantics: a clean close is the end of the tour.
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !transport {
			return err
		}
		if !c.redial(ctx) {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return nil // sink unreachable: the tour is over for us
		}
	}
}

// serve pumps one connection until it errors; the error is always
// non-nil and Run classifies it.
func (c *SensorClient) serve(ctx context.Context) error {
	conn := c.current()
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stopped:
		}
	}()
	for {
		m, err := conn.ReadMsg()
		if err != nil {
			conn.Close() // stops the heartbeat loop before any redial
			return err
		}
		switch m := m.(type) {
		case *Probe:
			err = c.onProbe(m)
		case *Schedule:
			err = c.onSchedule(m)
		case *Finish:
			c.onFinish(m.Interval)
		default:
			// Heartbeats and unexpected-but-harmless frames; ignore.
		}
		if err != nil {
			conn.Close()
			return err
		}
	}
}

// redial reconnects with jittered exponential backoff, resuming the
// session. Returns false when the attempt budget is exhausted.
func (c *SensorClient) redial(ctx context.Context) bool {
	rd := c.cfg.Redial
	attempts := rd.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	base := rd.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxB := rd.Max
	if maxB <= 0 {
		maxB = 500 * time.Millisecond
	}
	backoff := base
	for a := 0; a < attempts; a++ {
		c.mu.Lock()
		closed := c.userClosed
		c.mu.Unlock()
		if closed {
			return false
		}
		jittered := time.Duration(float64(backoff) * (0.5 + c.rng.Float64()))
		t := time.NewTimer(jittered)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
		if backoff *= 2; backoff > maxB {
			backoff = maxB
		}
		if err := c.connect(); err == nil {
			reconnects.Inc()
			return true
		}
	}
	return false
}

// onProbe answers a registration solicitation: silence when crashed,
// a decline when out of range, otherwise a registration carrying the
// sensor's residual budgets and clipped window.
func (c *SensorClient) onProbe(p *Probe) error {
	if c.cfg.Faults != nil && !c.cfg.Faults.Alive(c.id, p.Start) {
		return nil // crashed sensors are silent, not polite
	}
	s := &c.cfg.Sensor
	sinkPos := geom.Point{X: p.SinkX, Y: p.SinkY}
	if s.Start < 0 || sinkPos.Dist(s.Pos) > c.cfg.Range {
		return c.current().WriteMsg(&Ack{Kind: AckDecline, Interval: p.Interval, Attempt: p.Attempt, Sensor: c.id})
	}
	cs, ce := s.Start, s.End
	if cs < p.Start {
		cs = p.Start
	}
	if ce > p.End {
		ce = p.End
	}
	c.mu.Lock()
	reg := online.Registration{
		Sensor: c.id, Budget: c.residual, DataLeft: c.residualData,
		ClipStart: cs, ClipEnd: ce,
	}
	conn := c.conn
	c.mu.Unlock()
	return conn.WriteMsg(RegisterAck(p.Interval, p.Attempt, reg))
}

// onSchedule stores the sensor's share of a Schedule. A broadcast with
// at least one own slot is confirmed — unless the sensor will be crashed
// at any assigned slot, in which case it stays silent and lets the sink
// detect and repair. Repair unicasts merge without confirmation,
// mirroring the in-process recovery's optimistic repair commit.
func (c *SensorClient) onSchedule(m *Schedule) error {
	var mine []int
	for _, p := range m.Pairs {
		if p.Sensor == c.id {
			mine = append(mine, p.Slot)
		}
	}
	if m.Repair {
		for _, slot := range mine {
			if c.cfg.Faults != nil && !c.cfg.Faults.Alive(c.id, slot) {
				continue
			}
			c.mu.Lock()
			c.assigned = append(c.assigned, slot)
			sort.Ints(c.assigned)
			c.mu.Unlock()
		}
		return nil
	}
	if len(mine) == 0 {
		c.mu.Lock()
		c.assigned = nil
		c.mu.Unlock()
		return nil
	}
	if c.cfg.Faults != nil {
		for _, slot := range mine {
			if !c.cfg.Faults.Alive(c.id, slot) {
				// Dying mid-interval: discard the whole assignment and stay
				// silent so the sink's confirm window catches it.
				c.mu.Lock()
				c.assigned = nil
				c.mu.Unlock()
				return nil
			}
		}
	}
	sort.Ints(mine)
	c.mu.Lock()
	c.assigned = mine
	conn := c.conn
	c.mu.Unlock()
	return conn.WriteMsg(&Ack{Kind: AckConfirm, Interval: m.Interval, Sensor: c.id})
}

// onFinish debits the interval's committed transmissions, replicating
// the in-process commit's floating-point order exactly: spends
// accumulate per slot in ascending order, then a single clamped
// subtraction per budget. The interval index becomes the client's
// committed watermark, carried in the next session handshake.
func (c *SensorClient) onFinish(interval int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var e, d float64
	for _, slot := range c.assigned {
		e += c.cfg.Sensor.PowerAt(slot) * c.cfg.Tau
		d += c.cfg.Sensor.RateAt(slot) * c.cfg.Tau
	}
	c.assigned = nil
	if interval > c.lastFinished {
		c.lastFinished = interval
	}
	if e == 0 && d == 0 {
		return
	}
	c.residual = math.Max(0, c.residual-e)
	if !math.IsInf(c.residualData, 1) {
		c.residualData = math.Max(0, c.residualData-d)
	}
}
