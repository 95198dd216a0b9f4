package wire

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
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
	// (internal/fault Alive rolls), and one the plan cuts short writes
	// its harvest shortfall off at its Probes. Message-level drops belong
	// to the network, i.e. ChaosProxy.
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

// SensorClient carries one sensor's online.Endpoint over one connection
// at a time: it keeps the socket, the session handshake, the heartbeat
// and the redial, and hands every Probe, Schedule, Finish and Sync to
// the endpoint under its mutex. The endpoint decides the answers and
// debits itself on Finish with the sink ledger's own arithmetic, which
// is what makes wire and in-process residuals bit-identical on lossless
// networks. After a disconnect the client can redial and resume its
// session: the endpoint adopts the Sync's committed interval and the
// lower of the two residual views, so a sensor can never talk itself
// into budget it no longer has.
type SensorClient struct {
	cfg  SensorConfig
	addr string
	rng  *rand.Rand

	mu         sync.Mutex
	ep         *online.Endpoint
	conn       *Conn
	token      uint64
	userClosed bool
}

// DialSensor connects and handshakes a sensor endpoint. Callers then run
// its protocol loop via Run.
func DialSensor(addr string, cfg SensorConfig) (*SensorClient, error) {
	c := &SensorClient{cfg: cfg, addr: addr}
	c.ep = online.NewEndpoint(&c.cfg.Sensor, cfg.Tau, cfg.Range, cfg.DataCap, cfg.Faults)
	if rd := cfg.Redial; rd != nil {
		c.rng = rand.New(rand.NewSource(rd.Seed ^ int64(uint64(c.cfg.Sensor.ID)*0x9e3779b97f4a7c15)))
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials the sink and runs the handshake: a Hello carrying the
// session token and last committed interval, answered by the sink's
// Sync. On success the client adopts the sink's session token and the
// endpoint syncs to the Sync.
func (c *SensorClient) connect() error {
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	conn := NewConnOpts(raw, c.cfg.Conn)
	c.mu.Lock()
	token, last := c.token, c.ep.Finished()
	c.mu.Unlock()
	sync, err := conn.ClientHandshake(c.cfg.Sensor.ID, token, last)
	if err != nil {
		conn.Close()
		return err
	}
	c.mu.Lock()
	c.token, c.conn = sync.Token, conn
	c.ep.Sync(sync.Interval, sync.Budget, sync.DataLeft)
	c.mu.Unlock()
	if c.cfg.Heartbeat > 0 {
		conn.StartHeartbeat(c.cfg.Heartbeat)
	}
	return nil
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
	energy, _ := c.ep.Residual()
	return energy
}

// ResidualData returns the sensor's remaining queued data, bits.
func (c *SensorClient) ResidualData() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, data := c.ep.Residual()
	return data
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
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
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
		if reply := c.answer(m); reply != nil {
			if err := conn.WriteMsg(reply); err != nil {
				conn.Close()
				return err
			}
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

// answer hands one frame to the endpoint and returns the reply it
// decides on, if any: a decline or a claim to a Probe, a Confirm to a
// Schedule broadcast. Heartbeats and other frames get none.
func (c *SensorClient) answer(m Msg) Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := m.(type) {
	case *Probe:
		iv := online.Interval{Index: m.Interval, Start: m.Start, End: m.End}
		switch ans, reg := c.ep.Probe(iv, geom.Point{X: m.SinkX, Y: m.SinkY}); ans {
		case online.AnswerDecline:
			return &Ack{Kind: AckDecline, Interval: m.Interval, Attempt: m.Attempt, Sensor: c.cfg.Sensor.ID}
		case online.AnswerRegister:
			return RegisterAck(m.Interval, m.Attempt, reg)
		}
	case *Schedule:
		if c.ep.Schedule(m.Interval, m.Pairs, m.Repair) {
			return &Ack{Kind: AckConfirm, Interval: m.Interval, Sensor: c.cfg.Sensor.ID}
		}
	case *Finish:
		c.ep.Finish(m.Interval)
	}
	return nil
}
