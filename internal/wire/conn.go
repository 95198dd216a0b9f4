package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnOptions configures a Conn's liveness behavior. The zero value is
// the pre-v2 behavior: no deadlines, reads and writes block forever.
type ConnOptions struct {
	// ReadTimeout bounds each ReadMsg call; a peer that goes silent for
	// longer surfaces a net.Error timeout instead of blocking forever.
	// When heartbeats are enabled on the peer, set this to at least 3×
	// the heartbeat period so a healthy idle peer is never cut.
	ReadTimeout time.Duration
	// WriteTimeout bounds each WriteMsg call (a peer that stops draining
	// its socket otherwise wedges the writer once buffers fill).
	WriteTimeout time.Duration
}

// ioScratch pools encode and frame-read scratch buffers shared by every
// Conn and SensorClient in the process, so a multi-thousand-connection
// sink amortizes a handful of buffers across the fleet instead of
// pinning a private write and read buffer per connection.
var ioScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// Conn frames protocol messages over a net.Conn. Reads are buffered;
// writes are serialized by a mutex and land as a single Write per frame
// so concurrent writers (a shard's queue drainer vs. the heartbeat
// loop) never interleave bytes. A Conn tracks the frames-sent/received
// counters per message type, and — when ConnOptions set timeouts —
// applies per-operation deadlines so a dead peer is detected in bounded
// time instead of never.
type Conn struct {
	raw net.Conn
	br  *bufio.Reader
	opt ConnOptions

	wmu sync.Mutex

	// lastWrite is the UnixNano of the last successful frame write; the
	// heartbeat loop consults it to write keepalives only when idle.
	lastWrite atomic.Int64

	hbStop chan struct{}
	hbOnce sync.Once
}

// NewConn wraps a transport connection with no deadlines (the pre-v2
// behavior, used by the idealized loopback paths).
func NewConn(c net.Conn) *Conn { return NewConnOpts(c, ConnOptions{}) }

// NewConnOpts wraps a transport connection with the given liveness
// options.
func NewConnOpts(c net.Conn, opt ConnOptions) *Conn {
	cn := &Conn{raw: c, br: bufio.NewReader(c), opt: opt, hbStop: make(chan struct{})}
	cn.lastWrite.Store(time.Now().UnixNano())
	return cn
}

// Close stops the heartbeat loop (if running) and closes the underlying
// connection.
func (c *Conn) Close() error {
	c.stopHeartbeat()
	return c.raw.Close()
}

// closeWrite stops the heartbeat loop and half-closes the connection
// behind any frame write in progress, so the peer reads every frame
// written so far and then EOF while this side can still read.
// Transports without half-close are closed outright.
func (c *Conn) closeWrite() error {
	c.stopHeartbeat()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if hc, ok := c.raw.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return c.raw.Close()
}

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// WriteMsg encodes and sends one message. The encode scratch comes from
// the shared pool; broadcast paths that write the same message to many
// conns should encode once (EncodeFrame) and use WriteRaw instead.
func (c *Conn) WriteMsg(m Msg) error {
	bp := ioScratch.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		ioScratch.Put(bp)
		return err
	}
	*bp = buf
	err = c.WriteRaw(m.Type(), buf)
	ioScratch.Put(bp)
	return err
}

// WriteRaw sends one pre-encoded frame under the write lock and deadline
// policy; buf must hold exactly one complete frame of type t. This is
// the encode-once fan-out path: the sink serializes a broadcast frame a
// single time and every shard writer hands the same bytes to its conns.
func (c *Conn) WriteRaw(t Type, buf []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.opt.WriteTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout)); err != nil {
			return err
		}
	}
	if _, err := c.raw.Write(buf); err != nil {
		return err
	}
	c.lastWrite.Store(time.Now().UnixNano())
	countSent(t)
	return nil
}

// ReadMsg reads and decodes the next message. The returned message does
// not alias the read buffer. Decode failures increment the decode-error
// counter; transport errors (EOF, closed conn, deadline timeouts) pass
// through untouched — test timeouts with net.Error's Timeout.
func (c *Conn) ReadMsg() (Msg, error) {
	if c.opt.ReadTimeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.opt.ReadTimeout)); err != nil {
			return nil, err
		}
	}
	bp := ioScratch.Get().(*[]byte)
	payload, err := ReadFrame(c.br, (*bp)[:0])
	if err != nil {
		ioScratch.Put(bp)
		return nil, err
	}
	*bp = payload
	m, err := Decode(payload) // copies everything it keeps
	ioScratch.Put(bp)
	if err != nil {
		decodeErrors.Inc()
		return nil, err
	}
	countReceived(m.Type())
	return m, nil
}

// StartHeartbeat launches a keepalive loop that writes a Heartbeat frame
// whenever the write side has been idle for one period, so an otherwise
// silent but healthy peer keeps resetting the other end's read deadline.
// The returned stop function is idempotent; Close also stops the loop.
func (c *Conn) StartHeartbeat(every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := c.hbStop
	go func() {
		t := time.NewTicker(every / 2)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				idle := time.Since(time.Unix(0, c.lastWrite.Load()))
				if idle < every {
					continue
				}
				if err := c.WriteMsg(&Heartbeat{}); err != nil {
					return // conn dead; the read side surfaces the error
				}
			}
		}
	}()
	return c.stopHeartbeat
}

func (c *Conn) stopHeartbeat() { c.hbOnce.Do(func() { close(c.hbStop) }) }

// ClientHandshake sends the sensor's Hello — carrying its session token
// (0 = none) and last committed interval (-1 = none) — and returns the
// sink's answering Sync, the handshake's one round trip.
func (c *Conn) ClientHandshake(sensor int, token uint64, lastInterval int) (*Sync, error) {
	h := &Hello{Version: Version, Sensor: sensor, Token: token, LastInterval: lastInterval}
	if err := c.WriteMsg(h); err != nil {
		return nil, err
	}
	m, err := c.ReadMsg()
	if err != nil {
		return nil, err
	}
	sync, ok := m.(*Sync)
	if !ok {
		return nil, fmt.Errorf("%w: want sync, got %s", ErrBadField, m.Type())
	}
	return sync, nil
}
