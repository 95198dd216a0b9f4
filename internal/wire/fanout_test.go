package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobisink/internal/online"
)

// killLog records the conns a broadcaster reported dead, deduplicated
// (a queue-overflow kill and the subsequent write-error kill may both
// fire for the same conn).
type killLog struct {
	mu   sync.Mutex
	ids  map[int]bool
	conn map[int]*Conn
}

func newKillLog() *killLog {
	return &killLog{ids: make(map[int]bool), conn: make(map[int]*Conn)}
}

func (k *killLog) drop(id int, c *Conn) {
	k.mu.Lock()
	first := !k.ids[id]
	k.ids[id] = true
	k.conn[id] = c
	k.mu.Unlock()
	if first {
		c.Close()
	}
}

func (k *killLog) killed() []int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]int, 0, len(k.ids))
	for id := range k.ids {
		out = append(out, id)
	}
	return out
}

// pipeFleet builds n sink-side conns over net.Pipe (writes block until
// the peer reads — the harshest stall model) registered with a fresh
// broadcaster, and returns the peer-side conns for the test to read.
func pipeFleet(t *testing.T, b *broadcaster, n int) []*Conn {
	t.Helper()
	peers := make([]*Conn, n)
	for i := 0; i < n; i++ {
		sinkSide, peerSide := net.Pipe()
		sc := NewConn(sinkSide)
		peers[i] = NewConn(peerSide)
		b.add(i, sc)
		t.Cleanup(func() { sc.Close() })
		t.Cleanup(func() { peers[i].Close() })
	}
	return peers
}

func fleetIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestSlowPeerDoesNotStallBroadcast is the head-of-line regression test
// at the write-plane level: over net.Pipe a write blocks until the peer
// reads, so under the old serial loop one slow-but-alive peer delayed
// every peer after it in the id order. On the fan-out plane the slow
// peer's frame waits in its own queue while everyone else is served.
func TestSlowPeerDoesNotStallBroadcast(t *testing.T) {
	const n, slow = 8, 0
	done := make(chan struct{})
	defer close(done)
	kills := newKillLog()
	b := newBroadcaster(16, done, kills.drop)
	peers := pipeFleet(t, b, n)

	type rcpt struct {
		id int
		at time.Duration
	}
	got := make(chan rcpt, n)
	start := time.Now()
	for i, p := range peers {
		i, p := i, p
		go func() {
			if i == slow {
				time.Sleep(300 * time.Millisecond) // alive, just slow
			}
			if _, err := p.ReadMsg(); err != nil {
				t.Errorf("peer %d read: %v", i, err)
				return
			}
			got <- rcpt{id: i, at: time.Since(start)}
		}()
	}

	if err := b.Broadcast(&Finish{Interval: 3}, fleetIDs(n)); err != nil {
		t.Fatal(err)
	}
	if stall := time.Since(start); stall > 150*time.Millisecond {
		t.Errorf("Broadcast hand-off stalled %v behind the slow peer", stall)
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-got:
			if r.id != slow && r.at > 200*time.Millisecond {
				t.Errorf("fast peer %d waited %v behind the slow peer", r.id, r.at)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("broadcast never reached every peer")
		}
	}
	if k := kills.killed(); len(k) != 0 {
		t.Errorf("broadcast killed conns %v, want none", k)
	}
}

// TestQueueOverflowKillsOnlyStalledConn: a peer that stops draining
// fills its own bounded queue and is killed through the drop path,
// while every other conn receives the full frame sequence in order.
func TestQueueOverflowKillsOnlyStalledConn(t *testing.T) {
	const n, stalled, frames = 4, 1, 6
	done := make(chan struct{})
	defer close(done)
	kills := newKillLog()
	b := newBroadcaster(2, done, kills.drop)
	peers := pipeFleet(t, b, n)

	// Fast peers report each receipt; the test paces broadcasts on them
	// so a healthy queue never holds more than one or two frames while
	// the stalled peer's fills monotonically (one write in flight + a
	// queue of 2 absorbs at most 3 of the 6 frames).
	rcpts := make(chan int, n*frames)
	for i, p := range peers {
		if i == stalled {
			continue
		}
		i, p := i, p
		go func() {
			for want := 0; want < frames; want++ {
				m, err := p.ReadMsg()
				if err != nil {
					t.Errorf("peer %d read %d: %v", i, want, err)
					return
				}
				f, ok := m.(*Finish)
				if !ok || f.Interval != want {
					t.Errorf("peer %d got %v at position %d, want Finish %d", i, m, want, want)
					return
				}
				rcpts <- f.Interval
			}
		}()
	}
	for j := 0; j < frames; j++ {
		if err := b.Broadcast(&Finish{Interval: j}, fleetIDs(n)); err != nil {
			t.Fatal(err)
		}
		for seen := 0; seen < n-1; seen++ {
			select {
			case got := <-rcpts:
				if got != j {
					t.Fatalf("receipt for frame %d while pacing frame %d", got, j)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("frame %d never reached the healthy peers", j)
			}
		}
	}
	k := kills.killed()
	if len(k) != 1 || k[0] != stalled {
		t.Fatalf("killed conns %v, want exactly [%d]", k, stalled)
	}
}

// TestBroadcastOrderingPerConn interleaves broadcasts with a unicast
// through the same task FIFO and checks each conn sees its frames in
// submission order — the property the parity and repair arguments rest
// on.
func TestBroadcastOrderingPerConn(t *testing.T) {
	const n = 4
	done := make(chan struct{})
	defer close(done)
	kills := newKillLog()
	b := newBroadcaster(64, done, kills.drop)
	peers := pipeFleet(t, b, n)

	all := fleetIDs(n)
	steps := []func() error{
		func() error { return b.Broadcast(&Probe{Interval: 0, Start: 0, End: 4}, all) },
		func() error {
			if !b.Unicast(2, &Schedule{Interval: 0, Repair: true, Pairs: []Assign{{Slot: 1, Sensor: 2}}}) {
				t.Error("unicast to live conn reported no conn")
			}
			return nil
		},
		func() error { return b.Broadcast(&Finish{Interval: 0}, all) },
		func() error { return b.Broadcast(&Probe{Interval: 1, Start: 5, End: 9}, all) },
	}
	read := make(chan error, n)
	for i, p := range peers {
		i, p := i, p
		go func() {
			want := []Type{TypeProbe, TypeFinish, TypeProbe}
			if i == 2 {
				want = []Type{TypeProbe, TypeSchedule, TypeFinish, TypeProbe}
			}
			for _, w := range want {
				m, err := p.ReadMsg()
				if err != nil {
					read <- err
					return
				}
				if m.Type() != w {
					t.Errorf("peer %d got %s, want %s", i, m.Type(), w)
				}
			}
			read <- nil
		}()
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("peers did not drain the interleaved sequence")
		}
	}
	if k := kills.killed(); len(k) != 0 {
		t.Errorf("killed conns %v, want none", k)
	}
}

// TestFlushAfterCanceledFlush: a Flush cancelled while a stalled peer
// holds a frame leaves its marker queued behind that frame, and the
// next Flush on a live context still waits for its own barrier: it
// returns only once the peer has read the first frame and the one
// broadcast after the cancelled Flush.
func TestFlushAfterCanceledFlush(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	kills := newKillLog()
	b := newBroadcaster(16, done, kills.drop)
	peer := pipeFleet(t, b, 1)[0]

	if err := b.Broadcast(&Finish{Interval: 0}, fleetIDs(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := b.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush past a stalled peer returned %v, want the context's deadline", err)
	}
	if err := b.Broadcast(&Finish{Interval: 1}, fleetIDs(1)); err != nil {
		t.Fatal(err)
	}
	live, cancelLive := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLive()
	flushed := make(chan error, 1)
	go func() { flushed <- b.Flush(live) }()

	for want := 0; want < 2; want++ {
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-flushed:
			t.Fatalf("Flush returned %v before the peer read frame %d", err, want)
		default:
		}
		m, err := peer.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := m.(*Finish); !ok || f.Interval != want {
			t.Fatalf("peer read %v, want Finish %d", m, want)
		}
	}
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush never returned after the peer read both frames")
	}
	if k := kills.killed(); len(k) != 0 {
		t.Errorf("killed conns %v, want none", k)
	}
}

// nullConn is a sink-free net.Conn for the alloc gate: writes succeed
// instantly (counted), nothing else does anything.
type nullConn struct{ writes *atomic.Int64 }

func (c nullConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (c nullConn) Write(p []byte) (int, error)      { c.writes.Add(1); return len(p), nil }
func (c nullConn) Close() error                     { return nil }
func (c nullConn) LocalAddr() net.Addr              { return nil }
func (c nullConn) RemoteAddr() net.Addr             { return nil }
func (c nullConn) SetDeadline(time.Time) error      { return nil }
func (c nullConn) SetReadDeadline(time.Time) error  { return nil }
func (c nullConn) SetWriteDeadline(time.Time) error { return nil }

// TestNoAllocsBroadcast pins the encode-once fan-out at zero steady-
// state allocations: frame buffers, id slices, and queue items all come
// from pools, so a warmed broadcast of any fleet size allocates nothing
// on the interval loop, the fan-out worker or the conn writers. Mirrors
// the gap/knapsack
// TestNoAllocs* gates.
func TestNoAllocsBroadcast(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation charges allocations to the pooled paths")
	}
	const n = 64
	done := make(chan struct{})
	defer close(done)
	kills := newKillLog()
	b := newBroadcaster(1024, done, kills.drop)
	var writes atomic.Int64
	for i := 0; i < n; i++ {
		b.add(i, NewConn(nullConn{writes: &writes}))
	}
	ids := fleetIDs(n)
	msg := &Probe{Interval: 1, Start: 0, End: 4, SinkX: 12.5, SinkY: -3}
	run := func() {
		want := writes.Load() + n
		if err := b.Broadcast(msg, ids); err != nil {
			t.Fatal(err)
		}
		// Wait for full drain so every frame is back in its pool before
		// the next run; spinning keeps the wait itself alloc-free.
		for writes.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		run() // warm the frame, id-slice, and scratch pools
	}
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("broadcast allocates %v per run after warmup", a)
	}
	if k := kills.killed(); len(k) != 0 {
		t.Fatalf("alloc gate killed conns %v", k)
	}
}

// TestSlowSensorTourCompletes is the end-to-end half of the head-of-
// line fix: a sensor that stays connected but serves its socket an
// order of magnitude slower than the recovery windows must not stop
// the fleet's tour from completing, and must itself survive (its
// bounded queue absorbs the trickle; it is slow, not dead).
func TestSlowSensorTourCompletes(t *testing.T) {
	inst := shortInstance(t, 12, 900, 21)
	rec := &Recovery{MaxRetries: 1, RegWindow: 40 * time.Millisecond, ConfirmWindow: 40 * time.Millisecond}
	sink, err := NewSink(SinkConfig{
		Inst: inst, Scheduler: &online.Greedy{}, Recovery: rec,
		Conn: ConnOptions{WriteTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// Sensor 0 is played by a hand-rolled peer that handshakes promptly,
	// then reads one frame per 50ms and declines every probe it
	// eventually sees — slow, but alive and protocol-correct.
	raw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	slow := NewConn(raw)
	defer slow.Close()
	if _, err := slow.ClientHandshake(0, 0, -1); err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		for {
			m, err := slow.ReadMsg()
			if err != nil {
				return // sink closed at tour end
			}
			time.Sleep(50 * time.Millisecond)
			if p, ok := m.(*Probe); ok {
				if err := slow.WriteMsg(&Ack{Kind: AckDecline, Interval: p.Interval, Attempt: p.Attempt, Sensor: 0}); err != nil {
					return
				}
			}
		}
	}()

	// The rest of the fleet is ordinary clients for sensors 1..n-1.
	fl := &fleet{errs: make(chan error, len(inst.Sensors)-1)}
	for i := 1; i < len(inst.Sensors); i++ {
		c, err := DialSensor(sink.Addr(), SensorConfigFor(inst, i))
		if err != nil {
			t.Fatalf("dial sensor %d: %v", i, err)
		}
		fl.clients = append(fl.clients, c)
		go func() { fl.errs <- c.Run(context.Background()) }()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sink.RunTour(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data <= 0 {
		t.Error("tour with one slow sensor collected no data")
	}
	if res.Fault != nil && res.Fault.LostSlots > 0 && res.Data <= 0 {
		t.Error("slow sensor cost the whole tour")
	}
	sink.Close()
	fl.join(t)
	select {
	case <-slowDone:
	case <-time.After(10 * time.Second):
		t.Fatal("slow sensor loop did not exit after sink close")
	}
}
