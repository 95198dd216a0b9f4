package wire

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the sink's write plane. The paper's radio model is one
// sink transmission heard by every in-range sensor; emulating it as N
// sequential TCP unicasts from the interval loop makes one slow peer
// stall the whole interval (head-of-line blocking) and bounds the fleet
// by a single goroutine's syscall throughput. The plane instead has:
//
//   - encode-once, write-many: a broadcast frame is serialized exactly
//     once into a pooled, reference-counted Frame and every writer hands
//     the same bytes to the socket;
//   - one fan-out worker: the interval loop hands each broadcast to a
//     FIFO task queue, and one worker moves the frame into the bounded
//     outbound queue of every listed conn, each drained by a dedicated
//     writer goroutine;
//   - backpressure: a peer that stops draining fills only its own
//     queue; on overflow the conn is killed through the same drop path
//     as a write-deadline failure, and the sensor may resume its
//     session on a fresh connection.
//
// Per-sensor frame order is preserved end to end — task FIFO × per-conn
// queue FIFO × single writer per conn — which is what keeps the
// fault-free tour byte-identical to online.Run (see DESIGN.md §3j).

// Frame is one encoded protocol frame shared by every connection a
// broadcast fans out to: serialized exactly once, reference-counted
// back into a sync.Pool when the last writer has released it.
type Frame struct {
	typ  Type
	buf  []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return &Frame{} }}

// EncodeFrame serializes m once into a pooled frame. The caller holds
// one reference; every additional holder must Retain before hand-off
// and Release when done.
func EncodeFrame(m Msg) (*Frame, error) {
	f := framePool.Get().(*Frame)
	buf, err := AppendFrame(f.buf[:0], m)
	if err != nil {
		framePool.Put(f)
		return nil, err
	}
	f.typ = m.Type()
	f.buf = buf
	f.refs.Store(1)
	return f, nil
}

// Type returns the frame's message type.
func (f *Frame) Type() Type { return f.typ }

// Bytes returns the encoded frame, valid until the last Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Retain adds n references.
func (f *Frame) Retain(n int32) { f.refs.Add(n) }

// Release drops one reference; the last one returns the buffer to the
// pool for the next encode.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}

// qitem is one entry of a conn's outbound queue: a shared frame to
// write, and/or a flush marker (nil frame) whose WaitGroup is signaled
// once everything queued ahead of it has drained.
type qitem struct {
	f    *Frame
	done *sync.WaitGroup
}

// sconn is the write plane's handle on one live connection: a bounded
// FIFO queue drained by a dedicated writer goroutine.
type sconn struct {
	id   int
	c    *Conn
	q    chan qitem
	stop chan struct{}
	once sync.Once

	mu   sync.Mutex
	dead bool
}

// enqueue appends one item in FIFO order. ok is false when the conn is
// already dead (item skipped) or the queue is full (full=true; the
// caller kills the conn). The mutex closes the race against die's
// drain: no item can land in the queue after the drain has started.
func (sc *sconn) enqueue(it qitem) (ok, full bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false, false
	}
	select {
	case sc.q <- it:
		return true, false
	default:
		return false, true
	}
}

// halt unblocks the writer goroutine; idempotent.
func (sc *sconn) halt() { sc.once.Do(func() { close(sc.stop) }) }

// die marks the queue dead and drains it, releasing frame references
// and acknowledging flush markers so no flusher waits on a dead conn.
func (sc *sconn) die() {
	sc.mu.Lock()
	sc.dead = true
	sc.mu.Unlock()
	for {
		select {
		case it := <-sc.q:
			if it.f != nil {
				it.f.Release()
			}
			if it.done != nil {
				it.done.Done()
			}
		default:
			return
		}
	}
}

// writeLoop drains the conn's queue onto the socket. A write failure
// (deadline, peer gone) reports the conn through drop — the same kill
// path a serial broadcast used — and exits; die() then clears whatever
// was still queued.
func (sc *sconn) writeLoop(done <-chan struct{}, drop func(id int, c *Conn)) {
	defer sc.die()
	for {
		select {
		case <-sc.stop:
			return
		case <-done:
			return
		case it := <-sc.q:
			var err error
			if it.f != nil {
				err = sc.c.WriteRaw(it.f.typ, it.f.buf)
				it.f.Release()
			}
			if it.done != nil {
				it.done.Done()
			}
			if err != nil {
				drop(sc.id, sc.c)
				return
			}
		}
	}
}

// btask is one broadcast or unicast — a frame and the ids it goes to —
// or, with flush set, one Flush's marker. The task channel is FIFO
// and drained by the one worker, which — combined with each conn's FIFO
// queue — preserves per-sensor frame order end to end.
type btask struct {
	f     *Frame
	ids   *[]int
	flush *flushMark
}

// flushMark is one Flush call's barrier. The worker's sweep adds one
// count per conn it queues the marker on and then closes swept; each
// conn's writer marks its count done once everything queued ahead of
// the marker is written.
type flushMark struct {
	wg    sync.WaitGroup
	swept chan struct{}
}

// writeQueue is each conn's outbound queue depth, in frames. A peer
// that stops draining its socket fills only its own queue; on overflow
// the connection is killed through the same drop path as a
// write-deadline failure.
const writeQueue = 256

// broadcaster is the write plane: the live conns in one map, and one
// worker moving pre-encoded frames from the task FIFO into the per-conn
// queues. The interval loop's part of a broadcast ends at task hand-off;
// it never blocks on a socket write.
type broadcaster struct {
	mu    sync.Mutex
	conns map[int]*sconn
	tasks chan btask
	queue int
	done  <-chan struct{}
	drop  func(id int, c *Conn)
	idsP  sync.Pool
}

// newBroadcaster builds the write plane: per-conn queues of the given
// depth (at least 1), a worker exiting when done closes, dead conns
// reported through drop (which must tolerate concurrent calls and may
// call back into removeConn).
func newBroadcaster(queue int, done <-chan struct{}, drop func(id int, c *Conn)) *broadcaster {
	b := &broadcaster{
		conns: make(map[int]*sconn),
		tasks: make(chan btask, 64),
		queue: queue,
		done:  done,
		drop:  drop,
		idsP:  sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }},
	}
	go b.work()
	return b
}

// add registers a conn and starts its writer, replacing (and halting)
// any stale sconn still holding the sensor's slot.
func (b *broadcaster) add(id int, c *Conn) *sconn {
	sc := &sconn{id: id, c: c, q: make(chan qitem, b.queue), stop: make(chan struct{})}
	b.mu.Lock()
	old := b.conns[id]
	b.conns[id] = sc
	b.mu.Unlock()
	if old != nil {
		old.halt()
	}
	go sc.writeLoop(b.done, b.drop)
	return sc
}

// remove detaches sc iff it still owns its slot (a replacement may have
// taken it over) and halts its writer.
func (b *broadcaster) remove(id int, sc *sconn) {
	b.mu.Lock()
	if b.conns[id] == sc {
		delete(b.conns, id)
	}
	b.mu.Unlock()
	sc.halt()
}

// removeConn detaches by conn identity (the drop path, which has no
// sconn at hand).
func (b *broadcaster) removeConn(id int, c *Conn) {
	b.mu.Lock()
	sc := b.conns[id]
	if sc != nil && sc.c == c {
		delete(b.conns, id)
	} else {
		sc = nil
	}
	b.mu.Unlock()
	if sc != nil {
		sc.halt()
	}
}

// Broadcast encodes m exactly once and hands the worker one task with a
// pooled copy of the id list; it returns at hand-off, with delivery
// proceeding on the conn writers. A conn whose bounded queue is full is
// killed (backpressure → the drop path). Callers must not rely on
// delivery having happened on return — Flush provides that barrier. Not
// safe for concurrent use; the interval loop is the only caller.
func (b *broadcaster) Broadcast(m Msg, ids []int) error {
	f, err := EncodeFrame(m)
	if err != nil {
		return err
	}
	p := b.idsP.Get().(*[]int)
	*p = append((*p)[:0], ids...)
	b.hand(f, p)
	return nil
}

// Unicast routes one frame to a single conn through the task FIFO, so
// it cannot overtake an earlier broadcast to the same sensor (the
// repair path depends on Schedule-before-repair order). It reports
// whether the sensor had a live conn at hand-off; delivery itself is
// asynchronous and optimistic, matching the repair commit's documented
// semantics.
func (b *broadcaster) Unicast(id int, m Msg) bool {
	b.mu.Lock()
	_, live := b.conns[id]
	b.mu.Unlock()
	if !live {
		return false
	}
	f, err := EncodeFrame(m)
	if err != nil {
		return false
	}
	p := b.idsP.Get().(*[]int)
	*p = append((*p)[:0], id)
	b.hand(f, p)
	return true
}

// hand passes the caller's reference on f and the pooled ids to the
// worker, or drops both once the sink is closing.
func (b *broadcaster) hand(f *Frame, ids *[]int) {
	select {
	case b.tasks <- btask{f: f, ids: ids}:
	case <-b.done:
		f.Release()
		b.idsP.Put(ids)
	}
}

// Flush blocks until every frame enqueued before the call has been
// written or its conn killed. It routes a marker through the task FIFO
// and then through each conn's queue, so the barrier cannot overtake
// pending frames. The sink flushes once at the end of a completed tour,
// so the final Finish frames are on the wire before the listener
// closes; a HaltAfter "crash" deliberately skips it. The marker is the
// call's own, so a Flush cancelled part way leaves nothing behind for
// the next one.
func (b *broadcaster) Flush(ctx context.Context) error {
	fm := &flushMark{swept: make(chan struct{})}
	select {
	case b.tasks <- btask{flush: fm}:
	case <-b.done:
		return nil // sink closing; nothing left to guarantee
	case <-ctx.Done():
		return ctx.Err()
	}
	// Wait is safe only after the sweep has finished its Add calls.
	select {
	case <-fm.swept:
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	drained := make(chan struct{})
	go func() { fm.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *broadcaster) work() {
	for {
		select {
		case <-b.done:
			return
		case t := <-b.tasks:
			b.run(t)
		}
	}
}

// run executes one task under the conn-map lock: a frame goes onto each
// listed live conn's queue, a flush marker onto every live conn's.
// Kills are applied after the lock is released, since drop calls back
// into removeConn, which takes the same lock.
func (b *broadcaster) run(t btask) {
	var kills []*sconn
	b.mu.Lock()
	if t.flush != nil {
		for _, sc := range b.conns {
			t.flush.wg.Add(1)
			if ok, full := sc.enqueue(qitem{done: &t.flush.wg}); !ok {
				t.flush.wg.Done()
				if full {
					kills = append(kills, sc)
				}
			}
		}
	} else {
		for _, id := range *t.ids {
			sc := b.conns[id]
			if sc == nil {
				continue
			}
			t.f.Retain(1)
			if ok, full := sc.enqueue(qitem{f: t.f}); !ok {
				t.f.Release()
				if full {
					kills = append(kills, sc)
				}
			}
		}
		b.idsP.Put(t.ids)
		t.f.Release()
	}
	b.mu.Unlock()
	for _, sc := range kills {
		connKills.Inc()
		b.drop(sc.id, sc.c)
	}
	if t.flush != nil {
		close(t.flush.swept)
	}
}
