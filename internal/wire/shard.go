package wire

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the sink's sharded write plane. The paper's radio model
// is one sink transmission heard by every in-range sensor; emulating it
// as N sequential TCP unicasts from the interval loop makes one slow
// peer stall the whole interval (head-of-line blocking) and bounds the
// fleet by a single goroutine's syscall throughput. The rebuild:
//
//   - encode-once, write-many: a broadcast frame is serialized exactly
//     once into a pooled, reference-counted Frame and every writer hands
//     the same bytes to the socket;
//   - W writer shards, each owning the conns with id ≡ shard (mod W), a
//     FIFO task queue drained by one worker, and a bounded outbound
//     queue per conn drained by a dedicated writer goroutine;
//   - backpressure: a peer that stops draining fills only its own
//     queue; on overflow the conn is killed through the same drop path
//     as a write-deadline failure, and the sensor may resume its
//     session on a fresh connection.
//
// Per-sensor frame order is preserved end to end — shard task FIFO ×
// per-conn queue FIFO × single writer per conn — which is what keeps
// the fault-free tour byte-identical to online.Run (see DESIGN.md §3j).

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

// sconn is a shard's handle on one live connection: a bounded FIFO
// queue drained by a dedicated writer goroutine.
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

// btask is one shard's slice of a broadcast, or (nil frame) a flush
// sweep. The task channel is FIFO and drained by a single worker per
// shard, which — combined with each conn's FIFO queue — preserves
// per-sensor frame order end to end.
type btask struct {
	f     *Frame
	ids   *[]int
	flush *sync.WaitGroup
	count chan<- int
}

type bshard struct {
	mu    sync.Mutex
	conns map[int]*sconn
	tasks chan btask
}

// The sink's write plane: live connections are partitioned id mod
// writeShards, each shard fanning pre-encoded frames out through
// per-conn queues of writeQueue frames, so the interval loop never
// blocks on a socket write. A peer that stops draining its socket fills
// only its own queue; on overflow the connection is killed through the
// same drop path as a write-deadline failure.
const (
	writeShards = 8
	writeQueue  = 256
)

// broadcaster is the sharded fan-out plane: W shards, each owning a
// disjoint conn set (id mod W) and one worker moving pre-encoded frames
// from the task queue into the per-conn queues. The interval loop's
// part of a broadcast ends at task hand-off; it never blocks on a
// socket write.
type broadcaster struct {
	shards []*bshard
	queue  int
	done   <-chan struct{}
	drop   func(id int, c *Conn)
	idsP   sync.Pool

	// Flush state: one WaitGroup reused across calls (fmu serializes
	// them) and a counts channel sized to the shard count, so a
	// steady-state Flush allocates nothing.
	fmu  sync.Mutex
	fwg  sync.WaitGroup
	fcnt chan int
}

// newBroadcaster builds the write plane: w shards (1 to 64, the stack
// array Broadcast partitions into), per-conn queues of the given depth
// (at least 1), workers exiting when done closes, dead conns reported
// through drop (which must tolerate concurrent calls and may call back
// into removeConn).
func newBroadcaster(w, queue int, done <-chan struct{}, drop func(id int, c *Conn)) *broadcaster {
	b := &broadcaster{
		shards: make([]*bshard, w),
		queue:  queue,
		done:   done,
		drop:   drop,
		idsP:   sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }},
		fcnt:   make(chan int, w),
	}
	for i := range b.shards {
		sh := &bshard{conns: make(map[int]*sconn), tasks: make(chan btask, 64)}
		b.shards[i] = sh
		go b.work(sh)
	}
	return b
}

func (b *broadcaster) shardOf(id int) *bshard { return b.shards[id%len(b.shards)] }

func (b *broadcaster) getIDs() *[]int {
	p := b.idsP.Get().(*[]int)
	*p = (*p)[:0]
	return p
}

func (b *broadcaster) putIDs(p *[]int) { b.idsP.Put(p) }

// add registers a conn with its shard and starts its writer, replacing
// (and halting) any stale sconn still holding the sensor's slot.
func (b *broadcaster) add(id int, c *Conn) *sconn {
	sc := &sconn{id: id, c: c, q: make(chan qitem, b.queue), stop: make(chan struct{})}
	sh := b.shardOf(id)
	sh.mu.Lock()
	old := sh.conns[id]
	sh.conns[id] = sc
	sh.mu.Unlock()
	if old != nil {
		old.halt()
	}
	go sc.writeLoop(b.done, b.drop)
	return sc
}

// remove detaches sc iff it still owns its slot (a replacement may have
// taken it over) and halts its writer.
func (b *broadcaster) remove(id int, sc *sconn) {
	sh := b.shardOf(id)
	sh.mu.Lock()
	if sh.conns[id] == sc {
		delete(sh.conns, id)
	}
	sh.mu.Unlock()
	sc.halt()
}

// removeConn detaches by conn identity (the drop path, which has no
// sconn at hand).
func (b *broadcaster) removeConn(id int, c *Conn) {
	sh := b.shardOf(id)
	sh.mu.Lock()
	sc := sh.conns[id]
	if sc != nil && sc.c == c {
		delete(sh.conns, id)
	} else {
		sc = nil
	}
	sh.mu.Unlock()
	if sc != nil {
		sc.halt()
	}
}

// Broadcast encodes m exactly once and hands each shard its slice of
// the id list; it returns at hand-off, with delivery proceeding on the
// shard writers. A conn whose bounded queue is full is killed
// (backpressure → the drop path). Callers must not rely on delivery
// having happened on return — Flush provides that barrier. Not safe
// for concurrent use; the interval loop is the only caller.
func (b *broadcaster) Broadcast(m Msg, ids []int) error {
	f, err := EncodeFrame(m)
	if err != nil {
		return err
	}
	w := len(b.shards)
	var partsArr [64]*[]int
	parts := partsArr[:w]
	for _, id := range ids {
		p := parts[id%w]
		if p == nil {
			p = b.getIDs()
			parts[id%w] = p
		}
		*p = append(*p, id)
	}
	for i, p := range parts {
		if p == nil {
			continue
		}
		f.Retain(1)
		select {
		case b.shards[i].tasks <- btask{f: f, ids: p}:
		case <-b.done:
			f.Release()
			b.putIDs(p)
		}
	}
	f.Release()
	return nil
}

// Unicast routes one frame to a single conn through its shard's task
// FIFO, so it cannot overtake an earlier broadcast to the same sensor
// (the repair path depends on Schedule-before-repair order). It reports
// whether the sensor had a live conn at hand-off; delivery itself is
// asynchronous and optimistic, matching the repair commit's documented
// semantics.
func (b *broadcaster) Unicast(id int, m Msg) bool {
	sh := b.shardOf(id)
	sh.mu.Lock()
	_, live := sh.conns[id]
	sh.mu.Unlock()
	if !live {
		return false
	}
	f, err := EncodeFrame(m)
	if err != nil {
		return false
	}
	ids := b.getIDs()
	*ids = append(*ids, id)
	f.Retain(1)
	select {
	case sh.tasks <- btask{f: f, ids: ids}:
	case <-b.done:
		f.Release()
		b.putIDs(ids)
	}
	f.Release()
	return true
}

// Flush blocks until every frame enqueued before the call has been
// written or its conn killed. It routes a marker through each shard's
// task FIFO and then through each conn's queue, so the barrier cannot
// overtake pending frames. The sink flushes once at the end of a
// completed tour, so the final Finish frames are on the wire before
// the listener closes; a HaltAfter "crash" deliberately skips it.
func (b *broadcaster) Flush(ctx context.Context) error {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	// Drop counts stranded by an earlier bailed-out flush.
	for {
		select {
		case <-b.fcnt:
			continue
		default:
		}
		break
	}
	sent := 0
	for _, sh := range b.shards {
		select {
		case sh.tasks <- btask{flush: &b.fwg, count: b.fcnt}:
			sent++
		case <-b.done:
			return nil // sink closing; nothing left to guarantee
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Collect the per-shard marker counts first: only after every sweep
	// has finished its wg.Add calls is Wait safe.
	for i := 0; i < sent; i++ {
		select {
		case <-b.fcnt:
		case <-b.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	drained := make(chan struct{})
	go func() { b.fwg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *broadcaster) work(sh *bshard) {
	for {
		select {
		case <-b.done:
			return
		case t := <-sh.tasks:
			b.run(sh, t)
		}
	}
}

// run executes one task. Kills are collected under the shard lock and
// applied after it is released: drop calls back into removeConn, which
// takes the same lock.
func (b *broadcaster) run(sh *bshard, t btask) {
	if t.f == nil { // flush sweep
		var kills []*sconn
		n := 0
		sh.mu.Lock()
		for _, sc := range sh.conns {
			t.flush.Add(1)
			ok, full := sc.enqueue(qitem{done: t.flush})
			if ok {
				n++
				continue
			}
			t.flush.Done()
			if full {
				kills = append(kills, sc)
			}
		}
		sh.mu.Unlock()
		for _, sc := range kills {
			connKills.Inc()
			b.drop(sc.id, sc.c)
		}
		select {
		case t.count <- n:
		case <-b.done:
		}
		return
	}
	for _, id := range *t.ids {
		sh.mu.Lock()
		sc := sh.conns[id]
		sh.mu.Unlock()
		if sc == nil {
			continue
		}
		t.f.Retain(1)
		ok, full := sc.enqueue(qitem{f: t.f})
		if !ok {
			t.f.Release()
			if full {
				connKills.Inc()
				b.drop(sc.id, sc.c)
			}
		}
	}
	b.putIDs(t.ids)
	t.f.Release()
}
