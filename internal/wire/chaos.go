package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobisink/internal/fault"
)

// ChaosConfig translates a fault.Plan into network behavior.
type ChaosConfig struct {
	// Plan supplies the drop probabilities and the deterministic seed.
	// The proxy applies the message-level drops (Probe, register-Ack,
	// Schedule, repair, Finish) with exactly the same keyed Bernoulli
	// rolls as the in-process injector, plus the connection-level churn
	// units: ConnKillProb/ConnKills sever a sensor's TCP connection at
	// first-probe delivery, and Partitions black-hole a sensor's protocol
	// traffic for a window of intervals. The sink probes a sensor only in
	// the intervals whose probe set holds it (online.InRange), so a conn
	// kill fires only at an interval in the sensor's reach; one planned
	// anywhere else never fires. Crash and stall faults stay where they
	// belong (sensor endpoints and the sink's scheduler).
	Plan fault.Plan
	// MaxDelay, when positive, delays each forwarded frame by a
	// deterministic pseudo-random fraction of it.
	MaxDelay time.Duration
	// ReorderProb is the per-frame probability of an adjacent swap: the
	// frame is held back and delivered after its successor.
	ReorderProb float64
}

// ChaosStats counts what the proxy did to the traffic.
type ChaosStats struct {
	DroppedProbes    int64
	DroppedAcks      int64
	DroppedSchedules int64
	DroppedRepairs   int64
	DroppedFinishes  int64
	Delayed          int64
	Reordered        int64
	// ConnKills counts proxied connections severed by the conn-kill units.
	ConnKills int64
	// PartitionDrops counts frames black-holed inside partition windows.
	PartitionDrops int64
}

// Dropped returns the total frames discarded.
func (s ChaosStats) Dropped() int64 {
	return s.DroppedProbes + s.DroppedAcks + s.DroppedSchedules + s.DroppedRepairs +
		s.DroppedFinishes + s.PartitionDrops
}

// ChaosProxy sits between sensor clients and a Sink, forwarding frames
// while injecting the fault plan as real network behavior: dropped
// frames simply never arrive, so the endpoints' recovery machinery —
// retransmission windows, confirm-based silence detection, stale-budget
// clamps, session resumption — is exercised by actual message loss and
// connection churn rather than simulated flags. Direction matters:
// Probe/Schedule/Finish drops apply sink → sensor, register-Ack drops
// apply sensor → sink, and declines, confirms, and the session handshake
// (Hello, Sync) always pass — black-holing a handshake would
// wedge a reconnecting client rather than model loss. Conn kills fire on
// delivery of an interval's first probe (attempt 0 only, so a resumed
// connection is not re-killed by the retransmit of the same probe).
// Partition windows require a Recovery-mode sink: the idealized protocol
// waits forever for the partitioned sensor's answer.
type ChaosProxy struct {
	cfg ChaosConfig
	inj *fault.Injector
	ln  net.Listener
	// sinkAddr is where forwarded traffic goes.
	sinkAddr string

	mu     sync.Mutex
	closed bool
	conns  []net.Conn

	stats struct {
		droppedProbes    atomic.Int64
		droppedAcks      atomic.Int64
		droppedSchedules atomic.Int64
		droppedRepairs   atomic.Int64
		droppedFinishes  atomic.Int64
		delayed          atomic.Int64
		reordered        atomic.Int64
		connKills        atomic.Int64
		partitionDrops   atomic.Int64
	}
}

// NewChaosProxy listens on 127.0.0.1:0 and forwards each accepted
// connection to the sink at sinkAddr under the chaos plan. numSensors
// and slots size the injector's roll domain exactly like the in-process
// runner's.
func NewChaosProxy(sinkAddr string, cfg ChaosConfig, numSensors, slots int) (*ChaosProxy, error) {
	inj, err := fault.NewInjector(cfg.Plan, numSensors, slots)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{cfg: cfg, inj: inj, ln: ln, sinkAddr: sinkAddr}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; sensors dial this instead of
// the sink.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the chaos counters.
func (p *ChaosProxy) Stats() ChaosStats {
	return ChaosStats{
		DroppedProbes:    p.stats.droppedProbes.Load(),
		DroppedAcks:      p.stats.droppedAcks.Load(),
		DroppedSchedules: p.stats.droppedSchedules.Load(),
		DroppedRepairs:   p.stats.droppedRepairs.Load(),
		DroppedFinishes:  p.stats.droppedFinishes.Load(),
		Delayed:          p.stats.delayed.Load(),
		Reordered:        p.stats.reordered.Load(),
		ConnKills:        p.stats.connKills.Load(),
		PartitionDrops:   p.stats.partitionDrops.Load(),
	}
}

// Close stops accepting and severs all proxied connections.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (p *ChaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns = append(p.conns, c)
	return true
}

func (p *ChaosProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.relay(client)
	}
}

// relay bridges one sensor connection to the sink, decoding and
// re-encoding every frame so the chaos rules can key their rolls on the
// message contents.
func (p *ChaosProxy) relay(clientRaw net.Conn) {
	sinkRaw, err := net.Dial("tcp", p.sinkAddr)
	if err != nil {
		clientRaw.Close()
		return
	}
	if !p.track(clientRaw) || !p.track(sinkRaw) {
		clientRaw.Close()
		sinkRaw.Close()
		return
	}
	client, sink := NewConn(clientRaw), NewConn(sinkRaw)
	// The sensor index arrives in the client's Hello; both pumps key
	// their rolls on it. The current interval arrives in the sink's
	// probes; frames without their own interval (heartbeats) borrow it
	// for the partition check.
	var sensorID, curInterval atomic.Int64
	sensorID.Store(-1)
	curInterval.Store(-1)
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			p.stats.connKills.Add(1)
			clientRaw.Close()
			sinkRaw.Close()
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sensor → sink
		defer wg.Done()
		p.pump(client, sink, &sensorID, &curInterval, 1, p.dropToSink, nil)
		sink.Close()
	}()
	go func() { // sink → sensor
		defer wg.Done()
		p.pump(sink, client, &sensorID, &curInterval, 0, p.dropToClient, kill)
		// Half-close, as Sink.Close does: the sensor reads every frame
		// forwarded so far and then EOF, and an answer it still sends to
		// the last of them is read, not met with a reset. The sensor →
		// sink pump ends when the sensor hangs up.
		client.closeWrite()
	}()
	wg.Wait()
	client.Close()
}

// frameInterval extracts a frame's own interval index, falling back to
// the relay's last-probed interval for frames that carry none.
func frameInterval(m Msg, cur int64) int {
	switch m := m.(type) {
	case *Probe:
		return m.Interval
	case *Ack:
		return m.Interval
	case *Schedule:
		return m.Interval
	case *Finish:
		return m.Interval
	}
	return int(cur)
}

// pump forwards frames from src to dst, applying the connection-kill
// rule (sink→sensor only, nil kill otherwise), the partition rule, the
// drop rule, the deterministic delay, and the adjacent-swap reorder. dir
// keys the delay/reorder rolls (0 sink→sensor, 1 sensor→sink) so the two
// directions draw independent streams.
func (p *ChaosProxy) pump(src, dst *Conn, sensorID, curInterval *atomic.Int64, dir int, drop func(Msg, int) bool, kill func()) {
	var held Msg
	seq := 0
	forward := func(m Msg) bool { return dst.WriteMsg(m) == nil }
	for {
		m, err := src.ReadMsg()
		if err != nil {
			if held != nil {
				forward(held)
			}
			return
		}
		if h, ok := m.(*Hello); ok {
			sensorID.Store(int64(h.Sensor))
		}
		if t := m.Type(); t == TypeHello || t == TypeSync {
			if !forward(m) { // the handshake is never dropped or delayed
				return
			}
			continue
		}
		seq++
		id := int(sensorID.Load())
		if pr, ok := m.(*Probe); ok {
			curInterval.Store(int64(pr.Interval))
			if kill != nil && pr.Attempt == 0 && id >= 0 && p.inj.ConnKilled(pr.Interval, id) {
				// The connection dies with the probe in flight: neither the
				// probe nor anything after it is delivered.
				kill()
				return
			}
		}
		if id >= 0 && p.inj.Partitioned(frameInterval(m, curInterval.Load()), id) {
			p.stats.partitionDrops.Add(1)
			framesDropped.With(m.Type().String()).Inc()
			continue
		}
		if drop(m, id) {
			framesDropped.With(m.Type().String()).Inc()
			continue
		}
		if p.cfg.MaxDelay > 0 {
			u := p.inj.Unit(fault.KindDelay, id, seq, dir)
			time.Sleep(time.Duration(u * float64(p.cfg.MaxDelay)))
			p.stats.delayed.Add(1)
		}
		if held != nil {
			ok := forward(m)
			ok = forward(held) && ok
			held = nil
			p.stats.reordered.Add(1)
			if !ok {
				return
			}
			continue
		}
		if p.cfg.ReorderProb > 0 && p.inj.Unit(fault.KindReorder, id, seq, dir) < p.cfg.ReorderProb {
			held = m
			continue
		}
		if !forward(m) {
			return
		}
	}
}

// dropToClient applies the sink → sensor drop rules with the same keyed
// rolls as the in-process injector: a dropped broadcast frame is rolled
// per receiving sensor, so the set of sensors that miss it matches the
// in-process run for the same plan seed.
func (p *ChaosProxy) dropToClient(m Msg, id int) bool {
	if id < 0 {
		return false // no Hello yet; nothing to key on
	}
	switch m := m.(type) {
	case *Probe:
		if !p.inj.ProbeHeard(m.Interval, id, m.Attempt) {
			p.stats.droppedProbes.Add(1)
			return true
		}
	case *Schedule:
		if m.Repair {
			if len(m.Pairs) > 0 && p.inj.RepairLost(m.Interval, id, m.Pairs[0].Slot) {
				p.stats.droppedRepairs.Add(1)
				return true
			}
		} else if !p.inj.ScheduleHeard(m.Interval, id) {
			p.stats.droppedSchedules.Add(1)
			return true
		}
	case *Finish:
		if p.inj.FinishJammed(m.Interval) {
			p.stats.droppedFinishes.Add(1)
			return true
		}
	}
	return false
}

// dropToSink applies the sensor → sink rule: register-Acks are lost
// with the plan's Ack rate (same salt as the in-process non-contention
// path); declines and confirms pass.
func (p *ChaosProxy) dropToSink(m Msg, id int) bool {
	if id < 0 {
		return false
	}
	if a, ok := m.(*Ack); ok && a.Kind == AckRegister {
		if p.inj.AckLost(a.Interval, id, a.Attempt<<20) {
			p.stats.droppedAcks.Add(1)
			return true
		}
	}
	return false
}
