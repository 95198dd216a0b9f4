package wire

import (
	"context"
	"errors"
	"math"
	"net"
	"path/filepath"
	"testing"
	"time"

	"mobisink/internal/online"
	"mobisink/internal/wal"
)

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestDialSensorIsOneRoundTrip plays the sink on a raw listener. A join
// is one Hello, carrying the session token and last committed interval,
// answered by one Sync; DialSensor returns on that Sync and writes
// nothing more, and a redial presents the session the Sync granted.
func TestDialSensorIsOneRoundTrip(t *testing.T) {
	inst := shortInstance(t, 4, 600, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accept := func() *Conn {
		t.Helper()
		raw, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return NewConn(raw)
	}
	readHello := func(c *Conn, id int, token uint64, last int) {
		t.Helper()
		m, err := c.ReadMsg()
		if err != nil {
			t.Fatalf("read the client's first frame: %v", err)
		}
		h, ok := m.(*Hello)
		if !ok {
			t.Fatalf("client's first frame is a %s, want hello", m.Type())
		}
		if h.Sensor != id || h.Token != token || h.LastInterval != last {
			t.Fatalf("hello %+v, want sensor %d token %d last %d", *h, id, token, last)
		}
	}

	const id = 2
	cfg := SensorConfigFor(inst, id)
	cfg.Redial = &Redial{MaxAttempts: 3, Base: time.Millisecond, Seed: 1}
	type dialed struct {
		c   *SensorClient
		err error
	}
	done := make(chan dialed, 1)
	go func() {
		c, err := DialSensor(ln.Addr().String(), cfg)
		done <- dialed{c, err}
	}()
	sc := accept()
	defer sc.Close()
	readHello(sc, id, 0, -1)
	sync := &Sync{Token: 77, Interval: 4, Budget: inst.Sensors[id].Budget / 2, DataLeft: math.Inf(1)}
	if err := sc.WriteMsg(sync); err != nil {
		t.Fatal(err)
	}
	var d dialed
	select {
	case d = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DialSensor did not return on the Sync")
	}
	if d.err != nil {
		t.Fatalf("DialSensor: %v", d.err)
	}
	c := d.c
	if c.Token() != sync.Token || c.Residual() != sync.Budget {
		t.Fatalf("client holds token %d residual %v, want the Sync's %d and %v", c.Token(), c.Residual(), sync.Token, sync.Budget)
	}
	if err := sc.raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if m, err := sc.ReadMsg(); !isTimeout(err) {
		t.Fatalf("client wrote after the Sync: %v (err %v)", m, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	run := make(chan error, 1)
	go func() { run <- c.Run(ctx) }()
	sc.Close()
	sc2 := accept()
	defer sc2.Close()
	readHello(sc2, id, sync.Token, sync.Interval)
	if err := sc2.WriteMsg(&Sync{Resumed: true, Token: sync.Token, Interval: sync.Interval, Budget: sync.Budget, DataLeft: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sc2.raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if m, err := sc2.ReadMsg(); !isTimeout(err) {
		t.Fatalf("client wrote after the redial's Sync: %v (err %v)", m, err)
	}
	c.Close()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSinkAnswersHelloWithSync plays a sensor on a raw conn against a
// real Sink: the sink's first frame is the Sync answering the Hello,
// for a fresh session and for a resumed one, whose Missed counts the
// intervals committed since the Hello's last interval.
func TestSinkAnswersHelloWithSync(t *testing.T) {
	inst := shortInstance(t, 4, 600, 3)
	// A journal of three committed intervals in which nobody registered.
	walPath := filepath.Join(t.TempDir(), "tour.wal")
	log, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const committed = 2
	recs := []wal.Record{wal.Begin{Sensors: len(inst.Sensors), T: inst.T, Gamma: inst.Gamma, Fingerprint: online.Fingerprint(inst)}}
	for j := 0; j <= committed; j++ {
		recs = append(recs, wal.Commit{Interval: j})
	}
	for _, r := range recs {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const id = 1
	hello := func(token uint64, last int) *Sync {
		t.Helper()
		raw, err := net.Dial("tcp", sink.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(raw)
		defer c.Close()
		if err := c.WriteMsg(&Hello{Version: Version, Sensor: id, Token: token, LastInterval: last}); err != nil {
			t.Fatal(err)
		}
		if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		m, err := c.ReadMsg()
		if err != nil {
			t.Fatalf("read the sink's first frame: %v", err)
		}
		sync, ok := m.(*Sync)
		if !ok {
			t.Fatalf("sink's first frame is a %s, want sync", m.Type())
		}
		return sync
	}
	budget, dataLeft := sink.led.Residual(id)
	fresh := hello(0, -1)
	if fresh.Resumed || fresh.Token == 0 || fresh.Interval != committed || fresh.Missed != 0 ||
		fresh.Budget != budget || fresh.DataLeft != dataLeft {
		t.Fatalf("fresh session: %+v, want a new token at interval %d with residuals (%v, %v)", *fresh, committed, budget, dataLeft)
	}
	const last = 0
	resumed := hello(fresh.Token, last)
	if !resumed.Resumed || resumed.Token != fresh.Token || resumed.Interval != committed || resumed.Missed != committed-last {
		t.Fatalf("resumed session: %+v, want token %d with %d missed", *resumed, fresh.Token, committed-last)
	}
}

// TestSinkRefusesBadFirstFrame: a connection whose first frame is not a
// Hello from one of the instance's sensors, on this protocol version, is
// closed with nothing written and never counts as a joined sensor.
func TestSinkRefusesBadFirstFrame(t *testing.T) {
	inst := shortInstance(t, 4, 600, 3)
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}, Sensors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	frame := func(m Msg) []byte {
		b, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"not a hello", frame(&Ack{Kind: AckDecline, Interval: 0, Sensor: 0})},
		{"sensor out of range", frame(&Hello{Version: Version, Sensor: len(inst.Sensors), LastInterval: -1})},
		// Version 2's 21-byte Hello: a role byte (1, sensor) after the
		// version, then sensor 0, token 0 and last interval -1.
		{"version 2 hello", []byte{0, 0, 0, 21, byte(TypeHello), 0x4D, 0x53, 2, 1,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, tc := range cases {
		raw, err := net.Dial("tcp", sink.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if p, err := ReadFrame(raw, nil); err == nil {
			t.Errorf("%s: sink wrote a %d byte frame", tc.name, len(p))
		} else if isTimeout(err) {
			t.Errorf("%s: sink left the connection open", tc.name)
		}
		raw.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := sink.WaitSensors(ctx); err == nil {
		t.Fatal("a refused connection counted as a joined sensor")
	}
	c, _ := rawHandshake(t, sink.Addr(), 0, 0, -1)
	defer c.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatalf("a good Hello did not join: %v", err)
	}
}
