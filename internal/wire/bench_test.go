package wire

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
)

// benchInstance is shortInstance for benchmarks (testing.TB), kept
// separate so the test helper and the parity tests stay untouched.
func benchInstance(tb testing.TB, n int, pathLen float64, seed int64) *core.Instance {
	tb.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: pathLen, MaxOffset: 40, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 2000, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	inst, err := core.BuildInstance(d, radio.Paper2013(), 5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// benchConns opens n loopback TCP connections whose client ends are
// drained continuously, and returns the sink-side Conns indexed by id.
// The kernel socket buffers absorb individual frames, so a broadcast
// hand-off measures the enqueue cost, not the peers' reads.
func benchConns(b *testing.B, n int) []*Conn {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	conns := make([]*Conn, n)
	accepted := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				accepted <- err
				return
			}
			conns[i] = NewConn(c)
		}
		accepted <- nil
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		go io.Copy(io.Discard, c)
	}
	if err := <-accepted; err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return conns
}

// BenchmarkBroadcast measures what one broadcast costs the interval
// loop: one encode plus the hand-off of n ids to the fan-out worker,
// with delivery proceeding on the conn writers. The worker and the
// writers run on the same CPUs as the loop, so at large n a row also
// carries part of their cost. Flushes keep the queues bounded but run
// outside the timer: queued frames are the point of the design, not
// overhead to hide. The sub-benchmarks keep their Sharded/ prefix,
// from when the plane had eight workers, so their rows stay comparable
// with the recorded history.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		msg := &Probe{Interval: 7, Start: 35, End: 39, SinkX: 120.5, SinkY: -14.25}
		ids := fleetIDs(n)
		b.Run(fmt.Sprintf("Sharded/N=%d", n), func(b *testing.B) {
			conns := benchConns(b, n)
			done := make(chan struct{})
			defer close(done)
			var kills atomic.Int64
			bc := newBroadcaster(1024, done, func(id int, c *Conn) {
				kills.Add(1)
				c.Close()
			})
			for i, c := range conns {
				bc.add(i, c)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.Broadcast(msg, ids); err != nil {
					b.Fatal(err)
				}
				if (i+1)%64 == 0 {
					b.StopTimer()
					if err := bc.Flush(ctx); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			if err := bc.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			if k := kills.Load(); k != 0 {
				b.Fatalf("%d conns killed by backpressure during the benchmark", k)
			}
			b.StartTimer()
		})
	}
}

// BenchmarkTourWall times a complete fault-free tour (sink + in-process
// fleet over loopback TCP) on the fan-out write plane — the end-to-
// end number the fan-out optimization has to move at fleet scale.
func BenchmarkTourWall(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			inst := benchInstance(b, n, 900, 33)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}})
				if err != nil {
					b.Fatal(err)
				}
				clients := make([]*SensorClient, n)
				errs := make(chan error, n)
				var wg sync.WaitGroup
				sem := make(chan struct{}, 64)
				for s := 0; s < n; s++ {
					s := s
					wg.Add(1)
					sem <- struct{}{}
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						c, err := DialSensor(sink.Addr(), SensorConfigFor(inst, s))
						if err != nil {
							errs <- err
							return
						}
						clients[s] = c
						go func() { errs <- c.Run(context.Background()) }()
					}()
				}
				wg.Wait()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				if err := sink.WaitSensors(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := sink.RunTour(ctx)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Data <= 0 {
					b.Fatal("benchmark tour collected no data")
				}
				// Close clients before the sink: Run then returns nil via
				// userClosed instead of racing the sink's conn teardown,
				// which at fleet scale can surface as an RST before the
				// client drains its final frames. A mid-tour failure still
				// fails the drain — Run already returned its error.
				for _, c := range clients {
					if c != nil {
						c.Close()
					}
				}
				sink.Close()
				for range clients {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
				cancel()
				b.StartTimer()
			}
		})
	}
}
