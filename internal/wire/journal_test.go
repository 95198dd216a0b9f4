package wire

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
)

// TestJournalDigest pins the bytes a sink journals for one fixed
// lossless tour: 24 sensors on a 1400 m path, seed 21, Appro. The digest
// was recorded from this sink's WAL before the journal moved into
// internal/online, whose TestJournalDigest pins the same bytes for the
// in-process tour.
func TestJournalDigest(t *testing.T) {
	const want = "c11d32d0b612a2e303c4f4590341374dcc7c11082e857e5fa83afaee22e45b61"
	inst := shortInstance(t, 24, 1400, 21)
	walPath := filepath.Join(t.TempDir(), "tour.wal")
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Appro{}, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	fl := launchFleet(t, sink.Addr(), inst, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sink.WaitSensors(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.RunTour(ctx); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	fl.join(t)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != want {
		t.Fatalf("journal of %d bytes digests to %s, want %s", len(buf), got, want)
	}
}

// TestSinkRefusesFleetInstance: the online protocol drives one sink, so
// a K-sink fleet instance is refused by the sink as by online.Run. A sink
// that took one ran its tour and broke Lemma 1.
func TestSinkRefusesFleetInstance(t *testing.T) {
	d, err := network.Generate(network.Params{N: 12, PathLength: 900, MaxOffset: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 2000, 0.2, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	if err := d.SplitSinks(2, []float64{5}); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildFleetInstance(d, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.Run(inst, &online.Greedy{}); err == nil {
		t.Fatal("online.Run accepted a fleet instance")
	}
	sink, err := NewSink(SinkConfig{Inst: inst, Scheduler: &online.Greedy{}})
	if err == nil {
		sink.Close()
		t.Fatal("NewSink accepted a fleet instance")
	}
}
