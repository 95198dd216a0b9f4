package online

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/network"
	"mobisink/internal/radio"
	"mobisink/internal/wal"
)

// memJournal is an in-memory Journal: the bytes a wal.Log writes,
// without the file and the fsync.
type memJournal struct{ buf []byte }

func (j *memJournal) Append(r wal.Record) error {
	buf, err := wal.AppendRecord(j.buf, r)
	if err != nil {
		return err
	}
	j.buf = buf
	return nil
}

func (j *memJournal) Close() error { return nil }

// records scans the journal back, all of it.
func (j *memJournal) records(t *testing.T) []wal.Record {
	t.Helper()
	recs, valid, err := wal.Scan(bytes.NewReader(j.buf))
	if err != nil || valid != int64(len(j.buf)) {
		t.Fatalf("journal scans %d of %d bytes: %v", valid, len(j.buf), err)
	}
	return recs
}

// crashTour is one tour configuration of the crash tests: an instance, a
// scheduler and the memory transport's options. A non-zero Faults plan
// makes the tour recovering, as RunOpts does.
type crashTour struct {
	name  string
	inst  *core.Instance
	sched func() Scheduler
	opts  Options
}

// build makes the tour over *m with journal j, replaying recs. A nil *m
// gets a fresh memory transport; an existing one is kept — sensors and
// channel outlive a sink crash — and bound to the new tour's Result.
func (c crashTour) build(t *testing.T, m **memory, j Journal, recs []wal.Record) *Driver {
	t.Helper()
	var plan fault.Plan
	if c.opts.Faults != nil {
		plan = *c.opts.Faults
	}
	inj, err := fault.NewInjector(plan, len(c.inst.Sensors), c.inst.T)
	if err != nil {
		t.Fatal(err)
	}
	var fb *Fallback
	if !plan.Zero() {
		fb = &Fallback{Stalls: inj}
	}
	d, err := NewTour(c.inst, c.sched(), fb, inj.MaxRetries(), j, recs, func(res *Result) Transport {
		if *m == nil {
			*m = newMemory(c.inst, res, inj, c.opts)
			return *m
		}
		(*m).res = res
		if res.Fault != nil {
			(*m).st = res.Fault
		}
		return *m
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return d
}

// bitsEqual reports whether two float slices hold the same bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBooks reports the first difference between two tours' books: slot
// owners, collected data, registrations and residuals, all bit for bit.
func sameBooks(got, want *Result) error {
	switch {
	case !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner):
		return errors.New("slot owners differ")
	case math.Float64bits(got.Data) != math.Float64bits(want.Data):
		return fmt.Errorf("data %v, want %v", got.Data, want.Data)
	case !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn):
		return errors.New("registrations differ")
	case !bitsEqual(got.Residual, want.Residual):
		return errors.New("residual energy differs")
	case !bitsEqual(got.ResidualData, want.ResidualData):
		return errors.New("residual data differs")
	}
	return nil
}

// crashTours builds the crash tests' tours on three seeds: lossless
// tours of every scheduler with AckWindow 0, and tours under Ack
// contention and a fault plan that drops every message class, crashes
// sensors, cuts their harvest short and stalls the scheduler.
func crashTours(t *testing.T) (lossless, faulty []crashTour) {
	fp, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{51, 52, 53} {
		inst := paperInstance(t, 40, seed, radio.Paper2013(), 5, 1)
		fixed := paperInstance(t, 40, seed, fp, 5, 1)
		capped := paperInstance(t, 40, seed, radio.Paper2013(), 5, 1)
		caps := make([]float64, len(capped.Sensors))
		for i := range caps {
			caps[i] = 150e3
		}
		if err := capped.SetDataCaps(caps); err != nil {
			t.Fatal(err)
		}
		name := func(s string) string { return fmt.Sprintf("%s/seed=%d", s, seed) }
		lossless = append(lossless,
			crashTour{name("appro"), inst, func() Scheduler { return &Appro{} }, Options{}},
			crashTour{name("greedy"), inst, func() Scheduler { return &Greedy{} }, Options{}},
			crashTour{name("maxmatch"), fixed, func() Scheduler { return &MaxMatch{} }, Options{}},
			crashTour{name("sequential-capped"), capped, func() Scheduler { return &Sequential{} }, Options{}},
		)
		plan := &fault.Plan{
			Seed: seed, DropProbe: 0.1, DropAck: 0.1, DropSchedule: 0.1, DropFinish: 0.1,
			StallProb: 0.1, MaxRetries: 2,
			Crashes: []fault.Crash{
				{Sensor: 3, From: 100, To: 400},
				{Sensor: 17, From: 0, To: inst.T - 1},
				{Sensor: 32, From: 900, To: 1100},
			},
			Shortfalls: []fault.Shortfall{
				{Sensor: 5, Slot: 0, Joules: inst.Sensors[5].Budget / 2},
				{Sensor: 20, Slot: inst.T / 3, Joules: 1e6},
				{Sensor: 33, Slot: inst.T / 2, Joules: 0.5},
			},
		}
		opts := Options{AckWindow: 8, Seed: seed, Faults: plan}
		faulty = append(faulty,
			crashTour{name("appro-faulty"), inst, func() Scheduler { return &Appro{} }, opts},
			crashTour{name("greedy-faulty"), inst, func() Scheduler { return &Greedy{} }, opts},
		)
	}
	return lossless, faulty
}

// TestCrashAtEveryCommit halts an in-process tour after every interval
// k, replays the journal written so far into a fresh ledger, finishes
// the tour over the same memory transport, and compares it with the
// uninterrupted run. A lossless stitched tour is bit-equal to it, every
// message count included, and journals exactly its bytes. Under faults
// the books are bit-equal; the message counts are not, because the
// memory transport counts collided Acks and the journal keeps neither
// them nor the retransmits and repairs.
func TestCrashAtEveryCommit(t *testing.T) {
	ctx := context.Background()
	lossless, faulty := crashTours(t)
	for _, c := range append(lossless, faulty...) {
		exact := c.opts.Faults == nil
		var m *memory
		whole := &memJournal{}
		want, err := c.build(t, &m, whole, nil).Run(ctx, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The tour the test builds is the one RunOpts runs.
		ref, err := RunOpts(c.inst, c.sched(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(want, ref) {
			t.Fatalf("%s: test tour differs from RunOpts", c.name)
		}
		if want.Intervals < 3 {
			t.Fatalf("%s: %d intervals, too short to crash mid-tour", c.name, want.Intervals)
		}
		if !exact && want.Fault.ShortfallJoules == 0 {
			t.Fatalf("%s: no sensor wrote off a shortfall", c.name)
		}
		for k := 1; k < want.Intervals; k++ {
			m = nil
			j := &memJournal{}
			halted := c.build(t, &m, j, nil)
			if _, err := halted.Run(ctx, k); !errors.Is(err, ErrHalted) {
				t.Fatalf("%s halt %d: %v, want ErrHalted", c.name, k, err)
			}
			if got := halted.Ledger().Committed(); got != k-1 {
				t.Fatalf("%s halt %d: ledger says interval %d committed, want %d", c.name, k, got, k-1)
			}
			recs := j.records(t)
			if len(recs) != 1+k {
				t.Fatalf("%s halt %d: journal holds %d records, want a Begin and %d Commits", c.name, k, len(recs), k)
			}
			got, err := c.build(t, &m, j, recs).Run(ctx, 0)
			if err != nil {
				t.Fatalf("%s halt %d: resumed tour: %v", c.name, k, err)
			}
			if err := sameBooks(got, want); err != nil {
				t.Fatalf("%s halt %d: %v", c.name, k, err)
			}
			if !exact {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s halt %d: stitched result %+v, want %+v", c.name, k, got, want)
			}
			if !bytes.Equal(j.buf, whole.buf) {
				t.Fatalf("%s halt %d: stitched journal differs from the uninterrupted one", c.name, k)
			}
		}
		// A complete journal replays the whole tour without running an
		// interval, and journals nothing more.
		n := len(whole.buf)
		got, err := c.build(t, &m, whole, whole.records(t)).Run(ctx, 0)
		if err != nil {
			t.Fatalf("%s: replay-only tour: %v", c.name, err)
		}
		if err := sameBooks(got, want); err != nil || len(whole.buf) != n {
			t.Fatalf("%s: replay-only tour: %v, journal %d bytes, was %d", c.name, err, len(whole.buf), n)
		}
	}
}

// journalDigest is the SHA-256 of the journal of one fixed lossless
// tour, recorded from a wire sink's WAL before the journal moved into
// this package. internal/wire's TestJournalDigest pins the same bytes.
const journalDigest = "c11d32d0b612a2e303c4f4590341374dcc7c11082e857e5fa83afaee22e45b61"

// TestJournalDigest runs that tour in process: 24 sensors on a 1400 m
// path, seed 21, Appro.
func TestJournalDigest(t *testing.T) {
	d, err := network.Generate(network.Params{N: 24, PathLength: 1400, MaxOffset: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 2000, 0.2, rand.New(rand.NewSource(21))); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(d, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var m *memory
	j := &memJournal{}
	c := crashTour{"digest", inst, func() Scheduler { return &Appro{} }, Options{}}
	if _, err := c.build(t, &m, j, nil).Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(j.buf)); got != journalDigest {
		t.Fatalf("journal of %d bytes digests to %s, want %s", len(j.buf), got, journalDigest)
	}
}

// TestReplayRefusals feeds hand-built record streams to a fresh tour:
// each breaks one replay rule and must be refused with an error.
func TestReplayRefusals(t *testing.T) {
	inst := paperInstance(t, 20, 61, radio.Paper2013(), 5, 1)
	n, T := len(inst.Sensors), inst.T
	begin := wal.Begin{Sensors: n, T: T, Gamma: inst.Gamma, Fingerprint: Fingerprint(inst)}
	// outside is a slot outside sensor 0's window.
	s := &inst.Sensors[0]
	outside := s.End + 1
	if outside >= T {
		outside = s.Start - 1
	}
	commit := func(iv int, regs []int, pairs []wal.Assign, debits []wal.Debit) wal.Commit {
		return wal.Commit{Interval: iv, Registered: regs, Pairs: pairs, Debits: debits}
	}
	for _, tc := range []struct {
		name, want string
		recs       []wal.Record
	}{
		{"no-begin", "does not start with a Begin", []wal.Record{commit(0, nil, nil, nil)}},
		{"nil-first", "does not start with a Begin", []wal.Record{nil}},
		{"foreign-instance", "different instance", []wal.Record{wal.Begin{Sensors: n, T: T, Gamma: inst.Gamma, Fingerprint: begin.Fingerprint + 1}}},
		{"second-begin", "unexpected journal record", []wal.Record{begin, begin}},
		{"nil-record", "unexpected journal record", []wal.Record{begin, nil}},
		{"commit-after-end", "Commit after End", []wal.Record{begin, commit(0, nil, nil, nil), wal.End{}, commit(1, nil, nil, nil)}},
		{"gap-at-start", "commits interval 1 after -1", []wal.Record{begin, commit(1, nil, nil, nil)}},
		{"gap", "commits interval 2 after 0", []wal.Record{begin, commit(0, nil, nil, nil), commit(2, nil, nil, nil)}},
		{"repeat", "commits interval 0 after 0", []wal.Record{begin, commit(0, nil, nil, nil), commit(0, nil, nil, nil)}},
		{"slot-past-tour", "out of range", []wal.Record{begin, commit(0, nil, []wal.Assign{{Slot: T, Sensor: 0}}, nil)}},
		{"negative-slot", "out of range", []wal.Record{begin, commit(0, nil, []wal.Assign{{Slot: -1, Sensor: 0}}, nil)}},
		{"pair-unknown-sensor", "out of range", []wal.Record{begin, commit(0, nil, []wal.Assign{{Slot: 0, Sensor: n}}, nil)}},
		{"pair-negative-sensor", "out of range", []wal.Record{begin, commit(0, nil, []wal.Assign{{Slot: 0, Sensor: -1}}, nil)}},
		{"double-booked", "double-books", []wal.Record{begin,
			commit(0, nil, []wal.Assign{{Slot: s.Start, Sensor: 0}}, nil),
			commit(1, nil, []wal.Assign{{Slot: s.Start, Sensor: 0}}, nil)}},
		{"registers-unknown", "registers unknown sensor", []wal.Record{begin, commit(0, []int{n}, nil, nil)}},
		{"registers-negative", "registers unknown sensor", []wal.Record{begin, commit(0, []int{-1}, nil, nil)}},
		{"debits-unknown", "debits unknown sensor", []wal.Record{begin, commit(0, nil, nil, []wal.Debit{{Sensor: n}})}},
		{"debits-negative", "debits unknown sensor", []wal.Record{begin, commit(0, nil, nil, []wal.Debit{{Sensor: -1}})}},
		{"infeasible", "infeasible", []wal.Record{begin, commit(0, nil, []wal.Assign{{Slot: outside, Sensor: 0}}, nil)}},
		{"lemma1-gap", "Lemma 1", []wal.Record{begin, commit(0, []int{5}, nil, nil), commit(1, nil, nil, nil), commit(2, []int{5}, nil, nil)}},
		{"lemma1-thrice", "Lemma 1", []wal.Record{begin, commit(0, []int{5}, nil, nil), commit(1, []int{5}, nil, nil), commit(2, []int{5}, nil, nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTour(inst, &Greedy{}, nil, 0, &memJournal{}, tc.recs, func(res *Result) Transport {
				t.Fatal("bind ran for a journal that replay should refuse")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCommittedDuringTour reads the committed-interval watermark from
// another goroutine while a tour runs, as a wire session handshake does:
// the ledger's lock orders the reads against the driver's writes (run it
// with -race), and the watermark only moves forward, to the last
// interval.
func TestCommittedDuringTour(t *testing.T) {
	inst := paperInstance(t, 60, 41, radio.Paper2013(), 5, 1)
	var m *memory
	d := crashTour{"watermark", inst, func() Scheduler { return &Greedy{} }, Options{}}.build(t, &m, &memJournal{}, nil)
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := d.Ledger().Committed()
			if c < last {
				t.Errorf("watermark moved back from %d to %d", last, c)
				return
			}
			last = c
		}
	}()
	res, err := d.Run(context.Background(), 0)
	close(stop)
	<-read
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Ledger().Committed(); got != res.Intervals-1 {
		t.Fatalf("watermark %d after the tour, want %d", got, res.Intervals-1)
	}
}
