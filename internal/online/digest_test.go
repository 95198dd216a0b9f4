package online

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mobisink/internal/fault"
	"mobisink/internal/radio"
)

// tourDigest folds every observable field of a tour into one FNV-64a
// hash: slot owners, the bit patterns of the collected data and of every
// residual, the message counts, the registration history and the fault
// tallies. Two tours digest alike only if they are bit-identical.
func tourDigest(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putf := func(v float64) { put(math.Float64bits(v)) }
	for _, o := range res.Alloc.SlotOwner {
		put(uint64(int64(o)))
	}
	putf(res.Data)
	for i := range res.Residual {
		putf(res.Residual[i])
		putf(res.ResidualData[i])
	}
	m := res.Messages
	for _, v := range []int{m.Probes, m.Acks, m.Schedules, m.Finishes, m.Retransmits, m.RepairUnicasts} {
		put(uint64(v))
	}
	for _, ivs := range res.RegisteredIn {
		put(uint64(len(ivs)))
		for _, iv := range ivs {
			put(uint64(iv))
		}
	}
	if f := res.Fault; f != nil {
		for _, v := range []int{f.ProbesDropped, f.AcksLost, f.SchedulesMissed, f.FinishesJammed,
			f.ProbeRetransmissions, f.CrashSilences, f.RepairedSlots, f.LostSlots,
			f.DegradedIntervals, f.BudgetClamps} {
			put(uint64(v))
		}
		putf(f.ShortfallJoules)
	}
	return h.Sum64()
}

// TestFaultPathDigests pins the fault path's complete output over a grid
// of schedulers, drop rates and contention windows, so a change to the
// order of repairs, debits, clamps or message counts under faults shows
// up here, not only in invariant checks. The digests were re-recorded
// when the in-process sensors became Endpoints: a sensor writes off its
// own harvest shortfall at a Probe, stays silent itself when down, and
// withholds its Confirm when down at an assigned slot.
func TestFaultPathDigests(t *testing.T) {
	inst := paperInstance(t, 100, 31, radio.Paper2013(), 5, 1)
	capped := paperInstance(t, 100, 31, radio.Paper2013(), 5, 1)
	caps := make([]float64, len(capped.Sensors))
	for i := range caps {
		caps[i] = 150e3
	}
	if err := capped.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"appro/drop=0.05/window=0":             0xef227fec662a5ef5,
		"appro/drop=0.05/window=8":             0xd313be0ce54d4439,
		"appro/drop=0.2/window=0":              0x2a30c79536a86745,
		"appro/drop=0.2/window=8":              0xde3738d9e1e44cde,
		"appro/drop=0.5/window=0":              0x8ca17a5249f8e9c5,
		"appro/drop=0.5/window=8":              0x04f2e47782e01623,
		"greedy/drop=0.05/window=0":            0xe9b4b95eae41acc4,
		"greedy/drop=0.05/window=8":            0x96fcdd51cef1591d,
		"greedy/drop=0.2/window=0":             0xc33e1a58310db463,
		"greedy/drop=0.2/window=8":             0x639a2e0160be885d,
		"greedy/drop=0.5/window=0":             0x95c45a37f54ce042,
		"greedy/drop=0.5/window=8":             0xa9451dc2c8b15ba5,
		"sequential-capped/drop=0.05/window=0": 0xdc60a6f7c8747466,
		"sequential-capped/drop=0.05/window=8": 0xfcbb92eddc204c64,
		"sequential-capped/drop=0.2/window=0":  0x0faefdccc1e1aab5,
		"sequential-capped/drop=0.2/window=8":  0x0a468c01d3ce6576,
		"sequential-capped/drop=0.5/window=0":  0xa425029eac036ced,
		"sequential-capped/drop=0.5/window=8":  0x355818ab2df23f91,
	}
	var seen fault.Stats
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"appro", &Appro{}},
		{"greedy", &Greedy{}},
		{"sequential-capped", &Sequential{}},
	} {
		for _, rate := range []float64{0.05, 0.2, 0.5} {
			for _, window := range []int{0, 8} {
				label := fmt.Sprintf("%s/drop=%v/window=%d", tc.name, rate, window)
				target := inst
				if tc.name == "sequential-capped" {
					target = capped
				}
				plan := &fault.Plan{
					Seed:         53,
					DropProbe:    rate,
					DropAck:      rate,
					DropSchedule: rate,
					DropFinish:   rate,
					StallProb:    rate / 2,
					MaxRetries:   2,
					Crashes: []fault.Crash{
						{Sensor: 3, From: 100, To: 400},
						{Sensor: 17, From: 0, To: target.T - 1},
						{Sensor: 42, From: 900, To: 1100},
					},
					Shortfalls: []fault.Shortfall{
						{Sensor: 7, Slot: 50, Joules: 0.5},
						{Sensor: 23, Slot: 800, Joules: 1e6},
					},
					StallIntervals: []int{1},
				}
				res, err := RunOpts(target, tc.sched, Options{Faults: plan, AckWindow: window, Seed: 5})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				seen.RepairedSlots += res.Fault.RepairedSlots
				seen.LostSlots += res.Fault.LostSlots
				seen.DegradedIntervals += res.Fault.DegradedIntervals
				seen.BudgetClamps += res.Fault.BudgetClamps
				seen.CrashSilences += res.Fault.CrashSilences
				got := tourDigest(res)
				if w, ok := want[label]; !ok || got != w {
					t.Errorf("%s: digest %#016x, want %#016x", label, got, w)
				}
			}
		}
	}
	// The grid must reach every recovery branch, or the digests pin less
	// than they claim.
	if seen.RepairedSlots == 0 || seen.LostSlots == 0 || seen.DegradedIntervals == 0 ||
		seen.BudgetClamps == 0 || seen.CrashSilences == 0 {
		t.Errorf("grid left a recovery branch unexercised: %+v", seen)
	}
}

// TestLosslessPathDigests pins the lossless in-process tour's complete
// output, with and without Ack contention, for every scheduler: Appro,
// Greedy and MaxMatch on a fixed-power instance and Sequential on a
// data-capped one. The digests were recorded before the interval
// protocol moved into one driver over a Transport.
func TestLosslessPathDigests(t *testing.T) {
	fp, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fixed := paperInstance(t, 100, 37, fp, 5, 1)
	capped := paperInstance(t, 100, 37, radio.Paper2013(), 5, 1)
	caps := make([]float64, len(capped.Sensors))
	for i := range caps {
		caps[i] = 150e3
	}
	if err := capped.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"appro/window=0":             0x509bf50be23d2a2e,
		"appro/window=8":             0xa9469f2e4ffcbf78,
		"greedy/window=0":            0x4825ac4a9e304e34,
		"greedy/window=8":            0x1d5dbd99fa7486de,
		"maxmatch/window=0":          0x3df7b173ed185e81,
		"maxmatch/window=8":          0xfe52129e23adec5a,
		"sequential-capped/window=0": 0xc38c03f70b6eff4d,
		"sequential-capped/window=8": 0xdabe0199ec703d92,
	}
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"appro", &Appro{}},
		{"greedy", &Greedy{}},
		{"maxmatch", &MaxMatch{}},
		{"sequential-capped", &Sequential{}},
	} {
		for _, window := range []int{0, 8} {
			label := fmt.Sprintf("%s/window=%d", tc.name, window)
			target := fixed
			if tc.name == "sequential-capped" {
				target = capped
			}
			res, err := RunOpts(target, tc.sched, Options{AckWindow: window, Seed: 5})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Fault != nil {
				t.Fatalf("%s: lossless run took the fault path", label)
			}
			got := tourDigest(res)
			if w, ok := want[label]; !ok || got != w {
				t.Errorf("%s: digest %#016x, want %#016x", label, got, w)
			}
		}
	}
}
