package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/online"
	"mobisink/internal/wal"
)

// tourRecords rebuilds the journal a sink with a WAL writes for a
// completed fault-free tour: a Begin, one Commit per interval (ascending
// registered ids, ascending-slot pairs, per-sensor debits accumulated in
// slot order) and an End. Begin carries fingerprint fp; the sink's own
// fingerprint is internal to it, so callers that compare against a real
// journal pass the scanned Begin's value.
func tourRecords(inst *core.Instance, res *online.Result, fp uint64) []wal.Record {
	intervals := (inst.T + inst.Gamma - 1) / inst.Gamma
	registered := make([][]int, intervals)
	for id, ivs := range res.RegisteredIn {
		for _, iv := range ivs {
			registered[iv] = append(registered[iv], id)
		}
	}
	recs := []wal.Record{wal.Begin{Sensors: len(inst.Sensors), T: inst.T, Gamma: inst.Gamma, Fingerprint: fp}}
	for j := 0; j < intervals; j++ {
		c := wal.Commit{Interval: j, Registered: registered[j]}
		start, end := j*inst.Gamma, min((j+1)*inst.Gamma, inst.T)
		spend := make(map[int]*wal.Debit)
		var order []int
		for slot := start; slot < end; slot++ {
			sensor := res.Alloc.SlotOwner[slot]
			if sensor < 0 {
				continue
			}
			c.Pairs = append(c.Pairs, wal.Assign{Slot: slot, Sensor: sensor})
			d := spend[sensor]
			if d == nil {
				d = &wal.Debit{Sensor: sensor}
				spend[sensor] = d
				order = append(order, sensor)
			}
			s := &inst.Sensors[sensor]
			d.Energy += s.PowerAt(slot) * inst.Tau
			d.Data += s.RateAt(slot) * inst.Tau
		}
		sort.Ints(order)
		for _, sensor := range order {
			c.Debits = append(c.Debits, *spend[sensor])
		}
		recs = append(recs, c)
	}
	return append(recs, wal.End{})
}

// sameRecords compares two record streams by their on-disk encoding.
func sameRecords(got, want []wal.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("journal holds %d records, tour implies %d", len(got), len(want))
	}
	for i := range got {
		a, err := wal.AppendRecord(nil, got[i])
		if err != nil {
			return err
		}
		b, err := wal.AppendRecord(nil, want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("journal record %d differs from the tour's commit", i)
		}
	}
	return nil
}

// scanJournal reads every record of a closed journal.
func scanJournal(path string) ([]wal.Record, error) {
	log, recs, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	return recs, log.Close()
}

// walProbe is the traced run's out-of-band measurement of the wal layer
// on one tour's record stream: each record appended (and fsync'd) into a
// fresh journal, then the journal re-opened and replayed.
type walProbe struct {
	appends []interval
	replay  interval
	bytes   int64
}

type interval struct{ start, end time.Time }

func probeJournal(path string, recs []wal.Record) (walProbe, error) {
	var p walProbe
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return p, err
	}
	log, old, err := wal.Open(path)
	if err != nil {
		return p, err
	}
	if len(old) != 0 {
		log.Close()
		return p, fmt.Errorf("wal probe: %s is not empty", path)
	}
	for _, r := range recs {
		start := time.Now()
		if err := log.Append(r); err != nil {
			log.Close()
			return p, err
		}
		p.appends = append(p.appends, interval{start, time.Now()})
	}
	if err := log.Close(); err != nil {
		return p, err
	}
	p.replay.start = time.Now()
	back, err := scanJournal(path)
	p.replay.end = time.Now()
	if err != nil {
		return p, err
	}
	if err := sameRecords(back, recs); err != nil {
		return p, fmt.Errorf("wal probe replay: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return p, err
	}
	p.bytes = fi.Size()
	return p, os.Remove(path)
}
