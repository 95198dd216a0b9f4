package online

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"mobisink/internal/core"
	"mobisink/internal/wal"
)

// Journal is a tour's write-ahead log, a wal.Log on a real sink. Append
// must encode the record before it returns: the Driver reuses its slices.
type Journal interface {
	Append(wal.Record) error
	Close() error
}

// Fingerprint folds the tour-defining parameters — shape, slot length,
// radio range, and every sensor's budget, window, position, and data cap
// — into one hash, so a journal cannot replay into another deployment.
func Fingerprint(inst *core.Instance) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(inst.T))
	put(uint64(inst.Gamma))
	put(math.Float64bits(inst.Tau))
	put(math.Float64bits(inst.Range))
	for i := range inst.Sensors {
		sn := &inst.Sensors[i]
		put(uint64(sn.ID))
		put(math.Float64bits(sn.Budget))
		put(uint64(int64(sn.Start)))
		put(uint64(int64(sn.End)))
		put(math.Float64bits(sn.Pos.X))
		put(math.Float64bits(sn.Pos.Y))
		put(math.Float64bits(inst.DataCapOf(i)))
	}
	return h.Sum64()
}

// replay rebuilds a fresh ledger's books from a journal's records and
// reports whether they end the tour. The Begin must match the instance,
// the Commits be gapless, and the allocation feasible and keep Lemma 1.
func (l *Ledger) replay(recs []wal.Record) (ended bool, err error) {
	inst, res := l.inst, l.res
	b, ok := recs[0].(wal.Begin)
	if !ok {
		return false, errors.New("online: journal does not start with a Begin record")
	}
	if fp := Fingerprint(inst); b.Sensors != len(inst.Sensors) || b.T != inst.T || b.Gamma != inst.Gamma || b.Fingerprint != fp {
		return false, fmt.Errorf("online: journal written for a different instance (fingerprint %x, want %x)", b.Fingerprint, fp)
	}
	for _, r := range recs[1:] {
		switch r := r.(type) {
		case wal.Commit:
			if ended {
				return false, errors.New("online: journal has a Commit after End")
			}
			if err := l.applyCommit(r); err != nil {
				return false, err
			}
		case wal.End:
			ended = true
		default:
			return false, fmt.Errorf("online: unexpected journal record %T", r)
		}
	}
	if _, err := inst.Validate(res.Alloc); err != nil {
		return false, fmt.Errorf("online: journal replays to infeasible allocation: %w", err)
	}
	if err := res.CheckLemma1(); err != nil {
		return false, fmt.Errorf("online: journal replays to Lemma 1 violation: %w", err)
	}
	return ended, nil
}

// applyCommit replays one committed interval: the registrations, the
// slot owners, and the debits through the live commit's own clamped
// subtraction (Result.Debit), so residuals are bit-identical.
func (l *Ledger) applyCommit(c wal.Commit) error {
	inst, res := l.inst, l.res
	if c.Interval != l.committed+1 {
		return fmt.Errorf("online: journal commits interval %d after %d", c.Interval, l.committed)
	}
	n := len(inst.Sensors)
	for _, id := range c.Registered {
		if id < 0 || id >= n {
			return fmt.Errorf("online: journal registers unknown sensor %d", id)
		}
		res.RegisteredIn[id] = append(res.RegisteredIn[id], c.Interval)
	}
	for _, p := range c.Pairs {
		if p.Slot < 0 || p.Slot >= inst.T || p.Sensor < 0 || p.Sensor >= n {
			return fmt.Errorf("online: journal assigns slot %d to sensor %d out of range", p.Slot, p.Sensor)
		}
		if res.Alloc.SlotOwner[p.Slot] != -1 {
			return fmt.Errorf("online: journal double-books slot %d", p.Slot)
		}
		res.Alloc.SlotOwner[p.Slot] = p.Sensor
	}
	for _, d := range c.Debits {
		if d.Sensor < 0 || d.Sensor >= n {
			return fmt.Errorf("online: journal debits unknown sensor %d", d.Sensor)
		}
		res.Debit(d)
	}
	// Reconstruct the message counters the live run tallied. Retransmits
	// and repair unicasts are transport effort, not tour state: unjournaled.
	res.Messages.Probes++
	if len(c.Registered) > 0 {
		res.Messages.Acks += len(c.Registered)
		res.Messages.Schedules++
		res.Messages.Finishes++
	}
	l.committed = c.Interval
	return nil
}
