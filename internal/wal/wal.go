// Package wal is the sink's durable interval journal: an append-only,
// checksummed, length-prefixed record log that survives a sink crash and
// lets a restarted process resume the tour at the first uncommitted
// interval with every committed interval's assignments and debits intact.
//
// The record discipline deliberately mirrors internal/wire's framing:
// big-endian fixed-width fields, strict exact-length decoding, typed
// errors. Each record is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// and the payload starts with a one-byte record kind. Replay is tolerant
// of a torn tail: a crash mid-append leaves a truncated or corrupt last
// record, Scan stops before it, and Open truncates the file there so the
// next append starts from a clean prefix. Damage before the tail is not
// a torn tail: when a record whose checksum holds follows the first one
// that fails to decode, Scan reports ErrDamaged and Open refuses the
// journal, leaving its bytes as they were. Truncating there would drop
// every later record, and a restarted tour would rerun intervals whose
// Finish the sensors already applied.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// MaxRecord bounds one record's payload so a corrupt length prefix
// cannot drive an allocation of gigabytes. A Commit for an interval
// with thousands of registered sensors fits comfortably.
const MaxRecord = 1 << 20

// Typed journal errors, mirroring internal/wire's decode errors.
var (
	ErrRecordTooLarge = errors.New("wal: record exceeds size bound")
	ErrTruncated      = errors.New("wal: truncated record")
	ErrChecksum       = errors.New("wal: payload checksum mismatch")
	ErrTrailing       = errors.New("wal: trailing bytes after payload fields")
	ErrUnknownKind    = errors.New("wal: unknown record kind")
	ErrBadField       = errors.New("wal: field out of range")
	// ErrDamaged reports a journal damaged before its tail: a record
	// that fails to decode is followed by one whose checksum holds.
	ErrDamaged = errors.New("wal: damaged record before the journal's tail")
)

// Kind tags a journal record's payload shape.
type Kind uint8

// Record kinds. Values are on-disk format; append only.
const (
	// KindBegin opens a journal: tour shape plus an instance fingerprint
	// so replay can refuse a journal written for a different deployment.
	KindBegin Kind = iota + 1
	// KindCommit seals one interval: registrations, slot assignments,
	// and end-of-interval budget debits.
	KindCommit
	// KindEnd marks a completed tour; replay after End refuses to resume.
	KindEnd
)

// Record is one replayable journal entry.
type Record interface {
	Kind() Kind
}

// Begin is the journal header record.
type Begin struct {
	Sensors     int
	T           int
	Gamma       int
	Fingerprint uint64
}

// Assign is one (slot, sensor) scheduling decision inside a Commit.
type Assign struct {
	Slot   int
	Sensor int
}

// Debit is one sensor's end-of-interval ledger movement: the energy
// spent and the data drained, exactly as the sink computed them (bit
// patterns preserved, so replay reproduces residuals bit-identically).
type Debit struct {
	Sensor int
	Energy float64
	Data   float64
}

// Commit seals one interval of the tour.
type Commit struct {
	Interval   int
	Registered []int
	Pairs      []Assign
	Debits     []Debit
}

// End marks a completed tour.
type End struct{}

// Kind implementations.
func (Begin) Kind() Kind  { return KindBegin }
func (Commit) Kind() Kind { return KindCommit }
func (End) Kind() Kind    { return KindEnd }

const (
	beginLen  = 1 + 4 + 4 + 4 + 8 // kind, sensors, T, gamma, fingerprint
	endLen    = 1
	commitMin = 1 + 4 + 4 + 4 + 4 // kind, interval, three counts
	assignLen = 4 + 4
	debitLen  = 4 + 8 + 8
)

// AppendRecord encodes the record (length prefix, checksum, payload)
// onto buf and returns the extended slice.
func AppendRecord(buf []byte, r Record) ([]byte, error) {
	payload, err := appendPayload(nil, r)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecord {
		return nil, ErrRecordTooLarge
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

func appendPayload(p []byte, r Record) ([]byte, error) {
	switch v := r.(type) {
	case Begin:
		if v.Sensors < 0 || v.T < 0 || v.Gamma < 0 ||
			!fitsI32(v.Sensors) || !fitsI32(v.T) || !fitsI32(v.Gamma) {
			return nil, ErrBadField
		}
		p = append(p, byte(KindBegin))
		p = appendI32(p, v.Sensors)
		p = appendI32(p, v.T)
		p = appendI32(p, v.Gamma)
		return binary.BigEndian.AppendUint64(p, v.Fingerprint), nil
	case Commit:
		if v.Interval < 0 || !fitsI32(v.Interval) {
			return nil, ErrBadField
		}
		p = append(p, byte(KindCommit))
		p = appendI32(p, v.Interval)
		p = appendI32(p, len(v.Registered))
		p = appendI32(p, len(v.Pairs))
		p = appendI32(p, len(v.Debits))
		for _, id := range v.Registered {
			if id < 0 || !fitsI32(id) {
				return nil, ErrBadField
			}
			p = appendI32(p, id)
		}
		for _, a := range v.Pairs {
			if a.Slot < 0 || a.Sensor < 0 || !fitsI32(a.Slot) || !fitsI32(a.Sensor) {
				return nil, ErrBadField
			}
			p = appendI32(p, a.Slot)
			p = appendI32(p, a.Sensor)
		}
		for _, d := range v.Debits {
			if d.Sensor < 0 || !fitsI32(d.Sensor) ||
				math.IsNaN(d.Energy) || d.Energy < 0 ||
				math.IsNaN(d.Data) || d.Data < 0 {
				return nil, ErrBadField
			}
			p = appendI32(p, d.Sensor)
			p = binary.BigEndian.AppendUint64(p, math.Float64bits(d.Energy))
			p = binary.BigEndian.AppendUint64(p, math.Float64bits(d.Data))
		}
		return p, nil
	case End:
		return append(p, byte(KindEnd)), nil
	default:
		return nil, fmt.Errorf("wal: cannot encode %T", r)
	}
}

// Commit's encoder writes three counts then the bodies in order; the
// decoder validates counts against the remaining byte budget BEFORE
// allocating, so a corrupt count cannot drive an over-allocation.
func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return nil, ErrTruncated
	}
	switch Kind(p[0]) {
	case KindBegin:
		if len(p) != beginLen {
			return nil, lenErr(len(p), beginLen)
		}
		b := Begin{
			Sensors:     getI32(p[1:]),
			T:           getI32(p[5:]),
			Gamma:       getI32(p[9:]),
			Fingerprint: binary.BigEndian.Uint64(p[13:]),
		}
		if b.Sensors < 0 || b.T < 0 || b.Gamma < 0 {
			return nil, ErrBadField
		}
		return b, nil
	case KindCommit:
		if len(p) < commitMin {
			return nil, ErrTruncated
		}
		c := Commit{Interval: getI32(p[1:])}
		if c.Interval < 0 {
			return nil, ErrBadField
		}
		nReg, nPair, nDeb := getI32(p[5:]), getI32(p[9:]), getI32(p[13:])
		if nReg < 0 || nPair < 0 || nDeb < 0 {
			return nil, ErrBadField
		}
		want := commitMin + 4*nReg + assignLen*nPair + debitLen*nDeb
		if len(p) < commitMin+4*nReg { // guard the multiply paths stepwise
			return nil, ErrTruncated
		}
		if len(p) != want {
			return nil, lenErr(len(p), want)
		}
		off := commitMin
		if nReg > 0 {
			c.Registered = make([]int, nReg)
			for i := range c.Registered {
				id := getI32(p[off:])
				if id < 0 {
					return nil, ErrBadField
				}
				c.Registered[i] = id
				off += 4
			}
		}
		if nPair > 0 {
			c.Pairs = make([]Assign, nPair)
			for i := range c.Pairs {
				a := Assign{Slot: getI32(p[off:]), Sensor: getI32(p[off+4:])}
				if a.Slot < 0 || a.Sensor < 0 {
					return nil, ErrBadField
				}
				c.Pairs[i] = a
				off += assignLen
			}
		}
		if nDeb > 0 {
			c.Debits = make([]Debit, nDeb)
			for i := range c.Debits {
				d := Debit{
					Sensor: getI32(p[off:]),
					Energy: math.Float64frombits(binary.BigEndian.Uint64(p[off+4:])),
					Data:   math.Float64frombits(binary.BigEndian.Uint64(p[off+12:])),
				}
				if d.Sensor < 0 || math.IsNaN(d.Energy) || d.Energy < 0 ||
					math.IsNaN(d.Data) || d.Data < 0 {
					return nil, ErrBadField
				}
				c.Debits[i] = d
				off += debitLen
			}
		}
		return c, nil
	case KindEnd:
		if len(p) != endLen {
			return nil, lenErr(len(p), endLen)
		}
		return End{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, p[0])
	}
}

func lenErr(got, want int) error {
	if got < want {
		return ErrTruncated
	}
	return ErrTrailing
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 8 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > MaxRecord {
		return nil, 0, ErrRecordTooLarge
	}
	if len(buf) < 8+n {
		return nil, 0, ErrTruncated
	}
	payload := buf[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[4:]) {
		return nil, 0, ErrChecksum
	}
	r, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return r, 8 + n, nil
}

// Scan replays every record from r, stopping before the first one
// DecodeRecord refuses. It returns the decoded records and the byte
// length of their prefix. The error is nil for a clean EOF and for a
// torn tail, where no record whose checksum holds follows the break. It
// wraps ErrDamaged, naming both offsets, when one does: the break is
// damage, not a tail. A read error from r is returned with no records.
func Scan(r io.Reader) ([]Record, int64, error) {
	var b bytes.Buffer
	if _, err := io.Copy(&b, r); err != nil {
		return nil, 0, err
	}
	var recs []Record
	var valid int64
	for {
		rec, n, err := DecodeRecord(b.Bytes()[valid:])
		if err != nil {
			rest := b.Bytes()[valid:]
			for off := 1; off+8 <= len(rest); off++ {
				if sealed(rest[off:]) {
					return recs, valid, fmt.Errorf("%w: record at offset %d fails to decode (%v), a sealed record follows at offset %d",
						ErrDamaged, valid, err, valid+int64(off))
				}
			}
			return recs, valid, nil
		}
		recs = append(recs, rec)
		valid += int64(n)
		recordsReplayed.Inc()
	}
}

// sealed reports whether buf starts with a non-empty record whose
// checksum holds.
func sealed(buf []byte) bool {
	n := int(binary.BigEndian.Uint32(buf))
	return n >= 1 && n <= MaxRecord && len(buf) >= 8+n &&
		crc32.ChecksumIEEE(buf[8:8+n]) == binary.BigEndian.Uint32(buf[4:])
}

// Log is an open journal positioned for appending.
type Log struct {
	f   *os.File
	buf []byte
}

// Open opens (creating if absent) the journal at path, replays it,
// truncates a torn tail, and returns the log positioned for appending
// plus the replayed records. A journal damaged before its tail
// (ErrDamaged) is refused, its bytes untouched.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, valid, err := Scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f}, recs, nil
}

// Append encodes the record, writes it, and fsyncs so the commit is
// durable before the caller proceeds.
func (l *Log) Append(r Record) error {
	buf, err := AppendRecord(l.buf[:0], r)
	if err != nil {
		return err
	}
	l.buf = buf[:0]
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	recordsWritten.Inc()
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// Binary helpers, mirroring internal/wire.
func appendI32(p []byte, v int) []byte {
	return binary.BigEndian.AppendUint32(p, uint32(int32(v)))
}

func getI32(p []byte) int { return int(int32(binary.BigEndian.Uint32(p))) }

func fitsI32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }
