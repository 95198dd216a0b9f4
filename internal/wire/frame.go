// Package wire promotes the online protocol (paper Algorithm 2) from
// in-process function calls to a real transport. It defines a compact,
// versioned, length-prefixed binary framing for the protocol's message
// types — Hello (the sensor's session handshake, answered by a Sync),
// Probe, Ack (carrying an online.Registration), Schedule, and Finish —
// plus, on top of the framing:
//
//   - Sink, a TCP server that accepts long-lived sensor connections and
//     runs the interval loop (probe broadcast → registration window →
//     scheduler → schedule/finish broadcast) with online.RunCtx's own
//     driver, so it probes the same sensors and debits budgets exactly
//     as the in-process run;
//   - SensorClient, the socket, handshake, heartbeat and redial around
//     one online.Endpoint, which answers probes according to the
//     sensor's visibility window, residual budget, and data queue;
//   - ChaosProxy, which translates internal/fault plans into real
//     network-level frame drops, delays, and reorders, so the recovery
//     machinery (retransmission, stale-budget clamps, schedule repair,
//     degraded fallback) is exercised over sockets.
//
// Frame layout (all integers big-endian):
//
//	uint32  length   payload byte count, 1 ≤ length ≤ MaxFrame
//	[]byte  payload  message tag byte followed by the tag's fixed fields
//
// Decoding is strict: a payload must consume exactly its declared length,
// unknown tags, bad magic, version mismatches, and out-of-domain fields
// are errors, and no input can make the decoder panic or over-read (see
// FuzzFrameDecode).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mobisink/internal/online"
)

// Version is the protocol version carried by the Hello handshake. A sink
// and sensor with different versions refuse to talk: the sink closes the
// connection on another version's Hello without answering it.
const Version = 3

// magic opens every Hello payload; it guards against a non-protocol peer
// (or a desynchronized stream) being interpreted as a handshake.
const magic = 0x4D53 // "MS"

// MaxFrame bounds a frame's payload size. A length prefix above it is
// rejected before any allocation, so a hostile peer cannot make a reader
// allocate unbounded memory.
const MaxFrame = 1 << 16

// Decode error sentinels. Wrapped errors carry context; test with
// errors.Is.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrTrailing      = errors.New("wire: trailing bytes after message")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrBadMagic      = errors.New("wire: bad handshake magic")
	ErrVersion       = errors.New("wire: protocol version mismatch")
	ErrBadField      = errors.New("wire: field out of domain")
)

// Type tags a protocol message on the wire.
type Type uint8

// Wire message tags. The values are part of the protocol.
const (
	TypeHello Type = iota + 1
	TypeProbe
	TypeAck
	TypeSchedule
	TypeFinish
	// TypeSync is the sink's answer to a Hello: the authoritative
	// session state.
	TypeSync
	// TypeHeartbeat is the idle keepalive; it carries no fields and is
	// consumed by the connection layer, never surfaced to the protocol.
	TypeHeartbeat
)

// String returns the lowercase tag name (metric label values).
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeProbe:
		return "probe"
	case TypeAck:
		return "ack"
	case TypeSchedule:
		return "schedule"
	case TypeFinish:
		return "finish"
	case TypeSync:
		return "sync"
	case TypeHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Msg is one protocol message.
type Msg interface {
	// Type returns the message's wire tag.
	Type() Type
}

// Hello is the sensor's handshake, the first frame on a new connection.
// Sensor is the dense sensor index. Token is the sensor's session token
// from a previous connection (0 = none, request a fresh session) and
// LastInterval the last interval whose Finish it committed (-1 = none);
// the sink answers with a Sync carrying the authoritative state.
type Hello struct {
	Version      uint8
	Sensor       int
	Token        uint64
	LastInterval int
}

// Type implements Msg.
func (*Hello) Type() Type { return TypeHello }

// Sync is the sink's authoritative answer to a Hello. Resumed reports
// whether an existing session was found (false = fresh session issued);
// Token is the session token to present on the next reconnect; Interval
// is the last interval the sink committed for this sensor; Missed
// counts the intervals the sensor was disconnected for (accounted as
// declines); Budget and DataLeft are the sink's ledger residuals, which
// the sensor's endpoint adopts where lower (online.Endpoint.Sync).
type Sync struct {
	Resumed  bool
	Token    uint64
	Interval int
	Missed   int
	Budget   float64
	DataLeft float64
}

// Type implements Msg.
func (*Sync) Type() Type { return TypeSync }

// Heartbeat is the idle keepalive frame. It is written by the
// connection layer when the write side has been idle for a heartbeat
// period and consumed by the peer's read loop; the protocol above never
// sees it.
type Heartbeat struct{}

// Type implements Msg.
func (*Heartbeat) Type() Type { return TypeHeartbeat }

// Probe is the sink's registration solicitation for one interval:
// broadcast at the interval start (Attempt 0) and unicast to stragglers
// on recovery retransmission rounds (Attempt ≥ 1). It carries the
// interval's inclusive slot range and the sink position at the interval
// start, from which a sensor decides whether it is in range.
type Probe struct {
	Interval int
	Attempt  int
	Start    int
	End      int
	SinkX    float64
	SinkY    float64
}

// Type implements Msg.
func (*Probe) Type() Type { return TypeProbe }

// AckKind distinguishes the sensor's three answers.
type AckKind uint8

// Ack kinds.
const (
	// AckDecline answers a Probe from a sensor that is out of range (or
	// has no visibility window); it carries no registration payload. The
	// sink probes only the sensors its radio reaches, so a client built
	// from the sink's instance never declines; a client built from a
	// different one does, and the explicit negative answer is how it
	// settles an idealized registration window, which has no timer.
	AckDecline AckKind = iota
	// AckRegister answers a Probe from an in-range sensor and carries its
	// online.Registration profile.
	AckRegister
	// AckConfirm acknowledges a Schedule broadcast that assigned the
	// sensor at least one slot; a missing confirmation is how the sink
	// detects a schedule-deaf or crashed sensor over the wire.
	AckConfirm
)

// Ack is a sensor's answer to a Probe (decline or register) or to a
// Schedule (confirm). The registration fields are present on the wire
// only for AckRegister.
type Ack struct {
	Kind     AckKind
	Interval int
	// Attempt echoes the Probe's retransmission attempt (0 on confirms),
	// keeping the chaos proxy's per-attempt loss rolls aligned with the
	// in-process injector's.
	Attempt int
	Sensor  int

	// Registration payload (AckRegister only).
	Budget    float64
	DataLeft  float64 // +Inf on instances without data caps
	ClipStart int
	ClipEnd   int
}

// Type implements Msg.
func (*Ack) Type() Type { return TypeAck }

// RegisterAck builds the AckRegister answer carrying the registration.
func RegisterAck(interval, attempt int, r online.Registration) *Ack {
	return &Ack{
		Kind: AckRegister, Interval: interval, Attempt: attempt, Sensor: r.Sensor,
		Budget: r.Budget, DataLeft: r.DataLeft, ClipStart: r.ClipStart, ClipEnd: r.ClipEnd,
	}
}

// Registration unpacks the carried profile.
func (a *Ack) Registration() online.Registration {
	return online.Registration{
		Sensor: a.Sensor, Budget: a.Budget, DataLeft: a.DataLeft,
		ClipStart: a.ClipStart, ClipEnd: a.ClipEnd,
	}
}

// Assign is one slot → sensor pair of a Schedule: the ledger's
// online.Pair, which is also the journal's (slot, sensor) record.
type Assign = online.Pair

// Schedule carries one interval's slot assignment: the broadcast result
// of the scheduler (Repair false, pairs sorted by slot), or a unicast
// repair reassigning a silent sensor's slot (Repair true, single pair).
type Schedule struct {
	Interval int
	Repair   bool
	Pairs    []Assign
}

// Type implements Msg.
func (*Schedule) Type() Type { return TypeSchedule }

// Finish is the sink's end-of-interval broadcast; on receipt the
// scheduled sensors debit their energy and data budgets.
type Finish struct {
	Interval int
}

// Type implements Msg.
func (*Finish) Type() Type { return TypeFinish }

// Fixed payload sizes per tag (bytes, including the tag byte).
const (
	helloLen     = 1 + 2 + 1 + 4 + 8 + 4
	probeLen     = 1 + 4 + 1 + 4 + 4 + 8 + 8
	ackBaseLen   = 1 + 1 + 4 + 1 + 4
	ackRegLen    = ackBaseLen + 8 + 8 + 4 + 4
	schedHeadLen = 1 + 4 + 1 + 2
	assignLen    = 4 + 4
	finishLen    = 1 + 4
	syncLen      = 1 + 1 + 8 + 4 + 4 + 8 + 8
	heartbeatLen = 1
)

// MaxSchedulePairs is the largest slot→sensor pair count one Schedule
// frame can carry under MaxFrame.
const MaxSchedulePairs = (MaxFrame - schedHeadLen) / assignLen

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendI32(b []byte, v int32) []byte  { return binary.BigEndian.AppendUint32(b, uint32(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func getI32(b []byte) int32   { return int32(binary.BigEndian.Uint32(b)) }
func getF64(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }
func fitsI32(vs ...int) bool {
	for _, v := range vs {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return false
		}
	}
	return true
}

// AppendFrame appends m's length-prefixed frame to dst and returns the
// extended slice. It errors if a field is out of its wire domain (e.g. a
// negative interval or a Schedule with more than MaxSchedulePairs pairs).
func AppendFrame(dst []byte, m Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	var err error
	dst, err = appendPayload(dst, m)
	if err != nil {
		return nil, err
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d byte payload", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendPayload(dst []byte, m Msg) ([]byte, error) {
	switch m := m.(type) {
	case *Hello:
		if m.Sensor < 0 || m.LastInterval < -1 || !fitsI32(m.Sensor, m.LastInterval) {
			return nil, fmt.Errorf("%w: hello sensor %d last %d", ErrBadField, m.Sensor, m.LastInterval)
		}
		dst = append(dst, byte(TypeHello))
		dst = appendU16(dst, magic)
		dst = append(dst, m.Version)
		dst = appendI32(dst, int32(m.Sensor))
		dst = binary.BigEndian.AppendUint64(dst, m.Token)
		return appendI32(dst, int32(m.LastInterval)), nil
	case *Probe:
		if m.Interval < 0 || m.Attempt < 0 || m.Attempt > 255 ||
			m.Start < 0 || m.End < m.Start || !fitsI32(m.Interval, m.Start, m.End) {
			return nil, fmt.Errorf("%w: probe %+v", ErrBadField, *m)
		}
		dst = append(dst, byte(TypeProbe))
		dst = appendI32(dst, int32(m.Interval))
		dst = append(dst, byte(m.Attempt))
		dst = appendI32(dst, int32(m.Start))
		dst = appendI32(dst, int32(m.End))
		dst = appendF64(dst, m.SinkX)
		return appendF64(dst, m.SinkY), nil
	case *Ack:
		if m.Kind > AckConfirm || m.Interval < 0 || m.Attempt < 0 || m.Attempt > 255 ||
			m.Sensor < 0 || !fitsI32(m.Interval, m.Sensor) {
			return nil, fmt.Errorf("%w: ack kind %d interval %d sensor %d", ErrBadField, m.Kind, m.Interval, m.Sensor)
		}
		dst = append(dst, byte(TypeAck), byte(m.Kind))
		dst = appendI32(dst, int32(m.Interval))
		dst = append(dst, byte(m.Attempt))
		dst = appendI32(dst, int32(m.Sensor))
		if m.Kind != AckRegister {
			return dst, nil
		}
		if math.IsNaN(m.Budget) || m.Budget < 0 || math.IsInf(m.Budget, 0) ||
			math.IsNaN(m.DataLeft) || m.DataLeft < 0 || !fitsI32(m.ClipStart, m.ClipEnd) {
			return nil, fmt.Errorf("%w: registration budget %v data %v", ErrBadField, m.Budget, m.DataLeft)
		}
		dst = appendF64(dst, m.Budget)
		dst = appendF64(dst, m.DataLeft)
		dst = appendI32(dst, int32(m.ClipStart))
		return appendI32(dst, int32(m.ClipEnd)), nil
	case *Schedule:
		if m.Interval < 0 || !fitsI32(m.Interval) || len(m.Pairs) > MaxSchedulePairs {
			return nil, fmt.Errorf("%w: schedule interval %d with %d pairs", ErrBadField, m.Interval, len(m.Pairs))
		}
		dst = append(dst, byte(TypeSchedule))
		dst = appendI32(dst, int32(m.Interval))
		if m.Repair {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendU16(dst, uint16(len(m.Pairs)))
		for _, p := range m.Pairs {
			if p.Slot < 0 || p.Sensor < 0 || !fitsI32(p.Slot, p.Sensor) {
				return nil, fmt.Errorf("%w: schedule pair %+v", ErrBadField, p)
			}
			dst = appendI32(dst, int32(p.Slot))
			dst = appendI32(dst, int32(p.Sensor))
		}
		return dst, nil
	case *Finish:
		if m.Interval < 0 || !fitsI32(m.Interval) {
			return nil, fmt.Errorf("%w: finish interval %d", ErrBadField, m.Interval)
		}
		dst = append(dst, byte(TypeFinish))
		return appendI32(dst, int32(m.Interval)), nil
	case *Sync:
		if m.Token == 0 || m.Interval < -1 || m.Missed < 0 ||
			!fitsI32(m.Interval, m.Missed) ||
			math.IsNaN(m.Budget) || m.Budget < 0 || math.IsInf(m.Budget, 0) ||
			math.IsNaN(m.DataLeft) || m.DataLeft < 0 {
			return nil, fmt.Errorf("%w: sync token %d interval %d missed %d budget %v", ErrBadField, m.Token, m.Interval, m.Missed, m.Budget)
		}
		dst = append(dst, byte(TypeSync))
		if m.Resumed {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.BigEndian.AppendUint64(dst, m.Token)
		dst = appendI32(dst, int32(m.Interval))
		dst = appendI32(dst, int32(m.Missed))
		dst = appendF64(dst, m.Budget)
		return appendF64(dst, m.DataLeft), nil
	case *Heartbeat:
		return append(dst, byte(TypeHeartbeat)), nil
	}
	return nil, fmt.Errorf("%w: %T", ErrUnknownType, m)
}

// Decode parses one frame payload. Every error path is reachable without
// panicking on arbitrary input; a nil error means the payload was
// consumed exactly.
func Decode(p []byte) (Msg, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrTruncated)
	}
	switch Type(p[0]) {
	case TypeHello:
		// Magic and version come first: another version's Hello may have
		// another layout, and it is refused as version skew.
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: %d byte hello", ErrTruncated, len(p))
		}
		if binary.BigEndian.Uint16(p[1:]) != magic {
			return nil, fmt.Errorf("%w: 0x%04x", ErrBadMagic, binary.BigEndian.Uint16(p[1:]))
		}
		if p[3] != Version {
			return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, p[3], Version)
		}
		if err := exactLen(p, helloLen); err != nil {
			return nil, err
		}
		h := &Hello{
			Version: p[3], Sensor: int(getI32(p[4:])),
			Token: binary.BigEndian.Uint64(p[8:]), LastInterval: int(getI32(p[16:])),
		}
		if h.Sensor < 0 || h.LastInterval < -1 {
			return nil, fmt.Errorf("%w: hello sensor %d last %d", ErrBadField, h.Sensor, h.LastInterval)
		}
		return h, nil
	case TypeProbe:
		if err := exactLen(p, probeLen); err != nil {
			return nil, err
		}
		m := &Probe{
			Interval: int(getI32(p[1:])), Attempt: int(p[5]),
			Start: int(getI32(p[6:])), End: int(getI32(p[10:])),
			SinkX: getF64(p[14:]), SinkY: getF64(p[22:]),
		}
		if m.Interval < 0 || m.Start < 0 || m.End < m.Start ||
			math.IsNaN(m.SinkX) || math.IsNaN(m.SinkY) {
			return nil, fmt.Errorf("%w: probe %+v", ErrBadField, *m)
		}
		return m, nil
	case TypeAck:
		if len(p) < ackBaseLen {
			return nil, fmt.Errorf("%w: %d byte ack", ErrTruncated, len(p))
		}
		m := &Ack{
			Kind: AckKind(p[1]), Interval: int(getI32(p[2:])),
			Attempt: int(p[6]), Sensor: int(getI32(p[7:])),
		}
		if m.Kind > AckConfirm || m.Interval < 0 || m.Sensor < 0 {
			return nil, fmt.Errorf("%w: ack kind %d interval %d sensor %d", ErrBadField, m.Kind, m.Interval, m.Sensor)
		}
		if m.Kind != AckRegister {
			if err := exactLen(p, ackBaseLen); err != nil {
				return nil, err
			}
			return m, nil
		}
		if err := exactLen(p, ackRegLen); err != nil {
			return nil, err
		}
		m.Budget = getF64(p[11:])
		m.DataLeft = getF64(p[19:])
		m.ClipStart = int(getI32(p[27:]))
		m.ClipEnd = int(getI32(p[31:]))
		if math.IsNaN(m.Budget) || m.Budget < 0 || math.IsInf(m.Budget, 0) ||
			math.IsNaN(m.DataLeft) || m.DataLeft < 0 {
			return nil, fmt.Errorf("%w: registration budget %v data %v", ErrBadField, m.Budget, m.DataLeft)
		}
		return m, nil
	case TypeSchedule:
		if len(p) < schedHeadLen {
			return nil, fmt.Errorf("%w: %d byte schedule", ErrTruncated, len(p))
		}
		m := &Schedule{Interval: int(getI32(p[1:]))}
		switch p[5] {
		case 0:
		case 1:
			m.Repair = true
		default:
			return nil, fmt.Errorf("%w: schedule repair byte %d", ErrBadField, p[5])
		}
		n := int(binary.BigEndian.Uint16(p[6:]))
		if err := exactLen(p, schedHeadLen+n*assignLen); err != nil {
			return nil, err
		}
		if m.Interval < 0 {
			return nil, fmt.Errorf("%w: schedule interval %d", ErrBadField, m.Interval)
		}
		if n > 0 {
			m.Pairs = make([]Assign, n)
			for i := range m.Pairs {
				off := schedHeadLen + i*assignLen
				m.Pairs[i] = Assign{Slot: int(getI32(p[off:])), Sensor: int(getI32(p[off+4:]))}
				if m.Pairs[i].Slot < 0 || m.Pairs[i].Sensor < 0 {
					return nil, fmt.Errorf("%w: schedule pair %+v", ErrBadField, m.Pairs[i])
				}
			}
		}
		return m, nil
	case TypeFinish:
		if err := exactLen(p, finishLen); err != nil {
			return nil, err
		}
		m := &Finish{Interval: int(getI32(p[1:]))}
		if m.Interval < 0 {
			return nil, fmt.Errorf("%w: finish interval %d", ErrBadField, m.Interval)
		}
		return m, nil
	case TypeSync:
		if err := exactLen(p, syncLen); err != nil {
			return nil, err
		}
		m := &Sync{
			Token: binary.BigEndian.Uint64(p[2:]), Interval: int(getI32(p[10:])),
			Missed: int(getI32(p[14:])), Budget: getF64(p[18:]), DataLeft: getF64(p[26:]),
		}
		switch p[1] {
		case 0:
		case 1:
			m.Resumed = true
		default:
			return nil, fmt.Errorf("%w: sync resumed byte %d", ErrBadField, p[1])
		}
		if m.Token == 0 || m.Interval < -1 || m.Missed < 0 ||
			math.IsNaN(m.Budget) || m.Budget < 0 || math.IsInf(m.Budget, 0) ||
			math.IsNaN(m.DataLeft) || m.DataLeft < 0 {
			return nil, fmt.Errorf("%w: sync token %d interval %d missed %d budget %v", ErrBadField, m.Token, m.Interval, m.Missed, m.Budget)
		}
		return m, nil
	case TypeHeartbeat:
		if err := exactLen(p, heartbeatLen); err != nil {
			return nil, err
		}
		return &Heartbeat{}, nil
	}
	return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, p[0])
}

// exactLen enforces the strict-decode rule: payloads consume exactly
// their declared length.
func exactLen(p []byte, want int) error {
	switch {
	case len(p) < want:
		return fmt.Errorf("%w: %d bytes, want %d", ErrTruncated, len(p), want)
	case len(p) > want:
		return fmt.Errorf("%w: %d bytes, want %d", ErrTrailing, len(p), want)
	}
	return nil
}

// ReadFrame reads one length-prefixed payload from r, reusing buf's
// capacity when it suffices. The returned slice aliases buf (or its
// replacement); callers that retain decoded messages are safe because
// Decode copies everything it keeps.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrTruncated)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d byte payload", ErrFrameTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
