package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"mobisink/internal/online"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatalf("encode %+v: %v", m, err)
	}
	payload, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	msgs := []Msg{
		&Hello{Version: Version, Sensor: 42, LastInterval: -1},
		&Probe{Interval: 3, Attempt: 2, Start: 48, End: 63, SinkX: 240.5, SinkY: -17.25},
		&Ack{Kind: AckDecline, Interval: 3, Attempt: 1, Sensor: 9},
		&Ack{Kind: AckConfirm, Interval: 7, Sensor: 120},
		&Ack{Kind: AckRegister, Interval: 3, Attempt: 2, Sensor: 9,
			Budget: 0.03125, DataLeft: math.Inf(1), ClipStart: 50, ClipEnd: 60},
		&Ack{Kind: AckRegister, Interval: 0, Sensor: 0,
			Budget: 1e-9, DataLeft: 65536.5, ClipStart: 0, ClipEnd: 0},
		&Schedule{Interval: 3, Pairs: []Assign{{Slot: 48, Sensor: 9}, {Slot: 49, Sensor: 11}, {Slot: 55, Sensor: 9}}},
		&Schedule{Interval: 4, Repair: true, Pairs: []Assign{{Slot: 61, Sensor: 2}}},
		&Schedule{Interval: 5},
		&Finish{Interval: 3},
		&Hello{Version: Version, Sensor: 7,
			Token: 0xDEADBEEF12345678, LastInterval: 5},
		&Hello{Version: Version, Sensor: 0},
		&Sync{Resumed: true, Token: 3, Interval: 6, Missed: 2,
			Budget: 0.25, DataLeft: math.Inf(1)},
		&Sync{Token: 1, Interval: -1},
		&Heartbeat{},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestRegistrationCarriedExactly(t *testing.T) {
	reg := online.Registration{
		Sensor: 17, Budget: 0.1 + 0.2, DataLeft: math.Inf(1), ClipStart: 100, ClipEnd: 115,
	}
	got := roundTrip(t, RegisterAck(6, 1, reg)).(*Ack)
	if got.Registration() != reg {
		t.Fatalf("registration mangled: got %+v want %+v", got.Registration(), reg)
	}
	if got.Interval != 6 || got.Attempt != 1 {
		t.Fatalf("ack header mangled: %+v", got)
	}
}

func TestDecodeStrict(t *testing.T) {
	valid := func(m Msg) []byte {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:] // payload without length prefix
	}
	probe := valid(&Probe{Interval: 1, Start: 16, End: 31})
	hello := valid(&Hello{Version: Version, Sensor: 3, LastInterval: -1})
	if len(hello) != 20 {
		t.Fatalf("hello payload is %d bytes, want 20", len(hello))
	}
	sched := valid(&Schedule{Interval: 1, Pairs: []Assign{{Slot: 16, Sensor: 2}}})

	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown tag", []byte{99, 0, 0, 0, 0}, ErrUnknownType},
		{"truncated probe", probe[:len(probe)-3], ErrTruncated},
		{"trailing probe", append(append([]byte{}, probe...), 0), ErrTrailing},
		{"bad magic", func() []byte {
			p := append([]byte{}, hello...)
			p[1], p[2] = 0xDE, 0xAD
			return p
		}(), ErrBadMagic},
		{"version mismatch", func() []byte {
			p := append([]byte{}, hello...)
			p[3] = Version + 1
			return p
		}(), ErrVersion},
		// Version 2's 21-byte layout: a role byte after the version.
		{"version 2 hello", append([]byte{byte(TypeHello), 0x4D, 0x53, 2, 1}, hello[4:]...), ErrVersion},
		{"truncated hello", hello[:3], ErrTruncated},
		{"negative hello sensor", func() []byte {
			p := append([]byte{}, hello...)
			binary.BigEndian.PutUint32(p[4:], 0xFFFFFFFF) // -1
			return p
		}(), ErrBadField},
		{"bad ack kind", func() []byte {
			p := valid(&Ack{Kind: AckDecline, Interval: 1, Sensor: 2})
			p[1] = 9
			return p
		}(), ErrBadField},
		{"negative finish interval", func() []byte {
			p := valid(&Finish{Interval: 1})
			binary.BigEndian.PutUint32(p[1:], 1<<31)
			return p
		}(), ErrBadField},
		{"schedule count overruns payload", func() []byte {
			p := append([]byte{}, sched...)
			binary.BigEndian.PutUint16(p[6:], 500)
			return p
		}(), ErrTruncated},
		{"bad schedule repair byte", func() []byte {
			p := append([]byte{}, sched...)
			p[5] = 2
			return p
		}(), ErrBadField},
		{"hello last interval below -1", func() []byte {
			p := append([]byte{}, hello...)
			binary.BigEndian.PutUint32(p[16:], 0xFFFFFFFE) // -2
			return p
		}(), ErrBadField},
		{"truncated sync", func() []byte {
			p := valid(&Sync{Token: 1, Interval: 0, Budget: 1, DataLeft: 1})
			return p[:len(p)-4]
		}(), ErrTruncated},
		{"bad sync resumed byte", func() []byte {
			p := valid(&Sync{Resumed: true, Token: 1, Interval: 0, Budget: 1, DataLeft: 1})
			p[1] = 2
			return p
		}(), ErrBadField},
		{"sync token zero", func() []byte {
			p := valid(&Sync{Token: 1, Interval: 0})
			for i := 2; i < 10; i++ {
				p[i] = 0
			}
			return p
		}(), ErrBadField},
		{"trailing heartbeat", append(valid(&Heartbeat{}), 0), ErrTrailing},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeRejectsBadFields(t *testing.T) {
	bad := []Msg{
		&Probe{Interval: -1, Start: 0, End: 1},
		&Probe{Interval: 0, Start: 5, End: 4},
		&Probe{Interval: 0, Attempt: 300, Start: 0, End: 1},
		&Ack{Kind: AckRegister, Interval: 0, Sensor: 1, Budget: math.NaN()},
		&Ack{Kind: AckRegister, Interval: 0, Sensor: 1, Budget: math.Inf(1)},
		&Ack{Kind: AckRegister, Interval: 0, Sensor: 1, DataLeft: math.NaN()},
		&Ack{Kind: AckDecline, Interval: 0, Sensor: -1},
		&Schedule{Interval: 0, Pairs: []Assign{{Slot: -1, Sensor: 0}}},
		&Schedule{Interval: 0, Pairs: make([]Assign, MaxSchedulePairs+1)},
		&Finish{Interval: -2},
		&Hello{Version: Version, Sensor: -1},
		&Hello{Version: Version, Sensor: 1, LastInterval: -2},
		&Sync{Token: 0, Interval: 0},
		&Sync{Token: 1, Interval: -2},
		&Sync{Token: 1, Missed: -1},
		&Sync{Token: 1, Budget: math.NaN()},
	}
	for _, m := range bad {
		if _, err := AppendFrame(nil, m); !errors.Is(err, ErrBadField) {
			t.Errorf("%+v: got %v, want ErrBadField", m, err)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized prefix: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("zero-length frame: got %v, want ErrTruncated", err)
	}
	// Declared length longer than the stream: unexpected EOF, not a hang.
	frame, err := AppendFrame(nil, &Finish{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short stream: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var stream []byte
	var err error
	for i := 0; i < 3; i++ {
		stream, err = AppendFrame(stream, &Finish{Interval: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, 64)
	for i := 0; i < 3; i++ {
		payload, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		if &payload[0] != &buf[:1][0] {
			t.Fatal("ReadFrame did not reuse the caller's buffer")
		}
		m, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*Finish).Interval; got != i {
			t.Fatalf("frame %d decoded as interval %d", i, got)
		}
	}
}
