package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// FuzzFrameDecode drives arbitrary payloads through the strict decoder:
// no input may panic or over-read, and anything that decodes must
// re-encode and decode back to the same message (round-trip symmetry).
func FuzzFrameDecode(f *testing.F) {
	seed := func(m Msg) {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(&Hello{Version: Version, Sensor: 17, LastInterval: -1})
	seed(&Probe{Interval: 2, Attempt: 1, Start: 32, End: 47, SinkX: 120, SinkY: -3})
	seed(&Ack{Kind: AckDecline, Interval: 2, Sensor: 5})
	seed(&Ack{Kind: AckConfirm, Interval: 2, Sensor: 5})
	seed(&Ack{Kind: AckRegister, Interval: 2, Attempt: 1, Sensor: 5,
		Budget: 0.125, DataLeft: math.Inf(1), ClipStart: 32, ClipEnd: 40})
	seed(&Schedule{Interval: 2, Pairs: []Assign{{Slot: 32, Sensor: 5}, {Slot: 33, Sensor: 6}}})
	seed(&Schedule{Interval: 2, Repair: true, Pairs: []Assign{{Slot: 40, Sensor: 1}}})
	seed(&Finish{Interval: 2})
	seed(&Hello{Version: Version, Sensor: 17,
		Token: 0xABCDEF0123456789, LastInterval: 3})
	seed(&Sync{Resumed: true, Token: 42, Interval: 4, Missed: 1,
		Budget: 0.25, DataLeft: 1024})
	seed(&Sync{Token: 1, Interval: -1, Budget: 1, DataLeft: math.Inf(1)})
	seed(&Heartbeat{})
	// Hostile shapes: truncations, unknown tags, version skew, junk.
	f.Add([]byte{})
	f.Add([]byte{byte(TypeProbe)})
	f.Add([]byte{byte(TypeSchedule), 0, 0, 0, 1, 0, 0xFF, 0xFF})
	f.Add([]byte{99, 1, 2, 3})
	f.Add([]byte{byte(TypeHello), 0x4D, 0x53, Version + 1, 0, 0, 0, 0, 7})
	// Version 2's 21-byte Hello (a role byte after the version), and a
	// version-3 Hello naming sensor -1.
	f.Add(append([]byte{byte(TypeHello), 0x4D, 0x53, 2, 1}, make([]byte, 16)...))
	f.Add(append([]byte{byte(TypeHello), 0x4D, 0x53, Version, 0xFF, 0xFF, 0xFF, 0xFF}, make([]byte, 12)...))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Decode(payload)
		if err != nil {
			return // rejected input is the expected outcome
		}
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %+v: %v", m, err)
		}
		if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("length prefix %d for %d-byte payload", n, len(frame)-4)
		}
		back, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip diverged:\nfirst  %+v\nsecond %+v", m, back)
		}
	})
}
