package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		Begin{Sensors: 3, T: 12, Gamma: 4, Fingerprint: 0xdeadbeefcafef00d},
		Commit{
			Interval:   0,
			Registered: []int{0, 2},
			Pairs:      []Assign{{Slot: 0, Sensor: 2}, {Slot: 1, Sensor: 0}, {Slot: 3, Sensor: 2}},
			Debits: []Debit{
				{Sensor: 0, Energy: 0.125, Data: 1.5},
				{Sensor: 2, Energy: 0.7, Data: math.Inf(1)},
			},
		},
		Commit{Interval: 1}, // empty interval: no registrations
		End{},
	}
}

func encodeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		var err error
		buf, err = AppendRecord(buf, r)
		if err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	recs := sampleRecords()
	buf := encodeAll(t, recs)
	off := 0
	for i, want := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: got %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
	// Debit bit patterns survive exactly (the replay parity keystone).
	c := recs[1].(Commit)
	got, _, _ := DecodeRecord(buf[lenOf(t, recs[0]):])
	for i, d := range got.(Commit).Debits {
		if math.Float64bits(d.Energy) != math.Float64bits(c.Debits[i].Energy) ||
			math.Float64bits(d.Data) != math.Float64bits(c.Debits[i].Data) {
			t.Errorf("debit %d bits changed", i)
		}
	}
}

func lenOf(t *testing.T, r Record) int {
	t.Helper()
	b, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

func TestAppendRejectsBadFields(t *testing.T) {
	for i, r := range []Record{
		Begin{Sensors: -1},
		Begin{T: -5},
		Commit{Interval: -1},
		Commit{Interval: 0, Registered: []int{-2}},
		Commit{Interval: 0, Pairs: []Assign{{Slot: -1, Sensor: 0}}},
		Commit{Interval: 0, Pairs: []Assign{{Slot: 0, Sensor: -1}}},
		Commit{Interval: 0, Debits: []Debit{{Sensor: 0, Energy: -1}}},
		Commit{Interval: 0, Debits: []Debit{{Sensor: 0, Energy: math.NaN()}}},
		Commit{Interval: 0, Debits: []Debit{{Sensor: 0, Data: -0.5}}},
	} {
		if _, err := AppendRecord(nil, r); !errors.Is(err, ErrBadField) {
			t.Errorf("case %d: err = %v, want ErrBadField", i, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := AppendRecord(nil, Begin{Sensors: 1, T: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every prefix length.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeRecord(good[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("prefix %d: err = %v, want ErrTruncated", n, err)
		}
	}
	// Corrupt checksum.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum: err = %v", err)
	}
	// Oversized length prefix.
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, MaxRecord+1)
	if _, _, err := DecodeRecord(huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversize: err = %v", err)
	}
	// Unknown kind (checksum valid).
	payload := []byte{99}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: err = %v", err)
	}
	// Commit whose counts promise more bytes than the payload holds.
	payload = []byte{byte(KindCommit)}
	payload = appendI32(payload, 0)
	payload = appendI32(payload, 1000) // 1000 registrations, no bodies
	payload = appendI32(payload, 0)
	payload = appendI32(payload, 0)
	frame = binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrTruncated) {
		t.Errorf("bad counts: err = %v", err)
	}
	// Trailing garbage inside a checksummed payload.
	payload = append([]byte{byte(KindEnd)}, 0)
	frame = binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing: err = %v", err)
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	recs := sampleRecords()
	buf := encodeAll(t, recs)

	// Clean log: everything replays.
	got, valid, err := Scan(bytes.NewReader(buf))
	if err != nil || int(valid) != len(buf) || !reflect.DeepEqual(got, recs) {
		t.Fatalf("clean scan: %d recs, valid=%d, err=%v", len(got), valid, err)
	}

	// Torn tail: every truncation point replays the longest whole prefix.
	bounds := []int{}
	off := 0
	for _, r := range recs {
		off += lenOf(t, r)
		bounds = append(bounds, off)
	}
	for cut := 0; cut < len(buf); cut++ {
		wantRecs := 0
		wantValid := 0
		for i, b := range bounds {
			if cut >= b {
				wantRecs = i + 1
				wantValid = b
			}
		}
		got, valid, err := Scan(bytes.NewReader(buf[:cut]))
		if err != nil {
			t.Fatalf("cut %d: err %v", cut, err)
		}
		if len(got) != wantRecs || int(valid) != wantValid {
			t.Fatalf("cut %d: %d recs valid=%d, want %d recs valid=%d",
				cut, len(got), valid, wantRecs, wantValid)
		}
	}

	// A corrupt last record is a torn tail: replay stops before it.
	bad := append([]byte(nil), buf...)
	bad[bounds[2]+4] ^= 0x01 // flip a checksum bit of the End
	got, valid, err = Scan(bytes.NewReader(bad))
	if err != nil || len(got) != 3 || int(valid) != bounds[2] {
		t.Fatalf("corrupt tail scan: %d recs, valid=%d, err=%v", len(got), valid, err)
	}

	// A corrupt byte mid-file, with a sealed record after it, is damage:
	// Scan reports it with the records before it.
	bad = append([]byte(nil), buf...)
	bad[bounds[1]+4] ^= 0x01 // flip a checksum bit of the third record
	got, valid, err = Scan(bytes.NewReader(bad))
	if !errors.Is(err, ErrDamaged) || len(got) != 2 || int(valid) != bounds[1] {
		t.Fatalf("corrupt mid-file scan: %d recs, valid=%d, err=%v", len(got), valid, err)
	}
}

// TestOpenRefusesDamageBeforeTail flips one byte inside record 3 of a
// 50-record journal. Open must refuse the journal, name the damaged
// record's offset, and leave every byte of the file as it was.
func TestOpenRefusesDamageBeforeTail(t *testing.T) {
	recs := []Record{Begin{Sensors: 3, T: 96, Gamma: 2, Fingerprint: 7}}
	for j := 0; len(recs) < 49; j++ {
		recs = append(recs, Commit{Interval: j, Registered: []int{j % 3},
			Pairs:  []Assign{{Slot: 2 * j, Sensor: j % 3}},
			Debits: []Debit{{Sensor: j % 3, Energy: 0.25, Data: 8}}})
	}
	recs = append(recs, End{})
	buf := encodeAll(t, recs)
	third := lenOf(t, recs[0]) + lenOf(t, recs[1])
	buf[third+8+3] ^= 0x40 // a payload byte of record 3
	path := filepath.Join(t.TempDir(), "tour.wal")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path)
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("Open of a journal damaged in record 3 of 50: %v, want ErrDamaged", err)
	}
	if want := fmt.Sprintf("offset %d", third); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, buf) {
		t.Fatalf("refused journal changed: %d bytes, was %d", len(after), len(buf))
	}
}

func TestOpenAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tour.wal")
	recs := sampleRecords()

	l, replayed, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	for _, r := range recs[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: first two records replay; append the rest.
	l, replayed, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, recs[:2]) {
		t.Fatalf("replayed %+v", replayed)
	}
	for _, r := range recs[2:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-append: a torn half-record on the tail.
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0); err == nil {
		f.Write([]byte{0, 0, 0, 40, 1, 2, 3})
		f.Close()
	}
	l, replayed, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, recs) {
		t.Fatalf("post-tear replay %+v", replayed)
	}
	// The tear was truncated: the file ends exactly at the valid prefix,
	// so an append then a reopen replays cleanly.
	if err := l.Append(Commit{Interval: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, replayed, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(replayed) != len(recs)+1 || !reflect.DeepEqual(replayed[len(recs)], Commit{Interval: 2}) {
		t.Fatalf("final replay %d records", len(replayed))
	}
}

func TestOpenBadPath(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "x.wal")); err == nil {
		t.Error("open into missing directory succeeded")
	}
}
