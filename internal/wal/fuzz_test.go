package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzJournalReplay drives arbitrary bytes through the tolerant replay
// path and asserts the decoder's safety contract: no panic, no
// over-read, and an error only for damage before the tail
// (ErrDamaged). On every input Scan accepts, the valid prefix re-scans
// to the same records, and every replayed record re-encodes and
// re-decodes to itself. A damaged input's valid prefix scans clean.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	for _, r := range []Record{
		Begin{Sensors: 2, T: 8, Gamma: 2, Fingerprint: 42},
		Commit{Interval: 0, Registered: []int{0, 1},
			Pairs:  []Assign{{Slot: 0, Sensor: 1}},
			Debits: []Debit{{Sensor: 1, Energy: 0.5, Data: 2}}},
		Commit{Interval: 3},
		End{},
	} {
		buf, err := AppendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-2])              // torn tail
		f.Add(append(buf, buf...))           // two records
		f.Add(append(buf, 0x7f, 0x00, 0xff)) // trailing garbage
		damaged := append(append([]byte{}, buf...), buf...)
		damaged[5] ^= 0x01 // a checksum bit of the first of two records
		f.Add(damaged)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := Scan(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrDamaged) {
				t.Fatalf("Scan on in-memory reader returned error: %v", err)
			}
			again, _, err := Scan(bytes.NewReader(data[:valid]))
			if err != nil || !reflect.DeepEqual(again, recs) {
				t.Fatalf("damaged input's prefix re-scans to %d records, err=%v; want %d", len(again), err, len(recs))
			}
			return
		}
		// The valid prefix is stable: re-scanning exactly it yields the
		// same records and consumes all of it.
		again, validAgain, err := Scan(bytes.NewReader(data[:valid]))
		if err != nil || validAgain != valid || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-scan diverged: %d vs %d records, valid %d vs %d, err=%v",
				len(again), len(recs), validAgain, valid, err)
		}
		// Round-trip: every replayed record survives encode→decode.
		for i, r := range recs {
			buf, err := AppendRecord(nil, r)
			if err != nil {
				t.Fatalf("record %d (%+v) failed re-encode: %v", i, r, err)
			}
			back, n, err := DecodeRecord(buf)
			if err != nil || n != len(buf) || !reflect.DeepEqual(back, r) {
				t.Fatalf("record %d round-trip: %+v vs %+v (n=%d err=%v)", i, back, r, n, err)
			}
		}
	})
}
