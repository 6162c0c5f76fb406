package repl

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"mview/internal/wal"
)

// TestDecodeRecordsRejectsOversizedCount: a CRC-valid records frame
// whose payload is nothing but a huge record count must be refused
// before the record slice is allocated — the count alone would size it
// at tens of gigabytes and crash the follower.
func TestDecodeRecordsRejectsOversizedCount(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRecords, binary.BigEndian.AppendUint32(nil, math.MaxUint32)); err != nil {
		t.Fatal(err)
	}
	typ, p, err := readFrame(&buf)
	if err != nil || typ != frameRecords {
		t.Fatalf("readFrame = (%d, %v)", typ, err)
	}
	var recs []wal.Record
	if n := allocatedBytes(func() { recs, err = decodeRecords(p) }); n > 1024 {
		t.Errorf("decoding a 4-byte payload allocated %d bytes", n)
	}
	if err == nil {
		t.Fatalf("count %d over an empty body decoded to %d records", uint32(math.MaxUint32), len(recs))
	}
}

// allocatedBytes reports the bytes fn allocates, the least over a few
// runs so background allocation does not count.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// randRecords returns up to 8 records with random kinds and payloads.
func randRecords(rng *rand.Rand) []wal.Record {
	recs := make([]wal.Record, rng.IntN(9))
	lsn := rng.Uint64N(1 << 40)
	for i := range recs {
		p := make([]byte, rng.IntN(40))
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		recs[i] = wal.Record{LSN: lsn + uint64(i), Kind: uint8(rng.Uint32()), Payload: p}
	}
	return recs
}

// FuzzDecodeRecords: arbitrary bytes decode to records or an error —
// never a panic, never an allocation out of proportion to the input —
// and the input also seeds a random batch, which must round-trip
// through encodeRecords while every strict prefix of its encoding
// fails.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(encodeRecords([]wal.Record{{LSN: 1, Kind: 2, Payload: []byte("alpha")}, {LSN: 2}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocatedBytes(func() { _, _ = decodeRecords(data) }); n > 64*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		var seed [16]byte
		copy(seed[:], data)
		rng := rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:])))
		want := randRecords(rng)
		p := encodeRecords(want)
		got, err := decodeRecords(p)
		if err != nil {
			t.Fatalf("decoding %x: %v", p, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%x decoded to %d records, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d decoded to %+v, want %+v", i, got[i], want[i])
			}
		}
		for cut := range len(p) {
			if _, err := decodeRecords(p[:cut]); err == nil {
				t.Fatalf("the %d-byte prefix of %x decoded", cut, p)
			}
		}
	})
}
