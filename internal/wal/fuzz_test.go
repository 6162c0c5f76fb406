package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"
)

// allocatedBytes reports the fewest bytes fn allocated over three runs,
// so a concurrent GC or a background goroutine cannot inflate it.
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

// writeSegment makes data the log's only segment.
func writeSegment(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path+".1", data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tailPath reads every record a fresh tail from LSN 0 serves. A chain
// that starts past LSN 1 answers that tail with a *GapError naming its
// first LSN; the records are then read from there.
func tailPath(t *testing.T, path string) []Record {
	t.Helper()
	tl, err := OpenTail(path, 0)
	var gap *GapError
	if errors.As(err, &gap) && gap.Oldest > 1 {
		tl, err = OpenTail(path, gap.Oldest-1)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	return tailAll(t, tl, math.MaxUint64)
}

// TestTornHeaderAllocatesLittle: a segment ending in a valid record and
// a torn 13-byte header that claims a MaxPayload body must recover
// without allocating that body — the file cannot hold it.
func TestTornHeaderAllocatesLittle(t *testing.T) {
	path := tempLog(t)
	valid := frame(nil, 1, 1, []byte("ok"))
	var torn [headerLen]byte
	binary.BigEndian.PutUint64(torn[0:8], 2)
	torn[8] = 1
	binary.BigEndian.PutUint32(torn[9:13], MaxPayload)
	seg := append(append([]byte(nil), valid...), torn[:]...)
	const limit = 1 << 20

	writeSegment(t, path, seg)
	var n int
	if got := allocatedBytes(func() {
		n = 0
		if err := Replay(path, 0, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("Replay allocated %d KiB, want under %d KiB", got>>10, limit>>10)
	}
	if n != 1 {
		t.Errorf("Replay returned %d records, want 1", n)
	}
	if got := allocatedBytes(func() {
		if recs := tailPath(t, path); len(recs) != 1 {
			t.Errorf("tail returned %d records, want 1", len(recs))
		}
	}); got > limit {
		t.Errorf("OpenTail+Next allocated %d KiB, want under %d KiB", got>>10, limit>>10)
	}
	if got := allocatedBytes(func() {
		writeSegment(t, path, seg)
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if l.LastLSN() != 1 {
			t.Errorf("Open: LastLSN = %d, want 1", l.LastLSN())
		}
		l.Close()
	}); got > limit {
		t.Errorf("Open allocated %d KiB, want under %d KiB", got>>10, limit>>10)
	}
}

// FuzzWALSegment feeds arbitrary bytes to recovery as the log's only
// segment. Replay must return a valid prefix without panicking: the
// records it and a tail from LSN 0 return (no-op markers aside) are the
// same, and re-framed they reproduce the segment's leading bytes. Open
// must truncate the segment to exactly that prefix. The input also
// seeds records that must round-trip through Append, Replay and a tail.
func FuzzWALSegment(f *testing.F) {
	var chain []byte
	for i, p := range []string{"a", "", "payload"} {
		chain = frame(chain, uint64(i+1), uint8(i+1), []byte(p))
	}
	f.Add(chain)
	f.Add(append(frame(nil, 7, 1, []byte("x")), 0, 0, 0, 0, 0, 0, 0, 8, 1, 1, 0, 0, 0))
	f.Add(frame(frame(nil, 1, KindNoop, nil), 2, 3, []byte("after noop")))
	f.Add(frame(nil, 1, 1, make([]byte, 300))[:200])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := tempLog(t)
		writeSegment(t, path, data)
		var replayed []Record
		if err := Replay(path, 0, func(r Record) error {
			replayed = append(replayed, Record{LSN: r.LSN, Kind: r.Kind, Payload: bytes.Clone(r.Payload)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tailed := tailPath(t, path)
		var prefix []byte
		var tailedData []Record
		for _, r := range tailed {
			prefix = frame(prefix, r.LSN, r.Kind, r.Payload)
			if r.Kind != KindNoop {
				tailedData = append(tailedData, r)
			}
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("the tail's records re-framed are not a prefix of the segment")
		}
		if !sameRecords(replayed, tailedData) {
			t.Fatalf("Replay returned %d records, the tail %d data records: %+v vs %+v",
				len(replayed), len(tailedData), replayed, tailedData)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		got, err := os.ReadFile(path + ".1")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("Open left %d bytes, want the %d-byte valid prefix", len(got), len(prefix))
		}

		// Round trip: the input cut into records, kinds 1..255.
		path = tempLog(t)
		l, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
		l.Sync = false
		var want []Record
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0])%17, len(rest)-1)
			kind := rest[0]%255 + 1
			payload := rest[1 : 1+n]
			lsn, err := l.Append(kind, payload)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{LSN: lsn, Kind: kind, Payload: payload})
			rest = rest[1+n:]
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, path, 0); !sameRecords(got, want) {
			t.Fatalf("Replay after appends = %+v, want %+v", got, want)
		}
		if got := tailPath(t, path); !sameRecords(got, want) {
			t.Fatalf("tail after appends = %+v, want %+v", got, want)
		}
	})
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}
