package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
)

// tailAll drains a tail completely and returns everything it yielded.
func tailAll(t *testing.T, tl *Tail, limit uint64) []Record {
	t.Helper()
	var out []Record
	for {
		recs, err := tl.Next(16, limit)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(recs) == 0 {
			return out
		}
		for _, r := range recs {
			p := append([]byte(nil), r.Payload...)
			out = append(out, Record{LSN: r.LSN, Kind: r.Kind, Payload: p})
		}
	}
}

// buildChain writes n records across segments sealed every sealEvery
// appends, returning the open log. Payload i is []byte{i}.
func buildChain(t *testing.T, path string, n, sealEvery int) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	for i := 1; i <= n; i++ {
		if _, err := l.Append(uint8(i%200+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if sealEvery > 0 && i%sealEvery == 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

// TestTailFromEverySegmentBoundary tails from every LSN in a
// multi-segment chain — in particular the first LSN of each segment and
// the last LSN of the previous one — and checks the stream is exactly
// the suffix after that LSN, with no record skipped or duplicated.
func TestTailFromEverySegmentBoundary(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 9, 3) // segments: [1-3] [4-6] [7-9], empty active
	defer l.Close()
	limit := l.LastLSN()
	for from := uint64(0); from <= 9; from++ {
		tl, err := OpenTail(path, from)
		if err != nil {
			t.Fatalf("OpenTail(from=%d): %v", from, err)
		}
		recs := tailAll(t, tl, limit)
		tl.Close()
		want := int(9 - from)
		if len(recs) != want {
			t.Fatalf("from=%d: got %d records, want %d", from, len(recs), want)
		}
		for i, r := range recs {
			if r.LSN != from+uint64(i)+1 {
				t.Fatalf("from=%d: record %d has LSN %d, want %d", from, i, r.LSN, from+uint64(i)+1)
			}
			if !bytes.Equal(r.Payload, []byte{byte(r.LSN)}) {
				t.Fatalf("from=%d: LSN %d payload = %v", from, r.LSN, r.Payload)
			}
		}
	}
}

// TestReplayFromEverySegmentBoundary is the Replay-side twin: replay
// from each boundary LSN yields exactly the suffix.
func TestReplayFromEverySegmentBoundary(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 9, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for from := uint64(0); from <= 9; from++ {
		recs := collect(t, path, from)
		if len(recs) != int(9-from) {
			t.Fatalf("from=%d: got %d records, want %d", from, len(recs), 9-from)
		}
		for i, r := range recs {
			if r.LSN != from+uint64(i)+1 {
				t.Fatalf("from=%d: record %d LSN = %d", from, i, r.LSN)
			}
		}
	}
}

// TestTailReclaimedLSNIsExplicitGap is the satellite regression: a tail
// from an LSN inside (or before) a dropped segment must fail with
// *GapError, never succeed as a silent empty replay. Before Bounds/Tail
// existed, scan() accepted any first LSN (checkpoints legitimately drop
// prefixes), so a reclaimed resume point replayed the surviving suffix
// as if nothing were missing.
func TestTailReclaimedLSNIsExplicitGap(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 9, 3)
	defer l.Close()
	if _, err := l.DropThrough(6); err != nil { // segments [1-3] and [4-6] gone
		t.Fatal(err)
	}
	for from := uint64(0); from <= 5; from++ {
		_, err := OpenTail(path, from)
		var gap *GapError
		if !errors.As(err, &gap) {
			t.Fatalf("OpenTail(from=%d) after drop = %v, want *GapError", from, err)
		}
		if gap.From != from || gap.Oldest != 7 {
			t.Fatalf("from=%d: gap = %+v, want {From:%d Oldest:7}", from, gap, from)
		}
	}
	// from=6 is the last dropped LSN: record 7 survives, so resuming
	// after 6 is exactly servable.
	for from := uint64(6); from <= 9; from++ {
		tl, err := OpenTail(path, from)
		if err != nil {
			t.Fatalf("OpenTail(from=%d): %v", from, err)
		}
		recs := tailAll(t, tl, l.LastLSN())
		tl.Close()
		if len(recs) != int(9-from) {
			t.Fatalf("from=%d: got %d records, want %d", from, len(recs), 9-from)
		}
	}
}

// TestBoundsTracksRetention: Bounds reports the live servable window
// across appends, drops, truncation, and reopen.
func TestBoundsTracksRetention(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	if o, n := l.Bounds(); o != 1 || n != 1 {
		t.Fatalf("empty Bounds = (%d, %d), want (1, 1)", o, n)
	}
	for i := 1; i <= 6; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if o, n := l.Bounds(); o != 1 || n != 7 {
		t.Fatalf("Bounds = (%d, %d), want (1, 7)", o, n)
	}
	if _, err := l.DropThrough(4); err != nil {
		t.Fatal(err)
	}
	if o, n := l.Bounds(); o != 5 || n != 7 {
		t.Fatalf("Bounds after DropThrough(4) = (%d, %d), want (5, 7)", o, n)
	}
	// Truncate empties the chain but appends a continuity noop, which
	// becomes the oldest retained record.
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if o, n := l.Bounds(); o != 7 || n != 8 {
		t.Fatalf("Bounds after Truncate = (%d, %d), want (7, 8)", o, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen rediscovers the window from the chain scan.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if o, n := l2.Bounds(); o != 7 || n != 8 {
		t.Fatalf("reopened Bounds = (%d, %d), want (7, 8)", o, n)
	}
}

// TestTailFollowsLiveAppendsAndRotation: a tail that caught up resumes
// when more records land, across a rotation, and a tail mid-segment
// survives that segment being dropped (it holds the fd).
func TestTailFollowsLiveAppendsAndRotation(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 3, 0)
	defer l.Close()
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if recs := tailAll(t, tl, l.LastLSN()); len(recs) != 3 {
		t.Fatalf("initial drain = %d records, want 3", len(recs))
	}
	// Caught up: Next returns empty without error.
	if recs, err := tl.Next(16, l.LastLSN()); err != nil || len(recs) != 0 {
		t.Fatalf("caught-up Next = (%d, %v), want (0, nil)", len(recs), err)
	}
	// Seal the segment the tail sits on, drop it, and append into the
	// fresh active segment: the tail must cross the rotation and must
	// NOT see a gap — it already consumed the dropped records.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if n, err := l.DropThrough(3); err != nil || n != 1 {
		t.Fatalf("DropThrough = (%d, %v)", n, err)
	}
	for i := 4; i <= 5; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs := tailAll(t, tl, l.LastLSN())
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("post-rotation drain = %+v, want LSNs 4-5", recs)
	}
}

// TestTailGapAfterFallingBehind: a tail that consumed part of the chain
// and then had unread segments reclaimed reports *GapError from Next —
// the mid-stream counterpart of the OpenTail check.
func TestTailGapAfterFallingBehind(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 2, 2) // sealed [1-2], empty active
	defer l.Close()
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if recs := tailAll(t, tl, l.LastLSN()); len(recs) != 2 {
		t.Fatalf("drain = %d, want 2", len(recs))
	}
	// The tail holds the fd of sealed segment [1-2]. Write [3-4] into a
	// new sealed segment and [5] after it, then reclaim everything
	// through 4: records 3-4 vanish before the tail ever opened them.
	for i := 3; i <= 4; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if n, err := l.DropThrough(4); err != nil || n != 2 {
		t.Fatalf("DropThrough(4) = (%d, %v), want (2, nil)", n, err)
	}
	_, err = tl.Next(16, l.LastLSN())
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("Next after reclaim = %v, want *GapError", err)
	}
	if gap.From != 2 || gap.Oldest != 5 {
		t.Fatalf("gap = %+v, want {From:2 Oldest:5}", gap)
	}
}

// TestTailLimitLSNHoldsBackRecords: records beyond limitLSN stay
// unconsumed and are delivered once the limit advances — the mechanism
// that keeps not-yet-durable (rollback-able) appends off the wire.
func TestTailLimitLSNHoldsBackRecords(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 5, 0)
	defer l.Close()
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, err := tl.Next(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("limited Next = %+v, want LSNs 1-3", recs)
	}
	recs, err = tl.Next(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("raised-limit Next = %+v, want LSNs 4-5", recs)
	}
}

// TestTailEmptyLogThenAppends: a from=0 tail on a virgin log waits,
// then streams once records exist; a from>0 tail on a virgin log is a
// gap (the claimed history cannot be verified).
func TestTailEmptyLogThenAppends(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Sync = false

	if _, err := OpenTail(path, 3); !errors.As(err, new(*GapError)) {
		t.Fatalf("OpenTail(from=3) on empty log = %v, want *GapError", err)
	}
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if recs, err := tl.Next(16, l.LastLSN()); err != nil || len(recs) != 0 {
		t.Fatalf("empty Next = (%d, %v), want (0, nil)", len(recs), err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if recs := tailAll(t, tl, l.LastLSN()); len(recs) != 3 {
		t.Fatalf("drain after first appends = %d records, want 3", len(recs))
	}
}

// TestTailMaxBytes: the byte soft-cap ends a batch early but never
// splits or drops a record.
func TestTailMaxBytes(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Sync = false
	for i := 1; i <= 4; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tl.MaxBytes = 150
	var got []uint64
	for i := 0; i < 10; i++ {
		recs, err := tl.Next(16, l.LastLSN())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		if len(recs) > 2 {
			t.Fatalf("batch of %d records exceeds 150-byte soft cap by more than one record", len(recs))
		}
		for _, r := range recs {
			got = append(got, r.LSN)
		}
	}
	want := fmt.Sprint([]uint64{1, 2, 3, 4})
	if fmt.Sprint(got) != want {
		t.Fatalf("capped drain LSNs = %v, want %s", got, want)
	}
}

// TestTailCaughtUpNextTouchesNoFile: once the tail has read up to the
// limit, Next returns without listing the chain or reading a file, a
// batch of appends costs one read, and a rotation is still followed
// with one listing.
func TestTailCaughtUpNextTouchesNoFile(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 3, 0)
	defer l.Close()
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if recs := tailAll(t, tl, l.LastLSN()); len(recs) != 3 {
		t.Fatalf("initial drain = %d records, want 3", len(recs))
	}
	lists, reads := tl.IOCounts()
	for range 100 {
		if recs, err := tl.Next(16, l.LastLSN()); err != nil || len(recs) != 0 {
			t.Fatalf("caught-up Next = (%d, %v), want (0, nil)", len(recs), err)
		}
	}
	if l2, r2 := tl.IOCounts(); l2 != lists || r2 != reads {
		t.Fatalf("100 caught-up Nexts listed the chain %d times and read %d times, want 0 and 0",
			l2-lists, r2-reads)
	}

	for i := 4; i <= 8; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := tl.Next(16, l.LastLSN())
	if err != nil || len(recs) != 5 || recs[0].LSN != 4 || recs[4].LSN != 8 {
		t.Fatalf("batch Next = (%+v, %v), want LSNs 4-8", recs, err)
	}
	if l2, r2 := tl.IOCounts(); l2 != lists || r2 != reads+1 {
		t.Fatalf("a five-record batch listed the chain %d times and read %d times, want 0 and 1",
			l2-lists, r2-reads)
	}

	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 9; i <= 10; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lists, _ = tl.IOCounts()
	recs = tailAll(t, tl, l.LastLSN())
	if len(recs) != 2 || recs[0].LSN != 9 || recs[1].LSN != 10 {
		t.Fatalf("post-rotation drain = %+v, want LSNs 9-10", recs)
	}
	if l2, _ := tl.IOCounts(); l2 != lists+1 {
		t.Fatalf("following one rotation listed the chain %d times, want 1", l2-lists)
	}
}

// TestTailRereadsBytesReadBeforeTheyWereDurable: a chunk read while
// record 4 was beyond the limit must not serve record 4 from those
// bytes once the limit covers it — the append may have been rolled
// back and its LSN rewritten with other contents.
func TestTailRereadsBytesReadBeforeTheyWereDurable(t *testing.T) {
	path := tempLog(t)
	l := buildChain(t, path, 4, 0)
	defer l.Close()
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if recs := tailAll(t, tl, 3); len(recs) != 3 {
		t.Fatalf("drain to 3 = %d records, want 3", len(recs))
	}
	// Roll record 4 back and write another record 4 in its place.
	seg := path + ".1"
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rec4 := len(frame(nil, 4, 5, []byte{4}))
	data = frame(data[:len(data)-rec4], 4, 9, []byte("rewritten"))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := tailAll(t, tl, 4)
	if len(recs) != 1 || recs[0].Kind != 9 || string(recs[0].Payload) != "rewritten" {
		t.Fatalf("record 4 after rollback = %+v, want the rewritten one", recs)
	}
}
