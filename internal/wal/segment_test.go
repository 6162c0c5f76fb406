package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendRollbackNeverShadowsLaterAppends is the torn-write
// shadowing regression test: a failed single-record Append must
// truncate its torn bytes away, so the NEXT successful append starts at
// the pre-failure offset and is always recovered. Before the fix the
// garbage stayed in the file, the later acknowledged record landed
// after it, and recovery's scan stopped at the garbage — silently
// dropping the acknowledged record.
func TestAppendRollbackNeverShadowsLaterAppends(t *testing.T) {
	for _, stage := range []string{"written", "synced"} {
		t.Run(stage, func(t *testing.T) {
			path := tempLog(t)
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(1, []byte("pre")); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("injected io failure")
			AppendHook = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if _, err := l.Append(2, []byte("doomed")); !errors.Is(err, boom) {
				AppendHook = nil
				t.Fatalf("Append error = %v, want injected %v", err, boom)
			}
			AppendHook = nil
			if l.LastLSN() != 1 {
				t.Errorf("failed append advanced LSN to %d", l.LastLSN())
			}
			// The caller retries (or moves on): this append IS acknowledged.
			lsn, err := l.Append(3, []byte("acked"))
			if err != nil {
				t.Fatal(err)
			}
			if lsn != 2 {
				t.Errorf("post-failure append lsn = %d, want 2", lsn)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs := collect(t, path, 0)
			if len(recs) != 2 || recs[1].Kind != 3 || !bytes.Equal(recs[1].Payload, []byte("acked")) {
				t.Fatalf("recovery = %+v, want [pre, acked]: the acknowledged append was shadowed", recs)
			}
			// Reopen agrees.
			l2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if l2.LastLSN() != 2 {
				t.Errorf("reopened LastLSN = %d, want 2", l2.LastLSN())
			}
			_ = l2.Close()
		})
	}
}

// TestRotateAndDropThrough drives the checkpoint interaction: rotate
// seals segments, DropThrough deletes exactly the covered prefix, and
// replay stays complete and ordered throughout.
func TestRotateAndDropThrough(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	for i := 1; i <= 2; i++ {
		if _, err := l.Append(uint8(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil { // seals LSNs 1-2
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil { // empty active: no-op
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount after seal = %d, want 2", got)
	}
	for i := 3; i <= 4; i++ {
		if _, err := l.Append(uint8(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil { // seals LSNs 3-4
		t.Fatal(err)
	}
	if _, err := l.Append(5, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, path, 0); len(recs) != 5 {
		t.Fatalf("pre-drop replay = %d records, want 5", len(recs))
	}

	// A checkpoint at LSN 3 covers only the first sealed segment (its
	// last LSN is 2); the second sealed segment holds LSN 4 > 3.
	n, err := l.DropThrough(3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("DropThrough(3) removed %d segments, want 1", n)
	}
	recs := collect(t, path, 0)
	if len(recs) != 3 || recs[0].LSN != 3 {
		t.Fatalf("post-drop replay = %+v, want LSNs 3-5", recs)
	}
	// Covering everything drops the remaining sealed segment; the
	// active one survives.
	if n, err = l.DropThrough(l.LastLSN()); err != nil || n != 1 {
		t.Fatalf("DropThrough(last) = (%d, %v), want (1, nil)", n, err)
	}
	if got := l.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount after full drop = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: LSN numbering continues from the surviving active segment.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Sync = false
	if lsn, _ := l2.Append(9, nil); lsn != 6 {
		t.Errorf("post-reopen lsn = %d, want 6", lsn)
	}
	_ = l2.Close()
}

// TestSizeTriggeredRotation: with SegmentBytes set, appends seal
// segments automatically, and recovery scans the whole chain in order.
func TestSizeTriggeredRotation(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	l.SegmentBytes = 64
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.SegmentCount(); got < 3 {
		t.Fatalf("SegmentCount = %d, want several (size-triggered rotation broken)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, path, 0)
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d: chain order broken", i, r.LSN)
		}
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Sync = false
	if lsn, _ := l2.Append(1, nil); lsn != n+1 {
		t.Errorf("reopen lsn = %d, want %d", lsn, n+1)
	}
	_ = l2.Close()
}

// TestTornTailInFinalSegmentOnly: a torn tail in the active segment is
// truncated on reopen while sealed segments stay intact, and segments
// after a tear (which can only hold unacknowledged records) are
// discarded.
func TestTornTailInFinalSegmentOnly(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	_, _ = l.Append(1, []byte("sealed-1"))
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	_, _ = l.Append(2, []byte("active"))
	active := l.ActivePath()
	_ = l.Close()

	// Garbage tail in the active segment.
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{9, 9, 9, 9, 9})
	_ = f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Sync = false
	if lsn, _ := l2.Append(3, []byte("after")); lsn != 3 {
		t.Errorf("post-repair lsn = %d, want 3", lsn)
	}
	_ = l2.Close()
	recs := collect(t, path, 0)
	if len(recs) != 3 {
		t.Fatalf("replay after repair = %+v", recs)
	}
}

// TestBareFileRefused: a pre-segmentation single-file log is refused
// by every entry point — read, open, list, tail — and left exactly as
// it was: adopting or ignoring it would lose its records.
func TestBareFileRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.log")

	// Build a bare file: write through a scratch segmented log, then
	// move its single segment to the bare path.
	scratch := filepath.Join(t.TempDir(), "scratch.log")
	sl, err := Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	sl.Sync = false
	_, _ = sl.Append(1, []byte("bare-1"))
	_, _ = sl.Append(2, []byte("bare-2"))
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(scratch+".1", path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := Replay(path, 0, func(Record) error { return nil }); err == nil {
		t.Error("Replay read a bare file")
	}
	if l, err := Open(path); err == nil {
		l.Close()
		t.Error("Open accepted a bare file")
	}
	if _, err := SegmentFiles(path); err == nil {
		t.Error("SegmentFiles listed a bare file")
	}
	if tl, err := OpenTail(path, 1); err == nil {
		tl.Close()
		t.Error("OpenTail accepted a bare file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "commit.log" {
		t.Errorf("directory changed by refused opens: %v", ents)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("bare file changed by refused opens (err %v)", err)
	}
}

// TestSegmentFilesListing pins the discovery helper's ordering.
func TestSegmentFilesListing(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	_, _ = l.Append(1, []byte("a"))
	_ = l.Rotate()
	_, _ = l.Append(2, []byte("b"))
	_ = l.Rotate()
	_, _ = l.Append(3, []byte("c"))
	_ = l.Close()
	files, err := SegmentFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("SegmentFiles = %v, want 3 entries", files)
	}
	for i, f := range files {
		if want := fmt.Sprintf("%s.%d", path, i+1); f != want {
			t.Errorf("files[%d] = %s, want %s", i, f, want)
		}
	}
}
