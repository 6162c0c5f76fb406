package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// GapError reports that a tail requested records starting after LSN
// From, but the oldest record still retained on disk is Oldest — the
// range (From, Oldest) has been reclaimed by a checkpoint. The caller
// must re-sync from a checkpoint instead of replaying; a reclaimed
// position is never served as a silent empty stream. Oldest == 0 means
// no records are retained at all.
type GapError struct {
	From   uint64 // subscriber's last applied LSN
	Oldest uint64 // oldest LSN still on disk (0 = none)
}

func (e *GapError) Error() string {
	if e.Oldest == 0 {
		return fmt.Sprintf("wal: gap: no records retained, cannot resume after LSN %d", e.From)
	}
	return fmt.Sprintf("wal: gap: records after LSN %d reclaimed, oldest retained is %d", e.From, e.Oldest)
}

// Tail is a read-only cursor over a log's segment chain, built for
// replication catch-up: it yields records with LSN > from in order,
// follows segment rotation, tolerates the active segment growing
// underneath it, and keeps the fd of its current segment so prefix
// reclamation (DropThrough) of that segment does not interrupt an
// in-progress read. It detects reclaimed ranges it never read and
// reports them as *GapError rather than skipping silently.
//
// A Tail observes the chain only through the filesystem, so it works
// both in-process (the stream server) and against a closed log (tests,
// offline inspection). It is not safe for concurrent use.
//
// Reads are chunked: one ReadAt fetches every byte the current file
// holds past the cursor (up to tailChunk, or the whole of a larger
// record), and the records Next returns alias that chunk. A caught-up
// Next touches no file at all, and the chain is re-listed only when
// the current file ended below the limit, which is a rotation.
type Tail struct {
	path string
	from uint64
	// MaxBytes soft-caps the payload bytes returned by one Next call
	// (0 = unlimited): the batch finishes the record that crosses the
	// cap, then stops.
	MaxBytes int

	cur     *os.File
	curPath string
	off     int64 // file offset of the next record
	// buf holds the file's bytes from bufOff on, as one ReadAt returned
	// them when the caller's limit was bufLimit: records in it up to
	// bufLimit were durable then, and bytes past them may be an append
	// in flight or one since rolled back, so they are read again.
	buf      []byte
	bufOff   int64
	bufLimit uint64
	fileLast uint64 // last LSN read from the current file (0 = none yet)
	last     uint64 // last LSN read overall, including filtered ones

	// lists and reads count chain listings and file reads (tests).
	lists, reads int
}

// tailChunk caps one chunked read; a record larger than it is read
// whole.
const tailChunk = 256 << 10

// OpenTail opens a tail positioned after LSN from (records with
// LSN <= from are skipped). It returns *GapError when the record at
// from+1 has been reclaimed. from == 0 tails from the beginning.
func OpenTail(path string, from uint64) (*Tail, error) {
	files, err := SegmentFiles(path)
	if err != nil {
		return nil, err
	}
	type seg struct {
		path  string
		first uint64
	}
	var segs []seg
	for _, p := range files {
		if f := peekFirstLSN(p); f != 0 {
			segs = append(segs, seg{p, f})
		}
	}
	if len(segs) == 0 {
		if from == 0 {
			// Nothing written yet: a valid (empty) tail. advance() will
			// pick up segment files as records land.
			return &Tail{path: path, from: from}, nil
		}
		// The subscriber claims history (noop continuity records would
		// survive any truncation), so an empty chain means it was lost.
		return nil, &GapError{From: from}
	}
	if segs[0].first > from+1 {
		return nil, &GapError{From: from, Oldest: segs[0].first}
	}
	// Start at the last segment whose first LSN <= from+1; earlier
	// segments hold only records the subscriber already has.
	start := segs[0]
	for _, s := range segs[1:] {
		if s.first <= from+1 {
			start = s
		}
	}
	f, err := os.Open(start.path)
	if err != nil {
		return nil, err
	}
	return &Tail{path: path, from: from, cur: f, curPath: start.path}, nil
}

// peekFirstLSN reads the first record header of a segment file and
// returns its LSN, or 0 when the file is missing, empty, or starts
// with garbage. Header-only sanity checks suffice: callers only use
// the value for chain ordering, and every record body is CRC-verified
// before being returned.
func peekFirstLSN(path string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var header [headerLen]byte
	if _, err := f.ReadAt(header[:], 0); err != nil {
		return 0
	}
	lsn := binary.BigEndian.Uint64(header[0:8])
	plen := binary.BigEndian.Uint32(header[9:13])
	if plen > MaxPayload || lsn == 0 {
		return 0
	}
	return lsn
}

// Next returns up to maxRecords records with from < LSN <= limitLSN,
// in LSN order. limitLSN is the durable high-water mark (the leader's
// LastLSN()): records beyond it may still be mid-write or subject to
// append rollback, so Next leaves them unconsumed for a later call.
// An empty batch with nil error means the tail is caught up for now.
// A *GapError means records the subscriber needs were reclaimed.
//
// A tail already at limitLSN returns at once, without touching a file.
// The payloads alias a chunk the tail read and never writes again.
//
// Gap detection here is a disk-level backstop and can lag reclamation
// by one call when racing a concurrent Truncate; an in-process server
// should additionally consult Log.Bounds() before each poll.
func (t *Tail) Next(maxRecords int, limitLSN uint64) ([]Record, error) {
	var out []Record
	bytes := 0
	for len(out) < maxRecords && max(t.last, t.from) < limitLSN {
		rec, ok := t.readRecord(limitLSN)
		if !ok {
			// The current file ended below the limit: the records
			// the limit promises are in a later segment.
			advanced, err := t.advance()
			if err != nil {
				return out, err
			}
			if !advanced {
				return out, nil
			}
			continue
		}
		if rec.LSN > t.from {
			out = append(out, rec)
			bytes += len(rec.Payload)
			if t.MaxBytes > 0 && bytes >= t.MaxBytes {
				return out, nil
			}
		}
	}
	return out, nil
}

// readRecord reads and validates one record at the cursor. ok == false
// means no record was consumed: end of this file, a torn or in-flight
// write, or the next record is beyond limitLSN. A parse that fails on
// an earlier chunk, whose bytes past its limit may be stale, is retried
// once on a fresh read.
func (t *Tail) readRecord(limitLSN uint64) (Record, bool) {
	if t.cur == nil {
		return Record{}, false
	}
	if t.buf != nil {
		if rec, ok := t.parse(limitLSN); ok {
			return rec, true
		}
		t.buf = nil
	}
	return t.parse(limitLSN)
}

// parse decodes the record at the cursor from buf, reading the file
// only when buf does not hold it.
func (t *Tail) parse(limitLSN uint64) (Record, bool) {
	header, ok := t.window(headerLen, limitLSN)
	if !ok {
		return Record{}, false
	}
	lsn := binary.BigEndian.Uint64(header[0:8])
	kind := header[8]
	plen := binary.BigEndian.Uint32(header[9:13])
	if plen > MaxPayload || lsn == 0 || lsn > t.bufLimit {
		return Record{}, false
	}
	if t.fileLast != 0 && lsn != t.fileLast+1 {
		return Record{}, false
	}
	if lsn > limitLSN {
		return Record{}, false
	}
	n := headerLen + int(plen) + crcLen
	b, ok := t.window(n, limitLSN)
	if !ok {
		return Record{}, false
	}
	body := headerLen + int(plen)
	if crc32.ChecksumIEEE(b[:body]) != binary.BigEndian.Uint32(b[body:]) {
		return Record{}, false
	}
	t.off += int64(n)
	t.fileLast = lsn
	t.last = lsn
	return Record{LSN: lsn, Kind: kind, Payload: b[headerLen:body:body]}, true
}

// window returns the n bytes at the cursor, from buf when it holds
// them and otherwise from a fresh chunk.
func (t *Tail) window(n int, limitLSN uint64) ([]byte, bool) {
	if lo := t.off - t.bufOff; t.buf != nil && lo >= 0 && lo+int64(n) <= int64(len(t.buf)) {
		return t.buf[lo : lo+int64(n)], true
	}
	return t.fill(n, limitLSN)
}

// fill reads the current file from the cursor into a new buf: every
// byte it holds up to tailChunk, and at least n. It allocates only
// once the file holds n bytes past the cursor — a torn header may
// claim up to MaxPayload — and never more than the file holds.
func (t *Tail) fill(n int, limitLSN uint64) ([]byte, bool) {
	t.buf = nil
	info, err := t.cur.Stat()
	if err != nil {
		return nil, false
	}
	avail := info.Size() - t.off
	if avail < int64(n) {
		return nil, false
	}
	buf := make([]byte, max(int64(n), min(avail, tailChunk)))
	t.reads++
	if _, err := t.cur.ReadAt(buf, t.off); err != nil {
		return nil, false
	}
	t.buf, t.bufOff, t.bufLimit = buf, t.off, limitLSN
	return buf[:n], true
}

// advance moves the cursor to the segment holding LSN last+1, if one
// exists. It re-lists the chain because rotation, truncation, and
// reclamation all happen behind the tail's back. Returns false when
// the tail is (for now) caught up.
func (t *Tail) advance() (bool, error) {
	t.lists++
	files, err := SegmentFiles(t.path)
	if err != nil {
		return false, err
	}
	want := t.last + 1
	curRetained := false
	var oldestAhead uint64
	for _, p := range files {
		if p == t.curPath {
			curRetained = true
		}
		first := peekFirstLSN(p)
		if first == 0 {
			continue
		}
		if first == want && p != t.curPath {
			f, err := os.Open(p)
			if err != nil {
				return false, err
			}
			if t.cur != nil {
				t.cur.Close()
			}
			t.cur, t.curPath, t.off, t.buf, t.fileLast = f, p, 0, nil, 0
			return true, nil
		}
		if first > want && (oldestAhead == 0 || first < oldestAhead) {
			oldestAhead = first
		}
	}
	// A segment starting beyond want while our current segment is gone
	// from the chain means the records in between were reclaimed before
	// we read them (prefix reclamation would have kept any segment
	// between ours and the retained suffix). With the current segment
	// still retained, a beyond-want start can't occur — the chain is
	// LSN-contiguous — so a caught-up tail just waits for the active
	// segment to grow.
	if oldestAhead != 0 && !curRetained {
		return false, &GapError{From: t.last, Oldest: oldestAhead}
	}
	return false, nil
}

// Pos returns the LSN of the last record the tail has read past
// (including records filtered out as <= from); 0 before any read.
func (t *Tail) Pos() uint64 {
	if t.last == 0 {
		return t.from
	}
	return t.last
}

// Close releases the tail's segment fd. Safe to call twice.
func (t *Tail) Close() error {
	if t.cur == nil {
		return nil
	}
	err := t.cur.Close()
	t.cur = nil
	return err
}
