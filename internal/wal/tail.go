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
type Tail struct {
	path string
	from uint64
	// MaxBytes soft-caps the payload bytes returned by one Next call
	// (0 = unlimited): the batch finishes the record that crosses the
	// cap, then stops.
	MaxBytes int

	cur      *os.File
	curPath  string
	off      int64
	size     int64  // current file's size when last checked
	fileLast uint64 // last LSN read from the current file (0 = none yet)
	last     uint64 // last LSN read overall, including filtered ones
}

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
// Gap detection here is a disk-level backstop and can lag reclamation
// by one call when racing a concurrent Truncate; an in-process server
// should additionally consult Log.Bounds() before each poll.
func (t *Tail) Next(maxRecords int, limitLSN uint64) ([]Record, error) {
	var out []Record
	bytes := 0
	for len(out) < maxRecords {
		rec, ok := t.readRecord(limitLSN)
		if !ok {
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
// write, or the next record is beyond limitLSN.
func (t *Tail) readRecord(limitLSN uint64) (Record, bool) {
	if t.cur == nil {
		return Record{}, false
	}
	var header [headerLen]byte
	if _, err := t.cur.ReadAt(header[:], t.off); err != nil {
		return Record{}, false
	}
	lsn := binary.BigEndian.Uint64(header[0:8])
	kind := header[8]
	plen := binary.BigEndian.Uint32(header[9:13])
	if plen > MaxPayload || lsn == 0 {
		return Record{}, false
	}
	if t.fileLast != 0 && lsn != t.fileLast+1 {
		return Record{}, false
	}
	if lsn > limitLSN {
		return Record{}, false
	}
	// Allocate the body only once the file holds it: a torn header may
	// claim up to MaxPayload. The file may have grown since the size was
	// last checked, so a record past it rechecks.
	end := t.off + int64(headerLen) + int64(plen) + crcLen
	if end > t.size {
		info, err := t.cur.Stat()
		if err != nil || end > info.Size() {
			return Record{}, false
		}
		t.size = info.Size()
	}
	body := make([]byte, int(plen)+crcLen)
	if _, err := t.cur.ReadAt(body, t.off+int64(headerLen)); err != nil {
		return Record{}, false
	}
	crc := crc32.NewIEEE()
	crc.Write(header[:])
	crc.Write(body[:plen])
	if crc.Sum32() != binary.BigEndian.Uint32(body[plen:]) {
		return Record{}, false
	}
	t.off += int64(headerLen) + int64(plen) + crcLen
	t.fileLast = lsn
	t.last = lsn
	return Record{LSN: lsn, Kind: kind, Payload: body[:plen]}, true
}

// advance moves the cursor to the segment holding LSN last+1, if one
// exists. It re-lists the chain because rotation, truncation, and
// reclamation all happen behind the tail's back. Returns false when
// the tail is (for now) caught up.
func (t *Tail) advance() (bool, error) {
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
			t.cur, t.curPath, t.off, t.size, t.fileLast = f, p, 0, 0, 0
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
