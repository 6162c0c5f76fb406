package mview

// The statement codec: the payload of every commit-log record, read
// back by recovery replay and by a follower applying the replication
// stream alike (the stream ships WAL records verbatim).
//
// A record's WAL kind names its payload format. walKindStmt is the
// binary layout below and the only kind this build reads or writes;
// its kind number is its version, so a future layout takes a new kind.
//
// Integers are LEB128 varints: uvarint unsigned, varint zig-zag signed.
// str is a uvarint byte length and the bytes; strs is a uvarint count
// and that many strs.
//
//	tx:  0x01 | uvarint nops | nops × op
//	op:  uvarint arity<<2 | same<<1 | del | [str rel, when same = 0] | arity × varint value
//	DDL: kind | str name | strs attrs | strs from | str where | strs select | strs options | strs rels
//
// An op with same = 1 names the relation of the op before it, so a
// transaction spells each run of one relation's name once. A DDL
// record carries every field whatever its kind; unused ones are empty.

import (
	"encoding/binary"
	"fmt"

	"mview/internal/delta"
	"mview/internal/tuple"
)

// stmtKind is a logged statement's kind, and the first byte of its
// walKindStmt payload.
type stmtKind uint8

const (
	stmtTx stmtKind = 1 + iota
	stmtRelation
	stmtView
	stmtJoinView
	stmtDropView
	stmtPolicy
)

// walStmt is one decoded log statement. A transaction carries Tx; DDL
// carries the fields its kind uses.
type walStmt struct {
	Kind    stmtKind
	Name    string
	Attrs   []string
	Spec    ViewSpec
	Options []string
	Rels    []string
	Tx      *delta.Tx
}

// encodeTxStmt returns the walKindStmt payload of a transaction made
// of ops.
func encodeTxStmt(ops []Op) []byte {
	n := 4 // an estimate, so the payload is usually allocated once
	for _, o := range ops {
		n += 2 + len(o.rel) + 3*len(o.vals)
	}
	b := append(make([]byte, 0, n), byte(stmtTx))
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i, o := range ops {
		h := uint64(len(o.vals)) << 2
		same := i > 0 && o.rel == ops[i-1].rel
		if same {
			h |= 2
		}
		if o.del {
			h |= 1
		}
		b = binary.AppendUvarint(b, h)
		if !same {
			b = appendStr(b, o.rel)
		}
		for _, v := range o.vals {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// encodeDDLStmt returns the walKindStmt payload of a DDL statement.
func encodeDDLStmt(st walStmt) []byte {
	b := appendStr([]byte{byte(st.Kind)}, st.Name)
	b = appendStrs(b, st.Attrs)
	b = appendStrs(b, st.Spec.From)
	b = appendStr(b, st.Spec.Where)
	b = appendStrs(b, st.Spec.Select)
	b = appendStrs(b, st.Options)
	return appendStrs(b, st.Rels)
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// decodeStmt decodes the payload of a commit-log record of the given
// WAL kind. Recovery replay and follower apply both read records
// through it.
func decodeStmt(kind uint8, payload []byte) (walStmt, error) {
	if kind != walKindStmt {
		return walStmt{}, fmt.Errorf("mview: log record kind %d is not one this build reads (want %d)", kind, walKindStmt)
	}
	r := stmtReader{b: payload}
	st := r.stmt()
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return st, r.err
}

// stmtReader decodes one walKindStmt payload. Every count and length it
// reads is checked against the bytes left before anything is allocated
// for it, so each allocation holds at most as many elements as the
// payload has bytes. The first failure sticks.
type stmtReader struct {
	b   []byte
	err error
}

func (r *stmtReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("mview: statement payload: "+format, args...)
	}
	r.b = nil
}

func (r *stmtReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stmtReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a count of items that take at least one byte each.
func (r *stmtReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *stmtReader) bytes() []byte {
	n := r.count()
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *stmtReader) str() string { return string(r.bytes()) }

func (r *stmtReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *stmtReader) stmt() walStmt {
	if len(r.b) == 0 {
		r.fail("empty")
		return walStmt{}
	}
	st := walStmt{Kind: stmtKind(r.b[0])}
	r.b = r.b[1:]
	switch st.Kind {
	case stmtTx:
		st.Tx = r.tx()
	case stmtRelation, stmtView, stmtJoinView, stmtDropView, stmtPolicy:
		st.Name = r.str()
		st.Attrs = r.strs()
		st.Spec.From = r.strs()
		st.Spec.Where = r.str()
		st.Spec.Select = r.strs()
		st.Options = r.strs()
		st.Rels = r.strs()
	default:
		r.fail("unknown statement kind %d", st.Kind)
	}
	return st
}

// txShape walks a transaction's ops without allocating, checking every
// length, and reports the total value count and the widest op.
func (r stmtReader) txShape(nops int) (nvals, maxArity int, err error) {
	for i := 0; i < nops && r.err == nil; i++ {
		h := r.uvarint()
		if h&2 == 0 {
			r.bytes()
		} else if i == 0 {
			r.fail("first op repeats a relation")
		}
		if h>>2 > uint64(len(r.b)) {
			r.fail("arity %d exceeds the %d bytes left", h>>2, len(r.b))
			break
		}
		arity := int(h >> 2)
		for j := 0; j < arity; j++ {
			r.varint()
		}
		nvals += arity
		maxArity = max(maxArity, arity)
	}
	return nvals, maxArity, r.err
}

// tx decodes a transaction's ops straight into a delta.Tx sized
// exactly by a checking pass over them.
func (r *stmtReader) tx() *delta.Tx {
	nops := r.count()
	nvals, maxArity, err := r.txShape(nops)
	if err != nil {
		r.err, r.b = err, nil
		return nil
	}
	tx := new(delta.Tx)
	tx.Reserve(nops, nvals)
	var buf [8]int64
	t := tuple.Tuple(buf[:])
	if maxArity > len(buf) {
		t = make(tuple.Tuple, maxArity)
	}
	var rel string
	for i := 0; i < nops; i++ {
		h := r.uvarint()
		if h&2 == 0 {
			rel = r.str()
		}
		vals := t[:h>>2]
		for j := range vals {
			vals[j] = r.varint()
		}
		if h&1 != 0 {
			tx.Delete(rel, vals)
		} else {
			tx.Insert(rel, vals)
		}
	}
	return tx
}
