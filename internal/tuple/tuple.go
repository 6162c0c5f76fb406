// Package tuple provides the value and tuple representation used by the
// mview engine, plus the update tags of Blakeley, Larson & Tompa §5.3.
//
// Following the paper, all attribute values are integers: "all
// attributes are defined on discrete and finite domains. Since such a
// domain can be mapped to a subset of natural numbers, we use integer
// values in all examples." Symbolic data is supported one level up via
// a string dictionary (internal/dict).
package tuple

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Value is a single attribute value.
type Value = int64

// Tuple is an ordered list of values conforming to some relation
// scheme. Tuples are treated as immutable once stored in a relation.
type Tuple []Value

// New builds a tuple from the given values.
func New(vals ...Value) Tuple { return Tuple(vals) }

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have identical arity and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i, v := range t {
		if u[i] != v {
			return false
		}
	}
	return true
}

// Less orders tuples lexicographically; it is used for deterministic
// iteration and output.
func (t Tuple) Less(u Tuple) bool { return Compare(t, u) < 0 }

// Compare is the three-way form of Less, for slices.SortFunc: -1, 0 or
// +1 as t sorts before, with or after u. A proper prefix sorts first.
func Compare(t, u Tuple) int { return slices.Compare(t, u) }

// The key codec: tuples map to strings injectively (for tuples of the
// same arity) as fixed 8-byte big-endian two's complement per value.
// AppendKey and DecodeValue are the single encoder/decoder pair; Key
// and FromKey are conveniences over them. Hot paths (the relation
// arenas) call AppendKey with a reused scratch buffer and look maps up
// with the zero-allocation string([]byte) conversion, so no key string
// is materialized unless a tuple is actually inserted.

// AppendKey appends t's key encoding to dst and returns the extended
// slice.
func AppendKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = append(dst,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return dst
}

// DecodeValue decodes the i-th value of a key produced by AppendKey,
// indexing the string directly (no []byte conversion or copy). The
// caller guarantees len(key) >= (i+1)*8.
func DecodeValue(key string, i int) Value {
	o := i * 8
	return int64(uint64(key[o])<<56 | uint64(key[o+1])<<48 |
		uint64(key[o+2])<<40 | uint64(key[o+3])<<32 |
		uint64(key[o+4])<<24 | uint64(key[o+5])<<16 |
		uint64(key[o+6])<<8 | uint64(key[o+7]))
}

// Key encodes the tuple into a string usable as a map key. The
// encoding is injective for tuples of the same arity.
func (t Tuple) Key() string {
	return string(AppendKey(make([]byte, 0, len(t)*8), t))
}

// FromKey decodes a key produced by Key back into a tuple of the given
// arity. It returns an error if the key length does not match.
func FromKey(key string, arity int) (Tuple, error) {
	if arity < 0 || arity != len(key)/8 || len(key)%8 != 0 {
		return nil, fmt.Errorf("tuple: key length %d does not match arity %d", len(key), arity)
	}
	t := make(Tuple, arity)
	for i := 0; i < arity; i++ {
		t[i] = DecodeValue(key, i)
	}
	return t, nil
}

// Project returns the tuple restricted to the given positions, in that
// order.
func (t Tuple) Project(pos []int) Tuple {
	out := make(Tuple, len(pos))
	for i, p := range pos {
		out[i] = t[p]
	}
	return out
}

// Concat returns the concatenation t ++ u (the tuple of a cross
// product).
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// String renders the tuple as "(1, 2, 3)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tag classifies a tuple during differential re-evaluation (§5.3).
//
// Old marks tuples present at the latest materialization and untouched
// by the current transaction; Insert and Delete mark the transaction's
// net insertions and deletions; Ignore marks combinations that must not
// emerge from a join (an inserted tuple matched with a deleted one).
type Tag uint8

// Tag values. TagOld is the zero value so untagged tuples default to
// "already in the view".
const (
	TagOld Tag = iota
	TagInsert
	TagDelete
	TagIgnore
)

// String returns the lower-case tag name used in the paper's tables.
func (g Tag) String() string {
	switch g {
	case TagOld:
		return "old"
	case TagInsert:
		return "insert"
	case TagDelete:
		return "delete"
	case TagIgnore:
		return "ignore"
	default:
		return fmt.Sprintf("tag(%d)", uint8(g))
	}
}

// JoinTags combines the tags of two operand tuples of a join according
// to the paper's table in §5.3:
//
//	r1      r2      r1 ⋈ r2
//	insert  insert  insert
//	insert  delete  ignore
//	insert  old     insert
//	delete  insert  ignore
//	delete  delete  delete
//	delete  old     delete
//	old     insert  insert
//	old     delete  delete
//	old     old     old
//
// Any operand already tagged Ignore stays Ignore.
func JoinTags(a, b Tag) Tag {
	if a == TagIgnore || b == TagIgnore {
		return TagIgnore
	}
	switch {
	case a == TagOld:
		return b
	case b == TagOld:
		return a
	case a == b:
		return a
	default: // one Insert, one Delete
		return TagIgnore
	}
}

// UnaryTag propagates a tag through a select or project operator. Per
// the paper's second table in §5.3, select and project preserve the
// operand tuple's tag (insert → insert, delete → delete, old → old).
func UnaryTag(a Tag) Tag { return a }
