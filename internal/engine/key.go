package engine

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Map-key encodings for the hash-based relational operators. Two distinct
// encodings exist because SQL has two distinct equality notions in play:
//
//   - GROUP BY / DISTINCT partition rows by *value identity*: NULL is its own
//     group, the number 1 and the string '1' are different keys, and any byte
//     (including the historical 0x1f separator) may appear inside a string.
//     appendGroupKey encodes that identity with a type tag per value — no
//     Text() rendering, no separator to collide with.
//
//   - Hash equi-joins must agree exactly with the `=` operator, which
//     compares via Compare: numerics numerically, anything involving a
//     string by canonical text (so the number 1 *does* equal the string
//     '1'). appendJoinKey encodes that coercion. NULL never equals anything,
//     so callers skip NULL values instead of encoding them.
//
// Both encodings are length-delimited and therefore prefix-free per value:
// concatenating the per-column encodings of a row cannot collide with any
// other row's concatenation.
const (
	keyTagNull byte = 0
	keyTagNum  byte = 1
	keyTagStr  byte = 2
)

// appendGroupKey appends the type-tagged identity encoding of v to buf.
// Encodings are equal iff the values are identical (same nullness, same
// type, same contents); ±0 and distinct NaN payloads follow float64 bit
// identity, matching the distinction the old text keys already made.
func appendGroupKey(buf []byte, v Value) []byte {
	switch {
	case v.Null:
		return append(buf, keyTagNull)
	case v.IsStr:
		buf = append(buf, keyTagStr)
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		return append(buf, v.Str...)
	default:
		buf = append(buf, keyTagNum)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Num))
	}
}

// groupKey renders a whole row as one group/distinct key, reusing buf.
// Callers look maps up with string(returnedBuf) — Go elides the allocation
// for lookups, so a string materializes only when a new key is inserted.
func groupKey(buf []byte, row []Value) []byte {
	buf = buf[:0]
	for _, v := range row {
		buf = appendGroupKey(buf, v)
	}
	return buf
}

// joinKeyBits is appendJoinKey's equivalence relation restricted to finite
// floats, as one uint64: -0 collapses onto +0 and everything else keys by
// bit pattern. Sound because strconv's shortest 'g' rendering is injective
// over finite floats — two finite non-NaN numbers have equal appendJoinKey
// encodings iff they have equal joinKeyBits. The hash index (index.go) keys
// all-numeric NaN-free columns this way instead of formatting one string
// per cell; columns holding NaN (where Compare degenerates) or strings key
// by text.
func joinKeyBits(f float64) uint64 {
	if f == 0 {
		return 0 // +0 and -0 share bucket, matching appendJoinKey
	}
	return math.Float64bits(f)
}

// appendJoinKey appends the `=`-coercion encoding of v to buf: two non-NULL
// values get the same encoding iff Compare(a, b) == 0. Numbers render as
// their canonical text (the exact string Compare coerces to), with -0
// normalized to 0 so that -0 = 0 keeps holding. v must not be NULL — NULL
// join keys match nothing and are skipped by the caller.
func appendJoinKey(buf []byte, v Value) []byte {
	if v.IsStr {
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		return append(buf, v.Str...)
	}
	var tmp [32]byte
	s := appendNumKey(tmp[:0], v.Num)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// isNegZero reports whether f is -0.
func isNegZero(f float64) bool { return f == 0 && math.Signbit(f) }

// appendNumKey appends f's canonical text — the string Compare coerces it
// to — with -0 collapsed onto 0, since Compare treats them as equal.
func appendNumKey(buf []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}
