package adm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Binary encoding of Values — the storage serialization used by the LSM
// write-ahead log and on-disk run files. The format is a tagged
// pre-order walk: one kind byte, then a kind-specific payload. Every
// payload is self-delimiting, so a stream of concatenated values needs
// no outer framing. Integers (and counts/lengths) use varints, doubles
// and geometry are fixed-width little-endian, and containers carry an
// element count followed by their children.
//
// Bytes are checked once. SkipBinary is the one statement of what a
// valid encoding is; buildBinary builds a value from bytes it accepted
// and checks nothing. DecodeBinary is the two together. Every reader of
// bytes from outside the process checks them with SkipBinary where they
// enter — a frame's slab and WAL replay, a run block's load, a wire or
// index payload — and from then on reads them as views (View,
// ViewAlias) or compares them where they lie (CompareEncoded), never
// re-checking. (A manifest's fence keys are only ever compared byte for
// byte with the checked fences of their run.)
//
// BinaryVersion numbers this encoding. No file header carries it: WAL
// segments and run files are stamped with their own versions (walVersion,
// runVersion in internal/lsm), and any change to the byte layout — a new
// kind, a different varint scheme, reordered payload fields — must bump
// those. It is a tripwire: the golden tests of internal/lsm and
// internal/wire pin it beside them and fail loudly on accidental drift.
const BinaryVersion = 1

// AppendBinary appends the binary encoding of v to dst and returns the
// extended slice. It never fails: every Value kind is encodable.
func AppendBinary(dst []byte, v Value) []byte {
	if v.isView() {
		return append(dst, v.s...)
	}
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindMissing, KindNull:
		// Tag only.
	case KindBoolean:
		b := byte(0)
		if v.i != 0 {
			b = 1
		}
		dst = append(dst, b)
	case KindInt64, KindDateTime:
		dst = binary.AppendVarint(dst, v.i)
	case KindDouble:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindDuration:
		dst = binary.AppendVarint(dst, int64(v.aux))
		dst = binary.AppendVarint(dst, v.i)
	case KindPoint, KindRectangle, KindCircle:
		dst = appendGeo(dst, v.geo, geoCoords(v.kind))
	case KindArray:
		dst = binary.AppendUvarint(dst, uint64(len(v.arr)))
		for _, e := range v.arr {
			dst = AppendBinary(dst, e)
		}
	case KindObject:
		n := 0
		if v.obj != nil {
			n = v.obj.Len()
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := 0; i < n; i++ {
			name := v.obj.Name(i)
			dst = binary.AppendUvarint(dst, uint64(len(name)))
			dst = append(dst, name...)
			dst = AppendBinary(dst, v.obj.At(i))
		}
	}
	return dst
}

// BinarySize returns len(AppendBinary(nil, v)) without encoding: a
// caller that sizes its buffer with it appends without ever moving what
// it has already written. A view answers in O(1).
func BinarySize(v Value) int {
	if v.isView() {
		return len(v.s)
	}
	switch v.kind {
	case KindBoolean:
		return 2
	case KindInt64, KindDateTime:
		return 1 + varintLen(v.i)
	case KindDouble:
		return 9
	case KindString:
		return 1 + uvarintLen(len(v.s)) + len(v.s)
	case KindDuration:
		return 1 + varintLen(int64(v.aux)) + varintLen(v.i)
	case KindPoint, KindRectangle, KindCircle:
		return 1 + 8*geoCoords(v.kind)
	case KindArray:
		n := 1 + uvarintLen(len(v.arr))
		for _, e := range v.arr {
			n += BinarySize(e)
		}
		return n
	case KindObject:
		if v.obj == nil {
			return 2
		}
		n := 1 + uvarintLen(v.obj.Len())
		for i, name := range v.obj.names {
			n += uvarintLen(len(name)) + len(name) + BinarySize(v.obj.values[i])
		}
		return n
	}
	return 1 // MISSING, NULL: the tag
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// varintLen is the width of binary.AppendVarint's zig-zag encoding.
func varintLen(i int64) int { return (bits.Len64(uint64(i<<1)^uint64(i>>63)|1) + 6) / 7 }

func appendGeo(dst []byte, geo *[4]float64, n int) []byte {
	var zero [4]float64
	if geo == nil {
		geo = &zero
	}
	for i := 0; i < n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(geo[i]))
	}
	return dst
}

// DecodeBinary decodes one value from the front of data, returning the
// value and the number of bytes consumed. Whether data starts with a
// valid encoding, and how long it is, is SkipBinary's verdict and error;
// the value is then built from bytes known to be whole. Decoded values
// own their memory (string payloads are copied), so they are safe to
// retain.
func DecodeBinary(data []byte) (Value, int, error) {
	n, err := SkipBinary(data)
	if err != nil {
		return Value{}, 0, err
	}
	v, _ := buildBinary(data)
	return v, n, nil
}

// MaxDepth bounds container nesting: no value sits inside more than
// MaxDepth arrays and objects. Every entrance enforces it — the JSON
// parser, and SkipBinary (so corrupt counts cannot recurse unboundedly),
// which every reader of encoded bytes checks them with, the storage
// write path before logging a batch among them — so whatever is stored
// decodes again.
const MaxDepth = 200

var errTooDeep = fmt.Errorf("adm: value nested deeper than %d", MaxDepth)

// nestsWithin reports whether v nests at most depth containers deep;
// v.nestsWithin(MaxDepth) is exactly SkipBinary's verdict on v's
// encoding.
func (v Value) nestsWithin(depth int) bool {
	if depth < 0 {
		return false
	}
	switch v.kind {
	case KindArray:
		for _, e := range v.arr {
			if !e.nestsWithin(depth - 1) {
				return false
			}
		}
	case KindObject:
		if v.isView() {
			// Skipping nests at depth d exactly when nestsWithin(MaxDepth-d).
			_, err := skipBinary(v.encoded(), MaxDepth-depth)
			return err == nil
		}
		if v.obj != nil {
			for _, f := range v.obj.values {
				if !f.nestsWithin(depth - 1) {
					return false
				}
			}
		}
	}
	return true
}

// buildBinary builds the value enc starts with and returns it with the
// bytes it spans, owning its memory. enc must start with a value
// SkipBinary accepted: nothing here checks a tag, a length, a count, a
// range or the depth, and every container is sized from its count.
func buildBinary(enc []byte) (Value, int) { return build(enc, false) }

// build is buildBinary, except that with stable set — enc never changes
// (ViewAlias) — every string and field name it builds aliases enc
// instead of copying it.
func build(enc []byte, stable bool) (Value, int) {
	kind := Kind(enc[0])
	switch kind {
	case KindMissing:
		return Missing(), 1
	case KindNull:
		return Null(), 1
	case KindBoolean:
		return Bool(enc[1] != 0), 2
	case KindInt64, KindDateTime:
		i, n := binary.Varint(enc[1:])
		return Value{kind: kind, i: i}, 1 + n
	case KindDouble:
		return Double(math.Float64frombits(binary.LittleEndian.Uint64(enc[1:]))), 9
	case KindString:
		l, n, _ := decodeLen(enc[1:], kind)
		return String(stringAt(enc[1+n:1+n+l], stable)), 1 + n + l
	case KindDuration:
		months, n := binary.Varint(enc[1:])
		millis, m := binary.Varint(enc[1+n:])
		return Duration(int32(months), millis), 1 + n + m
	case KindPoint, KindRectangle, KindCircle:
		geo, coords := readGeo(enc)
		return Value{kind: kind, geo: &geo}, 1 + 8*coords
	case KindArray:
		count, n, _ := decodeLen(enc[1:], kind)
		pos := 1 + n
		if count == 0 {
			return EmptyArray(), pos
		}
		elems := make([]Value, count)
		for i := range elems {
			elems[i], n = build(enc[pos:], stable)
			pos += n
		}
		return Array(elems), pos
	}
	count, n, _ := decodeLen(enc[1:], KindObject)
	pos := 1 + n
	obj := NewObject(count)
	for range count {
		l, n, _ := decodeLen(enc[pos:], KindObject)
		name := stringAt(enc[pos+n:pos+n+l], stable)
		pos += n + l
		v, vn := build(enc[pos:], stable)
		obj.Set(name, v)
		pos += vn
	}
	return ObjectValue(obj), pos
}

// readGeo reads the coordinates of the point, rectangle or circle enc
// starts with.
func readGeo(enc []byte) (geo [4]float64, coords int) {
	coords = geoCoords(Kind(enc[0]))
	for i := range coords {
		geo[i] = math.Float64frombits(binary.LittleEndian.Uint64(enc[1+8*i:]))
	}
	return geo, coords
}

// geoCoords is the number of coordinates a spatial kind carries.
func geoCoords(k Kind) int {
	switch k {
	case KindRectangle:
		return 4
	case KindCircle:
		return 3
	}
	return 2
}

// stringAt returns b as a string: aliasing b when it is stable, else a
// copy. An empty string is "" either way, pinning nothing.
func stringAt(b []byte, stable bool) string {
	if stable && len(b) > 0 {
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return string(b)
}

// stringBytes returns the payload of the string enc encodes.
func stringBytes(enc []byte) []byte {
	l, n, _ := decodeLen(enc[1:], KindString)
	return enc[1+n : 1+n+l]
}

// varintOf returns the int64 enc encodes (as SkipBinary accepts it): a
// zigzag varint after the tag, read without binary.Varint's bound and
// overflow checks, which SkipBinary has made. The shift count is masked
// to 63, which no varint SkipBinary accepts exceeds, so the compiler
// emits no check for a larger count: this runs twice in every
// comparison of two encoded int64 keys.
func varintOf(enc []byte) int64 {
	var u uint64
	var shift uint
	for _, c := range enc[1:] {
		u |= uint64(c&0x7f) << (shift & 63)
		if c < 0x80 {
			break
		}
		shift += 7
	}
	return int64(u>>1) ^ -int64(u&1)
}

// CompareEncoded is Compare(a, b) for the values a and b encode (each
// as SkipBinary accepts it): the one order of storage's encoded keys —
// a memtable's tree, a batch's sort, every merge, a run's fences, block
// index and blocks, and a secondary index's entries. Two int64s or two
// strings are compared where they lie; any other pair is built and
// compared by value, so 7 and 7.0 are one key.
func CompareEncoded(a, b []byte) int {
	if a[0] == b[0] {
		switch Kind(a[0]) {
		case KindInt64:
			return cmpInt64(varintOf(a), varintOf(b))
		case KindString:
			return bytes.Compare(stringBytes(a), stringBytes(b))
		}
	}
	return Compare(ViewAlias(a), ViewAlias(b))
}

// SkipBinary returns the encoded length of the value at the front of
// data without building it, or why data does not start with one. It is
// the one statement of what a valid encoding is — kind tags, length and
// count bounds, the duration range and the nesting limit: DecodeBinary
// builds only what it accepted, and bytes it passes over can be moved as
// they are, read as a View, compared where they lie, and will decode
// later.
func SkipBinary(data []byte) (int, error) {
	return skipBinary(data, 0)
}

func skipBinary(data []byte, depth int) (int, error) {
	if depth > MaxDepth {
		return 0, errTooDeep
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("adm: truncated binary value: missing kind tag")
	}
	kind := Kind(data[0])
	pos := 1
	// fixed is the payload width of the fixed-size kinds.
	fixed := -1
	switch kind {
	case KindMissing, KindNull:
		fixed = 0
	case KindBoolean:
		fixed = 1
	case KindDouble:
		fixed = 8
	case KindPoint, KindRectangle, KindCircle:
		fixed = 8 * geoCoords(kind)
	case KindInt64, KindDateTime:
		_, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, errTruncated(kind)
		}
		return pos + n, nil
	case KindDuration:
		months, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, errTruncated(kind)
		}
		pos += n
		_, n = binary.Varint(data[pos:])
		if n <= 0 {
			return 0, errTruncated(kind)
		}
		if months < math.MinInt32 || months > math.MaxInt32 {
			return 0, fmt.Errorf("adm: binary duration months %d out of range", months)
		}
		return pos + n, nil
	case KindString:
		l, n, err := decodeLen(data[pos:], kind)
		if err != nil {
			return 0, err
		}
		pos += n
		fixed = l
	case KindArray, KindObject:
		count, n, err := decodeLen(data[pos:], kind)
		if err != nil {
			return 0, err
		}
		pos += n
		// Every element takes at least one byte.
		if count > len(data)-pos {
			return 0, errTruncated(kind)
		}
		for i := 0; i < count; i++ {
			if kind == KindObject {
				l, n, err := decodeLen(data[pos:], kind)
				if err != nil {
					return 0, err
				}
				pos += n
				if len(data) < pos+l {
					return 0, errTruncated(kind)
				}
				pos += l
			}
			n, err := skipBinary(data[pos:], depth+1)
			if err != nil {
				return 0, err
			}
			pos += n
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("adm: unknown binary kind tag 0x%02x", byte(kind))
	}
	if len(data) < pos+fixed {
		return 0, errTruncated(kind)
	}
	return pos + fixed, nil
}

func decodeLen(data []byte, kind Kind) (int, int, error) {
	if len(data) > 0 && data[0] < 0x80 {
		return int(data[0]), 1, nil // field names, counts, short strings: one byte
	}
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errTruncated(kind)
	}
	if u > math.MaxInt32 {
		return 0, 0, fmt.Errorf("adm: binary %s length %d out of range", kind, u)
	}
	return int(u), n, nil
}

func errTruncated(kind Kind) error {
	return fmt.Errorf("adm: truncated binary %s payload", kind)
}
