package adm

import (
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
	case KindPoint:
		dst = appendGeo(dst, v.geo, 2)
	case KindCircle:
		dst = appendGeo(dst, v.geo, 3)
	case KindRectangle:
		dst = appendGeo(dst, v.geo, 4)
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
	case KindPoint:
		return 17
	case KindCircle:
		return 25
	case KindRectangle:
		return 33
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
// value and the number of bytes consumed. Decoded values own their
// memory (string payloads are copied), so they are safe to retain —
// recovery replay feeds them straight into the memtable.
func DecodeBinary(data []byte) (Value, int, error) {
	v, n, err := decodeBinary(data, 0)
	if err != nil {
		return Value{}, 0, err
	}
	return v, n, nil
}

// MaxDepth bounds container nesting: no value sits inside more than
// MaxDepth arrays and objects. Every entrance enforces it — the JSON
// parser, and DecodeBinary/SkipBinary (so corrupt counts cannot recurse
// unboundedly), which are also what the storage write path reads a batch
// with before logging it — so whatever is stored decodes again.
const MaxDepth = 200

var errTooDeep = fmt.Errorf("adm: value nested deeper than %d", MaxDepth)

// nestsWithin reports whether v nests at most depth containers deep;
// v.nestsWithin(MaxDepth) is exactly DecodeBinary's verdict on v's
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
			// Decoding nests at depth d exactly when nestsWithin(MaxDepth-d).
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

// maxDecodePrealloc caps the capacity a container's count may reserve
// before its elements are decoded; append follows the elements actually
// present. A count is bounded only by the bytes left, at every nesting
// level, so trusting it would let a crafted payload ask for MaxDepth
// times its own length in Values before failing as truncated.
const maxDecodePrealloc = 64

func decodeBinary(data []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, errTooDeep
	}
	if len(data) == 0 {
		return Value{}, 0, fmt.Errorf("adm: truncated binary value: missing kind tag")
	}
	kind := Kind(data[0])
	pos := 1
	switch kind {
	case KindMissing:
		return Missing(), pos, nil
	case KindNull:
		return Null(), pos, nil
	case KindBoolean:
		if len(data) < pos+1 {
			return Value{}, 0, errTruncated(kind)
		}
		return Bool(data[pos] != 0), pos + 1, nil
	case KindInt64, KindDateTime:
		i, n := binary.Varint(data[pos:])
		if n <= 0 {
			return Value{}, 0, errTruncated(kind)
		}
		return Value{kind: kind, i: i}, pos + n, nil
	case KindDouble:
		if len(data) < pos+8 {
			return Value{}, 0, errTruncated(kind)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		return Double(f), pos + 8, nil
	case KindString:
		l, n, err := decodeLen(data[pos:], kind)
		if err != nil {
			return Value{}, 0, err
		}
		pos += n
		if len(data) < pos+l {
			return Value{}, 0, errTruncated(kind)
		}
		return String(string(data[pos : pos+l])), pos + l, nil
	case KindDuration:
		months, n := binary.Varint(data[pos:])
		if n <= 0 {
			return Value{}, 0, errTruncated(kind)
		}
		pos += n
		millis, n := binary.Varint(data[pos:])
		if n <= 0 {
			return Value{}, 0, errTruncated(kind)
		}
		if months < math.MinInt32 || months > math.MaxInt32 {
			return Value{}, 0, fmt.Errorf("adm: binary duration months %d out of range", months)
		}
		return Duration(int32(months), millis), pos + n, nil
	case KindPoint, KindCircle, KindRectangle:
		coords := 2
		if kind == KindCircle {
			coords = 3
		} else if kind == KindRectangle {
			coords = 4
		}
		if len(data) < pos+8*coords {
			return Value{}, 0, errTruncated(kind)
		}
		var geo [4]float64
		for i := 0; i < coords; i++ {
			geo[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
		return Value{kind: kind, geo: &geo}, pos, nil
	case KindArray:
		count, n, err := decodeLen(data[pos:], kind)
		if err != nil {
			return Value{}, 0, err
		}
		pos += n
		if count == 0 {
			return EmptyArray(), pos, nil
		}
		// A corrupt count could claim more elements than the buffer can
		// possibly hold (each takes >= 1 byte).
		if count > len(data)-pos {
			return Value{}, 0, errTruncated(kind)
		}
		elems := make([]Value, 0, min(count, maxDecodePrealloc))
		for i := 0; i < count; i++ {
			e, n, err := decodeBinary(data[pos:], depth+1)
			if err != nil {
				return Value{}, 0, err
			}
			elems = append(elems, e)
			pos += n
		}
		return Array(elems), pos, nil
	case KindObject:
		count, n, err := decodeLen(data[pos:], kind)
		if err != nil {
			return Value{}, 0, err
		}
		pos += n
		if count > len(data)-pos {
			return Value{}, 0, errTruncated(kind)
		}
		obj := NewObject(min(count, maxDecodePrealloc))
		for i := 0; i < count; i++ {
			l, n, err := decodeLen(data[pos:], kind)
			if err != nil {
				return Value{}, 0, err
			}
			pos += n
			if len(data) < pos+l {
				return Value{}, 0, errTruncated(kind)
			}
			name := string(data[pos : pos+l])
			pos += l
			fv, n, err := decodeBinary(data[pos:], depth+1)
			if err != nil {
				return Value{}, 0, err
			}
			obj.Set(name, fv)
			pos += n
		}
		return ObjectValue(obj), pos, nil
	}
	return Value{}, 0, fmt.Errorf("adm: unknown binary kind tag 0x%02x", byte(kind))
}

// DecodeBinaryAlias is DecodeBinary for a caller that reads the value
// only while data is unchanged: a top-level string aliases data instead
// of copying it. Every other kind decodes exactly as DecodeBinary does.
// The storage write path and the compaction merge decode each entry's
// key this way, so reading a string key costs no allocation per record.
func DecodeBinaryAlias(data []byte) (Value, int, error) {
	if len(data) == 0 || Kind(data[0]) != KindString {
		return DecodeBinary(data)
	}
	l, n, err := decodeLen(data[1:], KindString)
	if err != nil {
		return Value{}, 0, err
	}
	pos := 1 + n
	if len(data) < pos+l {
		return Value{}, 0, errTruncated(KindString)
	}
	if l == 0 {
		return String(""), pos, nil
	}
	return String(unsafe.String(&data[pos], l)), pos + l, nil
}

// CompareBinary is Compare(a, v) for the value a that enc encodes (enc
// as SkipBinary accepts it). When both are int64s or both strings — the
// kinds primary keys have — a is compared where it lies; a block's key
// search builds no Value per probe.
func CompareBinary(enc []byte, v Value) int {
	if len(enc) > 1 && Kind(enc[0]) == v.kind {
		switch v.kind {
		case KindInt64:
			i, _ := binary.Varint(enc[1:])
			return cmpInt64(i, v.i)
		case KindString:
			if l, n, err := decodeLen(enc[1:], KindString); err == nil && len(enc)-1-n >= l {
				a := enc[1+n : 1+n+l]
				switch {
				case string(a) < v.s:
					return -1
				case string(a) > v.s:
					return 1
				}
				return 0
			}
		}
	}
	a, _, _ := DecodeBinaryAlias(enc)
	return Compare(a, v)
}

// SkipBinary returns the encoded length of the value at the front of
// data without building it. It accepts exactly the inputs DecodeBinary
// accepts — the same kind tags, length and count bounds, duration range
// and nesting limit — so bytes it passes over can be moved as they are
// and will decode later.
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
	case KindPoint:
		fixed = 16
	case KindCircle:
		fixed = 24
	case KindRectangle:
		fixed = 32
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
