package adm

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// A view is an object Value that carries its binary encoding instead of
// an *Object: kind is KindObject, obj is nil and s holds the encoded
// bytes, kind tag included (an encoded object is never empty, so no
// other object has a non-empty s). Storage hands a stored record up as a
// view over the run-file block it lies in, and the record is decoded one
// field at a time, when and if something asks:
//
//   - Field walks the encoding to the named field. A scalar or array
//     field is decoded owning its memory, as DecodeBinary does; an object
//     field comes back as a sub-view. The last of several fields with one
//     name wins, as Object.Set lets it.
//   - AppendBinary copies the bytes.
//   - AppendJSON transcodes the bytes: names, strings and numbers are
//     written from where they lie, a datetime formatted straight into
//     the output, and nothing is decoded (appendJSONView).
//   - ObjectVal, Compare, Hash, Clone, String decode the whole object
//     into a fresh value nothing else shares. Nothing is memoised: a
//     view is immutable and safe to read from any number of goroutines.
//
// The bytes are checked once, when View's caller loads them; after that
// no operation on the view fails or panics. A view lives as long as the
// bytes it aliases stay as they are. Storage's never change: retaining
// one of its views is always correct, but keeps the whole buffer the
// bytes are part of alive, so a long-lived holder keeps Detached()
// instead. A row the driver reads off the wire (wire.BatchReader) is a
// view of a read buffer that the next frame overwrites, and is rendered
// as JSON before then.

// View returns the value enc encodes. enc must be exactly one value
// SkipBinary accepts, and must not change while the result is in use.
// An object is not decoded: the result is a view aliasing enc. Any other
// kind decodes as DecodeBinary does and owns its memory.
func View(enc []byte) Value {
	if len(enc) > 0 && Kind(enc[0]) == KindObject {
		return Value{kind: KindObject, s: unsafe.String(&enc[0], len(enc))}
	}
	v, _, _ := DecodeBinary(enc)
	return v
}

func (v Value) isView() bool {
	return v.kind == KindObject && v.obj == nil && len(v.s) > 0
}

// ViewAt reports whether v is a view of enc[off:] — its bytes start at
// enc[off] and end inside enc — and how many bytes it spans. Storage asks
// it to take a frame's records as the very bytes the frame carries.
func ViewAt(v Value, enc []byte, off int) (n int, ok bool) {
	if !v.isView() || off < 0 || off >= len(enc) || len(v.s) > len(enc)-off ||
		unsafe.StringData(v.s) != &enc[off] {
		return 0, false
	}
	return len(v.s), true
}

// encoded returns a view's bytes. They back a string: read-only.
func (v Value) encoded() []byte {
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// object returns the fields of an object value — a view's decoded, into
// an Object of its own — or nil when there are none.
func (v Value) object() *Object {
	if !v.isView() {
		return v.obj
	}
	d, _, _ := decodeBinary(v.encoded(), 0)
	return d.obj
}

// Detached returns v, or for a view an equal view over a private copy of
// its bytes, so that keeping it keeps nothing else alive.
func (v Value) Detached() Value {
	if v.isView() {
		v.s = strings.Clone(v.s)
	}
	return v
}

// viewField is Field on a view: one pass over the object's fields,
// comparing names in place and stepping over values.
func (v Value) viewField(name string) Value {
	data := v.encoded()
	count, n, err := decodeLen(data[1:], KindObject)
	if err != nil {
		return missingValue
	}
	pos := 1 + n
	at, size := -1, 0
	for i := 0; i < count; i++ {
		l, n, err := decodeLen(data[pos:], KindObject)
		if err != nil || len(data)-pos-n < l {
			return missingValue
		}
		pos += n
		match := string(data[pos:pos+l]) == name
		pos += l
		vn, err := skipBinary(data[pos:], 0)
		if err != nil {
			return missingValue
		}
		if match {
			at, size = pos, vn
		}
		pos += vn
	}
	if at < 0 {
		return missingValue
	}
	if Kind(data[at]) == KindObject {
		return Value{kind: KindObject, s: v.s[at : at+size]}
	}
	f, _, _ := decodeBinary(data[at:at+size], 0)
	return f
}

// appendJSONView is AppendJSON on a view: the JSON of the object its
// bytes decode to, written from the bytes. Bytes that do not decode
// write {}, as the object decoding them yields (nil) does.
func appendJSONView(dst, enc []byte) []byte {
	if _, err := skipBinary(enc, 0); err != nil {
		return append(dst, "{}"...)
	}
	dst, _ = appendJSONBinary(dst, enc)
	return dst
}

// appendJSONBinary appends the JSON of the value enc starts with, which
// skipBinary has accepted, and returns the bytes that value spans.
func appendJSONBinary(dst, enc []byte) ([]byte, int) {
	kind := Kind(enc[0])
	switch kind {
	case KindMissing, KindNull:
		return append(dst, "null"...), 1
	case KindBoolean:
		return appendJSONBool(dst, enc[1] != 0), 2
	case KindInt64:
		i, n := binary.Varint(enc[1:])
		return strconv.AppendInt(dst, i, 10), 1 + n
	case KindDateTime:
		ms, n := binary.Varint(enc[1:])
		return appendJSONDateTime(dst, ms), 1 + n
	case KindDouble:
		return appendJSONDouble(dst, math.Float64frombits(binary.LittleEndian.Uint64(enc[1:]))), 9
	case KindString:
		l, n, _ := decodeLen(enc[1:], kind)
		return appendJSONString(dst, enc[1+n:1+n+l]), 1 + n + l
	case KindDuration:
		months, n := binary.Varint(enc[1:])
		millis, m := binary.Varint(enc[1+n:])
		return appendJSONDuration(dst, int32(months), millis), 1 + n + m
	case KindPoint, KindCircle, KindRectangle:
		coords := 2
		if kind == KindCircle {
			coords = 3
		} else if kind == KindRectangle {
			coords = 4
		}
		var geo [4]float64
		for i := range coords {
			geo[i] = math.Float64frombits(binary.LittleEndian.Uint64(enc[1+8*i:]))
		}
		return appendJSONCoords(dst, &geo, coords), 1 + 8*coords
	case KindArray:
		count, n, _ := decodeLen(enc[1:], kind)
		pos := 1 + n
		dst = append(dst, '[')
		for i := 0; i < count; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			var en int
			dst, en = appendJSONBinary(dst, enc[pos:])
			pos += en
		}
		return append(dst, ']'), pos
	}
	return appendJSONObject(dst, enc)
}

// maxTranscodedFields is the widest object appendJSONObject compares
// names across; a row is a handful of fields.
const maxTranscodedFields = 32

// appendJSONObject transcodes an encoded object one field at a time.
// Object.Set keeps a repeated name at its first position with its last
// value, which a single pass cannot know when it writes the first: an
// object whose names repeat (no encoder here writes one) or that is
// wider than maxTranscodedFields is decoded and written as that Object.
func appendJSONObject(dst, enc []byte) ([]byte, int) {
	count, n, _ := decodeLen(enc[1:], KindObject)
	if count > maxTranscodedFields {
		return appendJSONDecoded(dst, enc)
	}
	start, pos := len(dst), 1+n
	var names [maxTranscodedFields]string
	dst = append(dst, '{')
	for i := 0; i < count; i++ {
		l, n, _ := decodeLen(enc[pos:], KindObject)
		name := enc[pos+n : pos+n+l]
		for _, prev := range names[:i] {
			if prev == string(name) {
				return appendJSONDecoded(dst[:start], enc)
			}
		}
		names[i] = unsafe.String(unsafe.SliceData(name), l)
		pos += n + l
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, name)
		dst = append(dst, ':')
		var vn int
		dst, vn = appendJSONBinary(dst, enc[pos:])
		pos += vn
	}
	return append(dst, '}'), pos
}

func appendJSONDecoded(dst, enc []byte) ([]byte, int) {
	v, n, _ := decodeBinary(enc, 0)
	return AppendJSON(dst, v), n
}

// RowPart is one item of a SELECT clause evaluated for a row: a named
// value, or — Star — an object whose fields take its place (`t.*`).
type RowPart struct {
	Name string // the output field; unused when Star
	Val  Value
	Star bool
}

// AppendRow builds the object a SELECT clause denotes from the encodings
// of its parts: object tag, summed field count, each star source's field
// bytes and each named value's AppendBinary, in order. The row is a
// view, byte for byte the encoding of the object that setting every
// field in turn (Object.Set) would build. ok is false, nothing is
// written, out is dst and the caller builds that object, when there is
// nothing to splice — no star source, or one that is not a view — when a
// name would repeat (Set replaces in place, which bytes cannot), or when
// the row would nest deeper than MaxDepth and so be no valid view.
//
// The bytes go into dst's spare capacity: when dst has room for the
// row, they are written right after dst's, row is a view of them and out
// is dst extended over them. Otherwise the row is given an allocation of
// exactly its size and out is dst as it was. dst is never regrown, so
// views of its earlier bytes stay views of them.
func AppendRow(dst []byte, parts []RowPart) (out []byte, row Value, ok bool) {
	var few [32]string // wider rows take their names from the heap
	names := few[:0]
	size := 0 // the fields' bytes; the object header is added below
	spliced := false
	for _, p := range parts {
		if !p.Star {
			if !p.Val.nestsWithin(MaxDepth - 1) {
				return dst, Value{}, false
			}
			names = append(names, p.Name)
			size += uvarintLen(len(p.Name)) + len(p.Name) + BinarySize(p.Val)
			continue
		}
		if !p.Val.isView() {
			return dst, Value{}, false
		}
		if names, ok = p.Val.appendFieldNames(names); !ok {
			return dst, Value{}, false
		}
		_, n, _ := decodeLen(p.Val.encoded()[1:], KindObject)
		size += len(p.Val.s) - 1 - n
		spliced = true
	}
	if !spliced || !distinct(names) {
		return dst, Value{}, false
	}
	size += 1 + uvarintLen(len(names))
	var enc []byte
	inPlace := cap(dst)-len(dst) >= size
	if inPlace {
		enc = dst[len(dst) : len(dst) : len(dst)+size]
	} else {
		enc = make([]byte, 0, size)
	}
	enc = append(enc, byte(KindObject))
	enc = binary.AppendUvarint(enc, uint64(len(names)))
	for _, p := range parts {
		if p.Star {
			src := p.Val.encoded()
			_, n, _ := decodeLen(src[1:], KindObject)
			enc = append(enc, src[1+n:]...)
			continue
		}
		enc = binary.AppendUvarint(enc, uint64(len(p.Name)))
		enc = append(enc, p.Name...)
		enc = AppendBinary(enc, p.Val)
	}
	if inPlace {
		dst = dst[:len(dst)+len(enc)]
	}
	return dst, View(enc), true
}

// appendFieldNames appends the field names of a view, aliasing it.
func (v Value) appendFieldNames(names []string) ([]string, bool) {
	enc := v.encoded()
	count, n, err := decodeLen(enc[1:], KindObject)
	if err != nil {
		return names, false
	}
	pos := 1 + n
	for i := 0; i < count; i++ {
		l, n, err := decodeLen(enc[pos:], KindObject)
		if err != nil || len(enc)-pos-n < l {
			return names, false
		}
		pos += n
		names = append(names, v.s[pos:pos+l])
		pos += l
		vn, err := skipBinary(enc[pos:], 0)
		if err != nil {
			return names, false
		}
		pos += vn
	}
	return names, true
}

// distinct reports whether no name occurs twice. Rows are a handful of
// fields wide, so every pair is compared.
func distinct(names []string) bool {
	for i, a := range names {
		for _, b := range names[:i] {
			if a == b {
				return false
			}
		}
	}
	return true
}
