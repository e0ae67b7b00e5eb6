package adm

import (
	"encoding/binary"
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
//   - ObjectVal, Compare, Hash, AppendJSON, Clone, String decode the whole
//     object into a fresh value nothing else shares. Nothing is memoised:
//     a view is immutable and safe to read from any number of goroutines.
//
// The bytes are checked once, when View's caller loads them; after that
// no operation on the view fails or panics. Retaining a view is always
// correct — the bytes it aliases are immutable and garbage-collected —
// but keeps the whole buffer they are part of alive; a long-lived holder
// keeps Detached() instead.

// View returns the value enc encodes. enc must be exactly one value
// SkipBinary accepts, and must never change afterwards. An object is not
// decoded: the result is a view aliasing enc. Any other kind decodes as
// DecodeBinary does and owns its memory.
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
