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
//   - Field walks the encoding to the named field. An object field comes
//     back as a sub-view; any other field is decoded as DecodeBinary
//     would, except that on a view of bytes that never change
//     (ViewAlias: storage's) a string field, and every string inside an
//     array field, aliases those bytes instead of being copied. A
//     sub-view keeps its view's kind. The last of several fields with
//     one name wins, as Object.Set lets it.
//   - AppendBinary copies the bytes.
//   - AppendJSON transcodes the bytes: names, strings and numbers are
//     written from where they lie, a datetime formatted straight into
//     the output, and nothing is decoded (appendJSONObject).
//   - ObjectVal, Compare, Hash, String decode the whole object
//     into a fresh value nothing else shares (its strings and names
//     alias the bytes, as Field's do, on a ViewAlias view). Nothing is
//     memoised: a view is immutable and safe to read from any number of
//     goroutines.
//
// The bytes are checked once, by SkipBinary, when View's caller loads
// them. Nothing here checks them again: every operation on a view
// trusts that verdict — it walks the fields with no error branch and
// builds what it returns with build — so none fails, and a view of
// bytes nothing checked is a bug in the code that made it. A view lives
// as long as the bytes it aliases stay as they are.
//
// Two kinds of view differ in what they hand up. Storage's bytes — a
// run block, a batch buffer a memtable keeps — never change, so storage
// makes its views with ViewAlias, and a string read out of one shares
// those bytes: a scan that reads a string field allocates nothing for
// it. Retaining such a view or string is always correct, but keeps the
// whole buffer the bytes are part of alive, so a holder that outlives a
// statement keeps Detached() instead, which copies every byte it
// reaches. A view over a buffer that is reused — a row the driver reads
// off the wire (wire.BatchReader), whose read buffer the next frame
// overwrites; a record the feed's collector reads off its scratch or
// slab — is made with View, and every string read out of it is a copy.

// View returns the value enc encodes. enc must be exactly one value
// SkipBinary accepts, and must not change while the result is in use.
// An object is not decoded: the result is a view aliasing enc, whose
// strings are copies. Any other kind is built as DecodeBinary builds it,
// without checking enc again, and owns its memory.
func View(enc []byte) Value { return view(enc, false) }

// ViewAlias is View over bytes that never change: every string the
// result hands up — itself, an object's field, an element of an array
// field, at any depth — aliases enc instead of being copied. Storage
// makes the keys and records it hands up this way, so a scan allocates
// neither a key nor a string field it reads.
func ViewAlias(enc []byte) Value { return view(enc, true) }

func view(enc []byte, stable bool) Value {
	if Kind(enc[0]) == KindObject {
		return Value{kind: KindObject, stable: stable, s: unsafe.String(&enc[0], len(enc))}
	}
	v, _ := build(enc, stable)
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
	d, _ := build(v.encoded(), v.stable)
	return d.obj
}

// Detached returns a deep copy of v that keeps nothing else alive: a
// view over a private copy of its bytes (which never change, so its
// strings alias them), a string copied, an array or object rebuilt
// from detached elements. Scalars are returned as they are.
func (v Value) Detached() Value {
	switch {
	case v.isView():
		v.s, v.stable = strings.Clone(v.s), true
	case v.kind == KindString:
		v.s = strings.Clone(v.s)
	case v.kind == KindArray && len(v.arr) > 0:
		arr := make([]Value, len(v.arr))
		for i, e := range v.arr {
			arr[i] = e.Detached()
		}
		v.arr = arr
	case v.kind == KindObject && v.obj != nil:
		o := NewObject(v.obj.Len())
		for i, name := range v.obj.names {
			o.Set(strings.Clone(name), v.obj.values[i].Detached())
		}
		v.obj = o
	}
	return v
}

// DetachedInto is Detached that copies a view's bytes into buf, reusing
// its memory when it has the room, and returns the buffer it used; any
// other value is Detached. The result aliases buf, which the caller must
// not rewrite while it keeps the result: a holder that replaces what it
// keeps one value at a time (the top-k heap's slots) copies each into
// the buffer of the value it drops.
func (v Value) DetachedInto(buf []byte) (Value, []byte) {
	if !v.isView() {
		return v.Detached(), buf
	}
	buf = append(buf[:0], v.s...)
	return ViewAlias(buf), buf
}

// IsView reports whether v is a view: an object that is its encoding,
// and so holds no value of its own — no array, no object, nothing a
// copy of its bytes would not carry.
func (v Value) IsView() bool { return v.isView() }

// FieldEncoding returns the encoding of v's field name, aliasing v's
// bytes, when v is a view that has the field; else nil. A point lookup
// probes with the bytes as they lie (a record's key read off it), and
// ViewAlias of them is the field, for as long as v's bytes stay as they
// are.
func (v Value) FieldEncoding(name string) []byte {
	if !v.isView() {
		return nil
	}
	at, size := v.fieldAt(name)
	if at < 0 {
		return nil
	}
	return v.encoded()[at : at+size]
}

// viewField is Field on a view.
func (v Value) viewField(name string) Value {
	at, size := v.fieldAt(name)
	if at < 0 {
		return missingValue
	}
	data := v.encoded()
	if Kind(data[at]) == KindObject {
		return Value{kind: KindObject, stable: v.stable, s: v.s[at : at+size]}
	}
	f, _ := build(data[at:], v.stable)
	return f
}

// fieldAt finds a view's field name in one pass over the object's
// fields, comparing names in place and stepping over values: the offset
// of its value's encoding and the bytes that spans, or -1 when absent.
func (v Value) fieldAt(name string) (at, size int) {
	data := v.encoded()
	count, n, _ := decodeLen(data[1:], KindObject)
	pos := 1 + n
	at = -1
	for range count {
		l, n, _ := decodeLen(data[pos:], KindObject)
		match := string(data[pos+n:pos+n+l]) == name
		pos += n + l
		vn, _ := skipBinary(data[pos:], 0)
		if match {
			at, size = pos, vn
		}
		pos += vn
	}
	return at, size
}

// appendJSONBinary appends the JSON of the value enc starts with, which
// SkipBinary has accepted, and returns the bytes that value spans.
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
	case KindPoint, KindRectangle, KindCircle:
		geo, coords := readGeo(enc)
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
	v, n := buildBinary(enc)
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
		names = p.Val.appendFieldNames(names)
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
func (v Value) appendFieldNames(names []string) []string {
	enc := v.encoded()
	count, n, _ := decodeLen(enc[1:], KindObject)
	pos := 1 + n
	for range count {
		l, n, _ := decodeLen(enc[pos:], KindObject)
		names = append(names, v.s[pos+n:pos+n+l])
		pos += n + l
		vn, _ := skipBinary(enc[pos:], 0)
		pos += vn
	}
	return names
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
