package adm

import "math"

// kindRank maps each kind to its position in the cross-kind total order.
// Numerics share a rank so int64 and double interleave numerically,
// matching SQL++ comparison semantics.
var kindRank = [numKinds]int{
	KindMissing:   0,
	KindNull:      1,
	KindBoolean:   2,
	KindInt64:     3,
	KindDouble:    3,
	KindString:    4,
	KindDateTime:  5,
	KindDuration:  6,
	KindPoint:     7,
	KindRectangle: 8,
	KindCircle:    9,
	KindArray:     10,
	KindObject:    11,
}

// Compare imposes a total order over all ADM values: MISSING < NULL <
// booleans < numerics < strings < datetimes < durations < spatial types
// < arrays < objects. Within numerics, int64 and double compare by
// numeric value. Arrays compare lexicographically; objects compare by
// sorted field name/value pairs. The order is what the B-tree, the sort
// operator, and ORDER BY all use.
func Compare(a, b Value) int {
	ra, rb := kindRank[a.kind], kindRank[b.kind]
	if ra != rb {
		return cmpInt(ra, rb)
	}
	switch a.kind {
	case KindMissing, KindNull:
		return 0
	case KindBoolean:
		return cmpInt64(a.i, b.i)
	case KindInt64, KindDouble:
		if a.kind == KindInt64 && b.kind == KindInt64 {
			return cmpInt64(a.i, b.i)
		}
		af, _ := a.AsDouble()
		bf, _ := b.AsDouble()
		return cmpFloat(af, bf)
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case KindDateTime:
		return cmpInt64(a.i, b.i)
	case KindDuration:
		// Order by an approximate absolute length: months as 30 days.
		am := int64(a.aux)*30*24*3600*1000 + a.i
		bm := int64(b.aux)*30*24*3600*1000 + b.i
		return cmpInt64(am, bm)
	case KindPoint, KindRectangle, KindCircle:
		return cmpGeo(a.geo, b.geo)
	case KindArray:
		n := min(len(a.arr), len(b.arr))
		for i := 0; i < n; i++ {
			if c := Compare(a.arr[i], b.arr[i]); c != 0 {
				return c
			}
		}
		return cmpInt(len(a.arr), len(b.arr))
	case KindObject:
		return compareObjects(a.object(), b.object())
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func compareObjects(a, b *Object) int {
	an, bn := 0, 0
	if a != nil {
		an = a.Len()
	}
	if b != nil {
		bn = b.Len()
	}
	if c := cmpInt(an, bn); c != 0 {
		return c
	}
	// Compare field-by-field in each object's own order; objects with
	// identical layout (the overwhelmingly common case in a dataset)
	// compare correctly and cheaply. Differing layouts still produce a
	// deterministic order.
	for i := 0; i < an; i++ {
		switch {
		case a.Name(i) < b.Name(i):
			return -1
		case a.Name(i) > b.Name(i):
			return 1
		}
		if c := Compare(a.At(i), b.At(i)); c != 0 {
			return c
		}
	}
	return 0
}

func cmpGeo(a, b *[4]float64) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	for i := 0; i < 4; i++ {
		if c := cmpFloat(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// NaNs sort after everything, deterministically.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

// Hash returns a 64-bit hash of the value consistent with Compare
// equality: Equal(a, b) implies Hash(a) == Hash(b). It backs the hash
// join tables and every partitioner — including the one that decides
// which storage partition holds a primary key, so the value must not
// change between processes: a key routed elsewhere after a restart would
// miss its record and leave two live versions on the next upsert. It is
// a fixed-seed hash, finished with splitmix64's avalanche so that
// Hash % partitions stays balanced.
func Hash(v Value) uint64 {
	h := hasher(hashSeed)
	h.value(v)
	z := uint64(h)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

const (
	hashSeed = 0x243f6a8885a308d3 // pi's fraction: any fixed value
	hashMul  = 0x9e3779b97f4a7c15 // odd, so each step is a bijection
)

// hasher folds 64-bit words into its state: xor, multiply by an odd
// constant, then fold the high half down so later words mix with every
// bit of earlier ones.
type hasher uint64

func (h *hasher) word(u uint64) {
	x := (uint64(*h) ^ u) * hashMul
	*h = hasher(x ^ x>>32)
}

// string folds s eight bytes at a time; the last word carries the tail
// and its length.
func (h *hasher) string(s string) {
	for ; len(s) >= 8; s = s[8:] {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	tail := uint64(len(s)) << 56
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	h.word(tail)
}

func (h *hasher) value(v Value) {
	switch v.kind {
	case KindMissing:
		h.word(0)
	case KindNull:
		h.word(1)
	case KindBoolean:
		h.word(2)
		h.word(uint64(v.i))
	case KindInt64, KindDouble:
		// Numeric promotion: 3 and 3.0 must hash identically.
		h.word(3)
		f, _ := v.AsDouble()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			h.word(uint64(int64(f)))
		} else {
			h.word(math.Float64bits(f))
		}
	case KindString:
		h.word(4)
		h.string(v.s)
	case KindDateTime:
		h.word(5)
		h.word(uint64(v.i))
	case KindDuration:
		h.word(6)
		h.word(uint64(v.aux))
		h.word(uint64(v.i))
	case KindPoint, KindRectangle, KindCircle:
		h.word(7 + uint64(v.kind-KindPoint))
		if v.geo != nil {
			for _, f := range v.geo {
				h.word(math.Float64bits(f))
			}
		}
	case KindArray:
		h.word(10)
		for _, e := range v.arr {
			h.value(e)
		}
	case KindObject:
		h.word(11)
		if o := v.object(); o != nil {
			for i := 0; i < o.Len(); i++ {
				h.string(o.Name(i))
				h.value(o.At(i))
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
