package adm

import (
	"hash/maphash"
	"math"
)

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

// Less reports whether a sorts strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

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

var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the value consistent with Compare
// equality: Equal(a, b) implies Hash(a) == Hash(b). It backs the hash
// join tables and the M:N hash partitioner.
func Hash(v Value) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	hashInto(&h, v)
	return h.Sum64()
}

func hashInto(h *maphash.Hash, v Value) {
	switch v.kind {
	case KindMissing:
		h.WriteByte(0)
	case KindNull:
		h.WriteByte(1)
	case KindBoolean:
		h.WriteByte(2)
		h.WriteByte(byte(v.i))
	case KindInt64, KindDouble:
		// Numeric promotion: 3 and 3.0 must hash identically.
		h.WriteByte(3)
		f, _ := v.AsDouble()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			writeUint64(h, uint64(int64(f)))
		} else {
			writeUint64(h, math.Float64bits(f))
		}
	case KindString:
		h.WriteByte(4)
		h.WriteString(v.s)
	case KindDateTime:
		h.WriteByte(5)
		writeUint64(h, uint64(v.i))
	case KindDuration:
		h.WriteByte(6)
		writeUint64(h, uint64(v.aux))
		writeUint64(h, uint64(v.i))
	case KindPoint, KindRectangle, KindCircle:
		h.WriteByte(7 + byte(v.kind-KindPoint))
		if v.geo != nil {
			for _, f := range v.geo {
				writeUint64(h, math.Float64bits(f))
			}
		}
	case KindArray:
		h.WriteByte(10)
		for _, e := range v.arr {
			hashInto(h, e)
		}
	case KindObject:
		h.WriteByte(11)
		if o := v.object(); o != nil {
			for i := 0; i < o.Len(); i++ {
				h.WriteString(o.Name(i))
				hashInto(h, o.At(i))
			}
		}
	}
}

func writeUint64(h *maphash.Hash, u uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
