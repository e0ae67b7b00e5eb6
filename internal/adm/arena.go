package adm

import "unsafe"

// Arena is a frame-scoped allocation region for parsed record payloads:
// string bytes, field-name bytes, Object structs, and object field
// spines all come out of a handful of growable slabs instead of
// individual heap allocations. Parsing a record into an Arena therefore
// costs O(1) allocations amortized over many records, and recycling is
// a single Reset instead of garbage-collecting one small object per
// string.
//
// The trade is a lifetime contract (see docs/ARCHITECTURE.md and the
// hyracks package comment for the normative rules):
//
//   - Every value parsed into an Arena references the arena's memory.
//     The values are valid only while the arena is live and un-Reset.
//   - Reset invalidates every value previously parsed into the arena;
//     reading one afterwards observes whatever bytes the next frame
//     wrote. A consumer that retains a value past the arena's reset
//     must copy it out first with Value.Materialize.
//   - Alternatively the consumer may simply retain the values without
//     resetting the arena (the storage writer does this): the values
//     keep the slabs alive and the garbage collector reclaims them
//     when the last value dies.
//
// An Arena is not safe for concurrent use. In the feed pipeline each
// Arena is owned by exactly one hyracks.Frame at a time, and frame
// ownership transfer (Push) carries the arena with it.
type Arena struct {
	buf   []byte   // current string / raw-record byte slab
	objs  []Object // Object struct slab
	vals  []Value  // object field-value spine slab
	names []string // object field-name spine slab
}

// Slab sizing: slabs start small and double each time one fills, up to
// a cap, so an arena backing a frame of tiny records does not commit
// kilobytes it will never touch (arenas adopted by storage are not
// recycled, so over-allocation would be retained, not pooled). When a
// slab fills mid-frame a fresh one is started and the full one stays
// alive through the values that reference it (Reset only reclaims the
// current slab). The byte slab follows the same rule without the cap
// (see reserve): a pooled arena's byte slab converges on its frames'
// size, and nothing is ever copied from a full slab to its successor.
const (
	minSlabSize = 64
	maxSlabSize = 2048
)

// NewArena returns an arena whose byte buffer starts with the given
// capacity. Slabs for objects and spines are created on first use.
func NewArena(bytesCap int) *Arena {
	if bytesCap < 0 {
		bytesCap = 0
	}
	return &Arena{buf: make([]byte, 0, bytesCap)}
}

// Len reports the bytes stored in the current byte slab.
func (a *Arena) Len() int { return len(a.buf) }

// Cap reports the current byte slab's capacity.
func (a *Arena) Cap() int { return cap(a.buf) }

// reserve makes room for n more contiguous bytes: when the current byte
// slab lacks it, a fresh slab of at least twice the capacity takes its
// place. The full slab is not copied — growing by append would memmove
// it whole at every doubling while the views already handed out keep
// the old copy alive, several buffers allocated per frame staged — it
// simply stays reachable through those views.
func (a *Arena) reserve(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(2*cap(a.buf), n, minSlabSize))
	}
}

// Reset forgets the arena's contents so it can back a new frame. Every
// value previously parsed into the arena becomes invalid: its bytes
// will be overwritten by the next records. The pointer-bearing slabs
// are cleared so a pooled arena does not pin dead payloads.
func (a *Arena) Reset() {
	a.buf = a.buf[:0]
	clear(a.objs[:cap(a.objs)])
	a.objs = a.objs[:0]
	clear(a.vals[:cap(a.vals)])
	a.vals = a.vals[:0]
	clear(a.names[:cap(a.names)])
	a.names = a.names[:0]
}

// AppendBytes copies b into the arena and returns the arena-owned copy.
// The view is valid until Reset. Adapters use this to stage volatile
// read-buffer lines (raw-lane frames) without a per-line allocation.
func (a *Arena) AppendBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	a.reserve(len(b))
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// appendView copies b into the byte buffer and returns a string view of
// the arena-owned copy without allocating a string header payload. The
// view aliases arena memory — hence the Reset contract above.
func (a *Arena) appendView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	a.reserve(len(b))
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return unsafe.String(&a.buf[n], len(b))
}

// viewFrom returns a string view of the bytes appended to the current
// slab since mark (a Len result taken after the reserve that made room
// for them). The unescape path uses it to turn in-place escape decoding
// into an arena-backed string.
func (a *Arena) viewFrom(mark int) string {
	if len(a.buf) == mark {
		return ""
	}
	return unsafe.String(&a.buf[mark], len(a.buf)-mark)
}

// stringValue copies b into the arena and returns a string Value whose
// payload references arena memory, flagged so Materialize knows to copy
// it out.
func (a *Arena) stringValue(b []byte) Value {
	if len(b) == 0 {
		return String("")
	}
	return Value{kind: KindString, flags: flagArena, s: a.appendView(b)}
}

// newObject allocates an Object from the slab with room for hint fields
// carved out of the spine slabs. The object is flagged arena-backed so
// Materialize rebuilds it on copy-out.
func (a *Arena) newObject(hint int) *Object {
	if hint < 1 {
		hint = 1
	}
	if len(a.objs) == cap(a.objs) {
		// Slab full: start a fresh, larger one. The full slab stays
		// reachable through the *Object pointers already handed out.
		a.objs = make([]Object, 0, nextSlabSize(cap(a.objs)))
	}
	a.objs = a.objs[:len(a.objs)+1]
	o := &a.objs[len(a.objs)-1]
	*o = Object{
		names:  a.nameSpan(hint),
		values: a.valueSpan(hint),
		arena:  true,
	}
	return o
}

// nextSlabSize doubles a slab's capacity between minSlabSize and
// maxSlabSize.
func nextSlabSize(prev int) int {
	c := prev * 2
	if c < minSlabSize {
		c = minSlabSize
	}
	if c > maxSlabSize {
		c = maxSlabSize
	}
	return c
}

// valueSpan reserves a length-0, capacity-n region of the value slab.
// Appending past n falls back to a heap reallocation (the size hints
// make that rare), which is correct just slower.
func (a *Arena) valueSpan(n int) []Value {
	if cap(a.vals)-len(a.vals) < n {
		c := nextSlabSize(cap(a.vals))
		if c < n {
			c = n
		}
		a.vals = make([]Value, 0, c)
	}
	m := len(a.vals)
	a.vals = a.vals[:m+n]
	return a.vals[m : m : m+n]
}

// nameSpan is valueSpan for the field-name slab.
func (a *Arena) nameSpan(n int) []string {
	if cap(a.names)-len(a.names) < n {
		c := nextSlabSize(cap(a.names))
		if c < n {
			c = n
		}
		a.names = make([]string, 0, c)
	}
	m := len(a.names)
	a.names = a.names[:m+n]
	return a.names[m : m : m+n]
}
