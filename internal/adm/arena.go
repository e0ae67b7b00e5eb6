package adm

import "unsafe"

// Arena is a slab allocator for parsed record payloads: string bytes,
// Object structs and object field spines come out of a handful of
// growable slabs instead of individual heap allocations, so parsing a
// record into an Arena costs O(1) allocations amortized over a frame.
//
// Values parsed into an arena share its slabs, and Reset hands those
// slabs to the next parse: an arena is its owner's scratch, and only an
// owner of provably dead contents resets it. The engine has two. The
// feed's collector parses a line, validates the tree, encodes it
// (AppendBinary) and resets — the record that travels on is a view of
// the encoding, and the parse tree never leaves the loop body. The
// raw-lane line arenas hyracks pools hold staged lines, dead once they
// are parsed. Anything else that parses into an arena and keeps the
// values (a test, a benchmark) simply never resets it: the values stay
// ordinary garbage-collected values that keep their slabs alive.
//
// An Arena is not safe for concurrent use.
type Arena struct {
	buf   []byte   // current string / raw-line byte slab
	objs  []Object // Object struct slab
	vals  []Value  // object field-value and array element spine slab
	names []string // object field-name spine slab
}

// Slab sizing: slabs start small and double each time one fills, up to
// a cap, so an arena backing a frame of tiny records does not commit
// kilobytes it will never touch. When a slab fills mid-frame a fresh
// one is started and the full one stays alive through the values that
// reference it (Reset only reclaims the current slab). The byte slab
// follows the same rule without the cap (see reserve): a pooled line
// arena's byte slab converges on its frames' size, and nothing is ever
// copied from a full slab to its successor.
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

// Reset forgets the arena's contents so its current slabs can be
// reused. Only the owner of every byte and value in the arena may call
// it: whatever still references them reads the next contents. The
// pointer-bearing slabs are cleared so a reused arena does not pin dead
// payloads — up to their lengths, which is all that was ever written:
// slabs are zeroed when made and filled from the front.
func (a *Arena) Reset() {
	a.buf = a.buf[:0]
	clear(a.objs)
	a.objs = a.objs[:0]
	clear(a.vals)
	a.vals = a.vals[:0]
	clear(a.names)
	a.names = a.names[:0]
}

// AppendBytes copies b into the arena and returns the arena-owned copy.
// The view is valid until Reset. The raw lane stages adapter lines this
// way (hyracks.FrameBuilder.AddRawCopy): no per-line allocation.
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
// view aliases arena memory.
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

// newObject allocates an Object from the slab with room for hint fields
// carved out of the spine slabs.
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
