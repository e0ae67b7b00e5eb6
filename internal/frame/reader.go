package frame

import (
	"encoding/binary"
	"fmt"

	"github.com/ideadb/idea/internal/adm"
)

// Reader parses a payload: a bounds-checked cursor whose first failure
// sticks. After it, every method returns its zero value, so a parser
// reads straight through and checks once — Done at the end, Err inside
// a loop that would otherwise act on the zero values. No method panics
// or reads past the payload, and a length or count can never exceed the
// bytes that remain, so nothing sized from one outgrows its input.
type Reader struct {
	b    []byte
	size int // of the whole payload, for error offsets
	err  error
}

// NewReader starts at the front of payload.
func NewReader(payload []byte) Reader {
	return Reader{b: payload, size: len(payload)}
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %w", r.size-len(r.b), fmt.Errorf(format, args...))
	}
}

// Len reports the bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Done ends the parse: the first failure, or an error if bytes remain
// (a drifted encoder must not go unnoticed).
func (r *Reader) Done() error {
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Take consumes the next n bytes, aliasing the payload.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated (%d of %d bytes)", len(r.b), n)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if b := r.Take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// Uvarint consumes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return u
}

// Int consumes a uvarint scalar that must not exceed most.
func (r *Reader) Int(most uint64) int {
	u := r.Uvarint()
	if u > most {
		r.fail("value %d out of range (at most %d)", u, most)
		return 0
	}
	return int(u)
}

// Count consumes the number of items that follow, each of which costs
// at least unit payload bytes: more than the remaining bytes can hold
// is corrupt, and is rejected before anything is sized from it.
func (r *Reader) Count(unit int) int {
	u := r.Uvarint()
	if u > uint64(len(r.b)/unit) {
		r.fail("count %d exceeds the %d bytes that remain", u, len(r.b))
		return 0
	}
	return int(u)
}

// Str consumes a uvarint-length-prefixed string.
func (r *Reader) Str() string { return string(r.Take(r.Count(1))) }

// Value consumes one adm binary value (which owns its memory).
func (r *Reader) Value() adm.Value {
	if r.err != nil {
		return adm.Value{}
	}
	v, n, err := adm.DecodeBinary(r.b)
	if err != nil {
		r.fail("%w", err)
		return adm.Value{}
	}
	r.b = r.b[n:]
	return v
}

// View consumes one adm binary value without decoding it: an object
// comes back as a view aliasing the payload (which must not change
// while the view is in use), any other kind as Value returns it.
func (r *Reader) View() adm.Value {
	if r.err != nil {
		return adm.Value{}
	}
	n, err := adm.SkipBinary(r.b)
	if err != nil {
		r.fail("%w", err)
		return adm.Value{}
	}
	return adm.View(r.Take(n))
}
