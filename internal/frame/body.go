package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// A coded body carries one payload under the codec its writer chose for
// it, named by its first byte:
//
//	body := codec:1B ( payload                       codec 0, stored
//	                 | rawLen:uvarint lz(payload) )  codec 1, lz
//
// lz(p) is the stream lz.go describes, decoding to exactly rawLen bytes.
// The writer picks the codec per payload from its bytes (AppendBody):
// lz, unless the stream does not save a byte, in which case the payload
// is stored as it is. There is no setting: the bytes decide. A run block
// (internal/lsm) and a wire RowBatch (internal/wire) are each one coded
// body inside one envelope, whose checksum covers the coded bytes.
const (
	CodecStored = 0
	CodecLZ     = 1
)

// errNoCodec: a coded body with no codec byte.
var errNoCodec = errors.New("coded body: no codec byte")

// AppendBody appends the coded body of payload to dst: its lz stream,
// or the payload itself when the stream would not be shorter (a payload
// of math.MaxInt32 bytes or more, past what BodyLen accepts, is stored
// too).
func (e *Encoder) AppendBody(dst, payload []byte) []byte {
	start := len(dst)
	if len(payload) < math.MaxInt32 {
		dst = append(dst, CodecLZ)
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = e.encode(dst, payload)
		if len(dst)-start <= len(payload) {
			return dst
		}
	}
	return append(append(dst[:start], CodecStored), payload...)
}

// BodyLen returns the length of the payload a coded body carries. A
// declared lz length is checked against what its stream could decode to
// (lzMaxExpansion bytes a stream byte) and against limit, so a caller
// that sizes a buffer from the result sizes it from bytes the body
// backs, never from a lie.
func BodyLen(body []byte, limit int) (int, error) {
	if len(body) == 0 {
		return 0, errNoCodec
	}
	switch body[0] {
	case CodecStored:
		if n := len(body) - 1; n <= limit {
			return n, nil
		}
		return 0, fmt.Errorf("%w: stored payload of %d bytes (limit %d)", ErrTooLarge, len(body)-1, limit)
	case CodecLZ:
		n, k := binary.Uvarint(body[1:])
		if k <= 0 {
			return 0, errors.New("lz body: bad length")
		}
		stream := uint64(len(body) - 1 - k)
		if n > lzMaxExpansion*stream || n > uint64(limit) {
			return 0, fmt.Errorf("lz body: %d bytes declared for a %d-byte stream (limit %d)", n, stream, limit)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("unknown codec %d", body[0])
}

// DecodeBody writes the payload a coded body carries into dst, which
// must be exactly as long as it (BodyLen). It allocates nothing, and a
// body that does not decode to exactly len(dst) bytes is an error.
func DecodeBody(dst, body []byte) error {
	n, err := BodyLen(body, len(dst))
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("coded body: %d-byte payload for a %d-byte destination", n, len(dst))
	}
	if body[0] == CodecStored {
		copy(dst, body[1:])
		return nil
	}
	_, k := binary.Uvarint(body[1:])
	if err := lzDecode(dst, body[1+k:]); err != nil {
		return fmt.Errorf("lz body: %w", err)
	}
	return nil
}
