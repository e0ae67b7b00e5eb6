// Package frame is the one byte envelope shared by the WAL, the run
// files, the intake spill lane and the client wire, the one bounded
// parser for the counted payloads they carry, and the one codec that
// compresses a payload inside an envelope (a coded body, body.go: run
// blocks and wire row batches):
//
//	frame := payloadLen:4B-LE crc32c(payload):4B-LE payload
//
// Writers reserve the header with Begin, append the payload in place
// and Seal it. Readers come in three shapes over one verify core —
// Decode (a byte slice), ReadAt (a file region) and Read (a stream) —
// and agree on what a valid frame is and on how an invalid one fails.
// docs/ARCHITECTURE.md ("Byte envelope") says who passes which limit.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the envelope overhead: payload length + CRC32C.
const HeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The error classes of a frame that cannot be read. Errors that are not
// one of these are I/O errors of the underlying reader, passed through.
var (
	// ErrShort: the source ended before the frame did. At the tail of
	// the newest WAL segment this is a torn write.
	ErrShort = errors.New("frame: short frame")
	// ErrCRC: the payload fails its checksum.
	ErrCRC = errors.New("frame: CRC mismatch")
	// ErrTooLarge: the declared payload exceeds the caller's limit — a
	// corrupt length or a hostile peer. Nothing was allocated for it.
	ErrTooLarge = errors.New("frame: payload exceeds size limit")
	// ErrEmpty: the declared payload is zero bytes; no writer seals one.
	ErrEmpty = errors.New("frame: empty payload")
)

// Begin reserves the header of a new frame at the end of dst. The
// caller appends the payload behind it and then calls Seal with the
// offset at which the frame began (len(dst) before Begin).
func Begin(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Grow returns buf with room for n more bytes, its contents kept. A
// buffer that has to grow at least doubles its capacity, though not past
// limit bytes unless n needs more, so a stream of frames of sizes up to
// S reallocates its buffer O(log S) times.
func Grow(buf []byte, n, limit int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	grown := make([]byte, len(buf), max(len(buf)+n, min(2*cap(buf), limit)))
	copy(grown, buf)
	return grown
}

// Seal fills the header reserved at buf[start:] for the payload that
// runs from there to the end of buf.
func Seal(buf []byte, start int) {
	payload := buf[start+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// header validates a frame header against the payload limit.
func header(hdr []byte, limit int64) (n int, crc uint32, err error) {
	plen := binary.LittleEndian.Uint32(hdr)
	switch {
	case plen == 0:
		return 0, 0, ErrEmpty
	case int64(plen) > limit:
		return 0, 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrTooLarge, plen, limit)
	}
	return int(plen), binary.LittleEndian.Uint32(hdr[4:]), nil
}

// verify is the last step of every reader: the payload, or ErrCRC.
func verify(payload []byte, crc uint32) ([]byte, error) {
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrCRC
	}
	return payload, nil
}

// short classifies a read that hit the end of its source.
func short(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w (%w)", ErrShort, err)
	}
	return err
}

// Decode verifies the frame at the front of data and returns its
// payload (aliasing data) and the frame's total size.
func Decode(data []byte, limit int64) (payload []byte, size int, err error) {
	if len(data) < HeaderSize {
		return nil, 0, ErrShort
	}
	n, crc, err := header(data, limit)
	if err != nil {
		return nil, 0, err
	}
	if len(data)-HeaderSize < n {
		return nil, 0, ErrShort
	}
	payload, err = verify(data[HeaderSize:HeaderSize+n], crc)
	return payload, HeaderSize + n, err
}

// ReadAt reads and verifies the frame that starts at off, allocating
// its payload (at most limit bytes).
func ReadAt(r io.ReaderAt, off, limit int64) ([]byte, error) {
	var hdr [HeaderSize]byte
	if n, err := r.ReadAt(hdr[:], off); n < len(hdr) {
		return nil, short(err)
	}
	n, crc, err := header(hdr[:], limit)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if got, err := r.ReadAt(payload, off+HeaderSize); got < n {
		return nil, short(err)
	}
	return verify(payload, crc)
}

// Read reads and verifies the next frame of a stream into buf, growing
// it (Grow: doubling, to at most limit bytes) only when the payload does
// not fit, so reading a stream allocates only to grow. The returned
// payload aliases the buffer to hand back on the next call.
func Read(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	// The header is read into buf too: an array handed to r would
	// escape, an allocation per frame.
	hdr := Grow(buf[:0], HeaderSize, HeaderSize)[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, short(err)
	}
	n, crc, err := header(hdr, limit)
	if err != nil {
		return nil, err
	}
	payload := Grow(hdr[:0], n, int(limit))[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, short(err)
	}
	return verify(payload, crc)
}
