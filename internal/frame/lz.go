package frame

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// The lz codec of a coded body (body.go): LZ77 in the LZ4 block layout,
// with no entropy stage. A stream is a sequence of
//
//	seq := token:1B litLen* literals offset:2B-LE matchLen*
//
// where the token's high nibble is the literal count and its low nibble
// the match length less lzMinMatch, 15 in a nibble continues the length
// in extension bytes (each added, 255 continuing further), and the last
// sequence stops after its literals. A match copies matchLen bytes from
// offset bytes back in the output, so it may overlap what it writes.
//
// The encoder is greedy over a hash table of 4-byte sequences; it keeps
// LZ4's end rules (the last 5 bytes are literals, no match starts in the
// last 12), so any LZ4 block decoder reads its output. The decoder is
// total: hostile input comes back as an error, never as a panic or a
// write outside dst.
const (
	lzMinMatch  = 4
	lzHashLog   = 13
	lzMaxOffset = 1<<16 - 1
	lzLastLits  = 5
	lzMFLimit   = 12

	// lzMaxExpansion bounds what one stream byte can decode to: a match
	// length extension byte of 255. A declared raw length above
	// lzMaxExpansion × the stream's length is a lie, refused before
	// anything is sized from it.
	lzMaxExpansion = 255
)

var (
	errLZTruncated = errors.New("lz: stream ends inside a sequence")
	errLZOverrun   = errors.New("lz: sequence runs past the declared length")
	errLZOffset    = errors.New("lz: back-reference outside the output")
	errLZShort     = errors.New("lz: stream ends before the declared length")
)

// Encoder holds the match finder's hash table, 32 KiB. One is owned by
// one goroutine at a time and reused for every payload it codes — a
// partition's flusher keeps one for the run blocks it writes, a server
// session one for the row batches it sends: positions are stored offset
// by a base that moves past each input, so entries left by earlier
// inputs read as stale and the table is never cleared between payloads.
type Encoder struct {
	table [1 << lzHashLog]uint32
	next  uint32 // the base of the next input; 0 until the first
}

func lzHash(u uint32) uint32 { return (u * 2654435761) >> (32 - lzHashLog) }

// encode appends the stream of src to dst. src must be shorter than
// math.MaxInt32 bytes.
func (e *Encoder) encode(dst, src []byte) []byte {
	n := len(src)
	if e.next == 0 || uint64(e.next)+uint64(n) > math.MaxUint32 {
		clear(e.table[:])
		e.next = 1
	}
	base := e.next
	e.next += uint32(n)

	anchor := 0
	for s := 0; s < n-lzMFLimit; {
		seq := binary.LittleEndian.Uint32(src[s:])
		h := lzHash(seq)
		v := e.table[h]
		e.table[h] = base + uint32(s)
		cand := int(v - base)
		if v < base || s-cand > lzMaxOffset || binary.LittleEndian.Uint32(src[cand:]) != seq {
			s += 1 + (s-anchor)>>6 // step up through input that does not match
			continue
		}
		for s > anchor && cand > 0 && src[s-1] == src[cand-1] {
			s, cand = s-1, cand-1
		}
		m := s + lzMinMatch + lzMatchLen(src[s+lzMinMatch:n-lzLastLits], src[cand+lzMinMatch:])
		dst = lzAppendSeq(dst, src[anchor:s], s-cand, m-s)
		e.table[lzHash(binary.LittleEndian.Uint32(src[m-2:]))] = base + uint32(m-2)
		s, anchor = m, m
	}
	lits := src[anchor:]
	dst = append(dst, byte(min(len(lits), 15))<<4)
	dst = lzAppendLen(dst, len(lits))
	return append(dst, lits...)
}

// lzMatchLen counts the leading bytes a and b share; b is at least as
// long as a.
func lzMatchLen(a, b []byte) int {
	n := 0
	for n+8 <= len(a) {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// lzAppendSeq appends one sequence: lits, then a match of mlen bytes at
// off bytes back.
func lzAppendSeq(dst, lits []byte, off, mlen int) []byte {
	ml := mlen - lzMinMatch
	dst = append(dst, byte(min(len(lits), 15))<<4|byte(min(ml, 15)))
	dst = lzAppendLen(dst, len(lits))
	dst = append(dst, lits...)
	dst = append(dst, byte(off), byte(off>>8))
	return lzAppendLen(dst, ml)
}

// lzAppendLen appends the extension bytes of a length whose nibble
// saturated at 15.
func lzAppendLen(dst []byte, n int) []byte {
	if n < 15 {
		return dst
	}
	for n -= 15; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// lzDecode decodes src into dst, which must come out exactly full: a
// stream that ends early, runs past dst, or refers back before dst's
// start (or to offset 0) is an error. It allocates nothing.
//
// Short literal runs and short matches — most of a block — move in
// fixed-size words while dst has room for the whole word: the bytes a
// word writes past the sequence are rewritten by the sequences after
// it, and a stream that fails leaves dst to be thrown away.
func lzDecode(dst, src []byte) error {
	d, s := 0, 0
	for {
		if s == len(src) {
			return errLZTruncated
		}
		tok := src[s]
		s++
		lits := int(tok >> 4)
		if lits < 15 && len(src)-s >= 16 && len(dst)-d >= 16 {
			*(*[16]byte)(dst[d:]) = *(*[16]byte)(src[s:])
		} else {
			var ok bool
			if lits, ok = lzReadLen(src, &s, lits, len(dst)-d); !ok {
				return errLZOverrun
			}
			if lits > len(src)-s {
				return errLZTruncated
			}
			copy(dst[d:], src[s:s+lits])
		}
		d += lits
		s += lits
		if s == len(src) {
			if d != len(dst) {
				return errLZShort
			}
			return nil
		}
		if len(src)-s < 2 {
			return errLZTruncated
		}
		off := int(src[s]) | int(src[s+1])<<8
		s += 2
		if off == 0 || off > d {
			return errLZOffset
		}
		ml := int(tok & 15)
		if ml < 15 && off >= 8 && len(dst)-d >= 24 {
			// At most 18 bytes, from at least a word back: each word's
			// source is written before it is read.
			from := d - off
			*(*[8]byte)(dst[d:]) = *(*[8]byte)(dst[from:])
			*(*[8]byte)(dst[d+8:]) = *(*[8]byte)(dst[from+8:])
			*(*[8]byte)(dst[d+16:]) = *(*[8]byte)(dst[from+16:])
			d += ml + lzMinMatch
			continue
		}
		ml, ok := lzReadLen(src, &s, ml, len(dst)-d-lzMinMatch)
		if !ok {
			return errLZOverrun
		}
		ml += lzMinMatch
		// Copy from the match's start, doubling: dst[from:d] repeats with
		// period off, so every prefix of it continues the pattern.
		from := d - off
		for end := d + ml; d < end; {
			d += copy(dst[d:end], dst[from:d])
		}
	}
}

// lzReadLen completes a length whose nibble is n from the extension
// bytes at src[*s:]. It reports false when the length exceeds room (or
// the extension runs off src, which fails the same way one step later),
// before it can overflow.
func lzReadLen(src []byte, s *int, n, room int) (int, bool) {
	if n == 15 {
		for *s < len(src) {
			b := src[*s]
			*s++
			n += int(b)
			if n > room || b != 255 {
				break
			}
		}
	}
	return n, n <= room
}
