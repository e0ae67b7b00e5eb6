package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// Per-run bloom filters: a run file carries one filter over its key
// set, sized at build time from the entry count, so point lookups skip
// the block read entirely for keys the run cannot contain.
//
// The hash must be stable across processes — the filter is persisted —
// and is part of the run format, so it is not adm.Hash (a hash of
// decoded values that no file records). Keys hash as
// FNV-1a 64 over their adm binary encoding (the same canonical bytes
// the run file stores), and the filter derives its k probe positions by
// double hashing: g_i = h1 + i*h2 with h2 an odd mix of h1.
const (
	// bloomBitsPerEntry sizes the filter; 10 bits/key with k=7 probes
	// gives ~0.9% false positives — one wasted block read per ~110
	// negative lookups that pass the fence check.
	bloomBitsPerEntry = 10
	bloomHashes       = 7
)

// bloomHash is FNV-1a 64 over the key's adm binary encoding.
func bloomHash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// splitmix64 is the finalizer step of the splitmix64 generator; it
// turns the base hash into an independent second hash for double
// hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloomFilter is a classic blocked-free bloom filter over key hashes.
// Immutable after build; mayContain is safe for concurrent use.
type bloomFilter struct {
	nbits uint64
	bits  []byte
}

// newBloomFilter sizes a filter for n keys.
func newBloomFilter(n int) *bloomFilter {
	if n <= 0 {
		return nil
	}
	nbits := uint64(n) * bloomBitsPerEntry
	nbits = (nbits + 7) &^ 7 // whole bytes
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{nbits: nbits, bits: make([]byte, nbits/8)}
}

func (f *bloomFilter) insert(h uint64) {
	h2 := splitmix64(h) | 1
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h + i*h2) % f.nbits
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
}

// mayContain reports whether a key with hash h might be in the set.
// False is definitive; true may be a false positive.
func (f *bloomFilter) mayContain(h uint64) bool {
	h2 := splitmix64(h) | 1
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h + i*h2) % f.nbits
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// appendPayload encodes the filter as the bloom-section payload of a
// run file: nbits:uvarint bits:ceil(nbits/8)B.
func (f *bloomFilter) appendPayload(b []byte) []byte {
	b = binary.AppendUvarint(b, f.nbits)
	return append(b, f.bits...)
}

// parseBloom decodes a bloom-section payload.
func parseBloom(payload []byte) (*bloomFilter, error) {
	p := frame.NewReader(payload)
	nbits := p.Uvarint()
	bits := p.Take(p.Len())
	if p.Err() != nil || nbits == 0 || nbits%8 != 0 || uint64(len(bits)) != nbits/8 {
		return nil, fmt.Errorf("bloom: bad bit count %d for %d payload bytes", nbits, len(bits))
	}
	return &bloomFilter{nbits: nbits, bits: bits}, nil
}

// pointProbe carries one point lookup's key, as its encoding, through
// the memtable and the component walk, computing the key's bloom hash at
// most once no matter how many run-backed components are consulted — and
// not at all when every run is rejected by its fence (or none has a
// filter). Probes are pooled; the encoding scratch rides along so a
// steady lookup stream allocates nothing.
type pointProbe struct {
	key     []byte // the key's encoding: buf, or bytes the caller keeps
	buf     []byte // scratch a decoded key is encoded into
	altBuf  []byte // scratch the key's other numeric encoding is hashed from
	hash    uint64
	alt     uint64 // the hash of the key's other numeric encoding, if hasAlt
	hasAlt  bool
	hashed  bool
	altDone bool // hasAlt and alt are set
}

var probePool = sync.Pool{New: func() any { return new(pointProbe) }}

// getProbe returns a pooled probe for the key enc encodes (see at).
func getProbe(enc []byte) *pointProbe {
	kp := probePool.Get().(*pointProbe)
	kp.at(enc)
	return kp
}

// encodeProbe returns a pooled probe for key, encoded once into the
// probe's scratch.
func encodeProbe(key adm.Value) *pointProbe {
	kp := probePool.Get().(*pointProbe)
	kp.buf = adm.AppendBinary(kp.buf[:0], key)
	kp.at(kp.buf)
	return kp
}

// at points the probe at the key enc encodes (as SkipBinary accepts it),
// which the caller keeps unchanged while the probe is in use.
func (kp *pointProbe) at(enc []byte) {
	kp.key = enc
	kp.hashed, kp.altDone = false, false
}

func putProbe(kp *pointProbe) {
	kp.key = nil // don't pin what the caller pointed it at from the pool
	probePool.Put(kp)
}

// mayBeIn reports whether f may hold the probe key, hashing the key on
// first use. A numeric key equals the key of the other numeric kind with
// the same value (3 = 3.0), whose encoding — and so bloom hash — differs,
// so a filter that rules the key's own encoding out is asked for the
// other one too, hashed the first time one is.
func (kp *pointProbe) mayBeIn(f *bloomFilter) bool {
	if !kp.hashed {
		kp.hash = bloomHash(kp.key)
		kp.hashed = true
	}
	if f.mayContain(kp.hash) {
		return true
	}
	if !kp.altDone {
		kp.hasAlt = false
		if k := adm.Kind(kp.key[0]); k == adm.KindInt64 || k == adm.KindDouble {
			var alt adm.Value
			if alt, kp.hasAlt = otherNumeric(adm.ViewAlias(kp.key)); kp.hasAlt {
				kp.altBuf = adm.AppendBinary(kp.altBuf[:0], alt)
				kp.alt = bloomHash(kp.altBuf)
			}
		}
		kp.altDone = true
	}
	return kp.hasAlt && f.mayContain(kp.alt)
}

// otherNumeric returns the value of the other numeric kind that equals v
// under adm.Compare: an int64's double, an integral double's int64.
func otherNumeric(v adm.Value) (adm.Value, bool) {
	switch v.Kind() {
	case adm.KindInt64:
		return adm.Double(float64(v.IntVal())), true
	case adm.KindDouble:
		if f := v.DoubleVal(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return adm.Int(int64(f)), true
		}
	}
	return adm.Value{}, false
}
