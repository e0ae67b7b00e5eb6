package lsm

import "encoding/binary"

// frameStore is a cache shard's A1out with its bytes (BlockCache): the
// frame of every block the shard read from a file, byte for byte as
// readFrame read it, oldest first in one circular byte log. The log is
// allocated when the shard keeps its first frame and grows, doubling, up
// to the store's share of the split (ghostShare); a frame that does not
// fit then overwrites the oldest records, so once grown the store
// allocates nothing per frame. A frame larger than the share leaves its
// key alone, as a ghost list would: its block's next miss reads the
// file, and is its second touch. A store that has lost every record to
// dropped runs gives its log back.
//
// The shard is charged the log's length: what the store holds in
// memory. It rises as the log grows and not afterwards, so a frame kept
// in a grown log evicts no decoded block.
//
// A record is a frameRecHeader-byte header — run, block, the record's
// length — and the frame. at finds a key's record. A record at no longer
// names (its run was dropped, or its frame failed to decode) is dead: it
// stays in the log while a live record is older, and the tail passes it
// as soon as none is (trim).
type frameStore struct {
	log []byte
	at  map[blockKey]int
	// The records, dead ones included, lie in [tail, head), or, once the
	// log has wrapped, in [tail, end) and then [0, head).
	head, tail, end int
}

// frameRecHeader is a record's header: run (8 bytes), block (4) and the
// record's length (4).
const frameRecHeader = 16

// lookup reports whether k has a record, and appends the frame the
// record keeps — none, for a key kept alone — to dst[:0].
func (f *frameStore) lookup(k blockKey, dst []byte) ([]byte, bool) {
	off, ok := f.at[k]
	if !ok {
		return dst[:0], false
	}
	_, n := f.record(off)
	return append(dst[:0], f.log[off+frameRecHeader:off+n]...), true
}

// keep appends k's frame as the newest record — its key alone when the
// frame exceeds limit — first overwriting the oldest records until it
// fits in limit bytes, and returns how much the log grew by. A key
// already resident is not kept again, and a limit below a record's
// header keeps nothing.
func (f *frameStore) keep(k blockKey, frame []byte, limit int64) int64 {
	if int64(frameRecHeader+len(frame)) > limit {
		frame = nil
	}
	n := frameRecHeader + len(frame)
	if _, ok := f.at[k]; ok || int64(n) > limit {
		return 0
	}
	for {
		if f.end == 0 { // not wrapped: the room is past head
			if int64(f.head+n) <= limit {
				break
			}
			f.end, f.head = f.head, 0
		}
		if f.head+n <= f.tail { // wrapped: the room is up to tail
			break
		}
		f.dropOldest()
	}
	grew := 0
	if f.head+n > len(f.log) { // not wrapped, and the log short of limit
		grown := make([]byte, min(limit, int64(max(f.head+n, 2*len(f.log)))))
		copy(grown, f.log[:f.head])
		grew, f.log = len(grown)-len(f.log), grown
	}
	if f.at == nil {
		f.at = make(map[blockKey]int)
	}
	rec := f.log[f.head : f.head+n]
	binary.LittleEndian.PutUint64(rec, k.run)
	binary.LittleEndian.PutUint32(rec[8:], uint32(k.block))
	binary.LittleEndian.PutUint32(rec[12:], uint32(n))
	copy(rec[frameRecHeader:], frame)
	f.at[k] = f.head
	f.head += n
	return int64(grew)
}

// record reads the header of the record at off: its key and length.
func (f *frameStore) record(off int) (blockKey, int) {
	rec := f.log[off:]
	k := blockKey{run: binary.LittleEndian.Uint64(rec), block: int(binary.LittleEndian.Uint32(rec[8:]))}
	return k, int(binary.LittleEndian.Uint32(rec[12:]))
}

// live reports whether the record at off is its key's.
func (f *frameStore) live(off int) bool {
	k, _ := f.record(off)
	at, ok := f.at[k]
	return ok && at == off
}

// dropOldest moves the tail past the oldest record, whose bytes the next
// records may overwrite, and forgets its key if the record is live.
func (f *frameStore) dropOldest() {
	k, n := f.record(f.tail)
	if f.live(f.tail) {
		delete(f.at, k)
	}
	f.tail += n
	if f.tail == f.end {
		f.tail, f.end = 0, 0
	}
	if f.empty() {
		f.head, f.tail = 0, 0
	}
}

// empty reports whether the log holds no record.
func (f *frameStore) empty() bool { return f.end == 0 && f.head == f.tail }

// trim drops the dead records no live one is older than, gives the log
// back once no record is left, and returns how much the log grew by
// (zero or less).
func (f *frameStore) trim() int64 {
	for !f.empty() && !f.live(f.tail) {
		f.dropOldest()
	}
	if !f.empty() {
		return 0
	}
	n := len(f.log)
	f.log = nil
	return -int64(n)
}

// forget makes every record of run dead, and returns how much the log
// grew by (zero or less).
func (f *frameStore) forget(run uint64) int64 {
	for k := range f.at {
		if k.run == run {
			delete(f.at, k)
		}
	}
	return f.trim()
}

// forgetKey makes k's record dead, and returns how much the log grew by
// (zero or less).
func (f *frameStore) forgetKey(k blockKey) int64 {
	delete(f.at, k)
	return f.trim()
}
