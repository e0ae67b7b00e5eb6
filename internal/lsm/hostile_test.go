package lsm

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

// Hostile-input tests for the on-disk decoders: crafted or arbitrary
// bytes must come back as errors (or as a torn tail), never as a panic
// or as an allocation the input length does not cover.

// heapGrowth runs fn and reports the bytes it allocated.
func heapGrowth(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeHeapBound is what decoding n input bytes may allocate. The
// multiple is adm's: DecodeBinary sizes an array from a count capped by
// the bytes that remain, at each of up to 200 nesting levels of
// ~100-byte Values. What the bound catches is an allocation sized from
// a count or length the input does not back at all.
func decodeHeapBound(n int) uint64 { return 1<<20 + 200*100*uint64(n) }

func writeFile(t testing.TB, fs *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runIndex locates the index frame of a run file image.
func runIndex(data []byte) (indexOff, footerOff int, ok bool) {
	footerOff = len(data) - runFooterSize
	if footerOff < runHeaderSize {
		return 0, 0, false
	}
	off := binary.LittleEndian.Uint64(data[footerOff:])
	return int(off), footerOff, off >= uint64(runHeaderSize) && off+frame.HeaderSize < uint64(footerOff)
}

// TestOpenRunHostileIndex: a CRC-valid index that lies — about how many
// blocks or entries the run has, or about where a block is — fails
// openRun, before any block is read and without an allocation sized
// from the lie.
func TestOpenRunHostileIndex(t *testing.T) {
	items := make([]index.Item, 4000)
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: rec(int64(i), "pad", adm.String("0123456789012345678901234567890123456789"))}
	}
	fs := NewMemFS()
	rf, err := writeRun(fs, "runs", "good.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	rf.close()
	good, err := readFileAll(fs, "runs/good.run")
	if err != nil {
		t.Fatal(err)
	}
	indexOff, footerOff, ok := runIndex(good)
	if !ok || len(good) < 200<<10 {
		t.Fatalf("unexpected run image: %d bytes, index at %d", len(good), indexOff)
	}

	// Each case re-encodes the head of the index payload — entries,
	// blocks, and the first block's off and len — and keeps the rest.
	for name, edit := range map[string]func(entries, blocks, off, length uint64) [4]uint64{
		"inflated block count": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, uint64(len(good)), o, l} },
		"inflated entry count": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{1 << 62, b, o, l} },
		"block before header":  func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, 0, l} },
		"block inside index":   func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, uint64(indexOff), l} },
		"block over the index": func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, o, uint64(indexOff)} },
		"block of no payload":  func(e, b, o, l uint64) [4]uint64 { return [4]uint64{e, b, o, frame.HeaderSize} },
	} {
		payload, _, err := frame.Decode(good[indexOff:footerOff], int64(len(good)))
		if err != nil {
			t.Fatal(err)
		}
		p := frame.NewReader(payload)
		head := edit(p.Uvarint(), p.Uvarint(), p.Uvarint(), p.Uvarint())
		bad := frame.Begin(append([]byte(nil), good[:indexOff]...))
		for _, u := range head {
			bad = binary.AppendUvarint(bad, u)
		}
		bad = append(bad, p.Take(p.Len())...)
		frame.Seal(bad, indexOff)
		// The footer still points at indexOff; the index frame may have
		// changed size, which only moves the footer.
		bad = append(bad, good[footerOff:]...)
		writeFile(t, fs, "runs/bad.run", bad)

		var openErr error
		grew := heapGrowth(func() {
			var rf *runFile
			if rf, openErr = openRun(fs, "runs", "bad.run", runEnv{}); openErr == nil {
				rf.close()
			}
		})
		if openErr == nil {
			t.Errorf("%s: openRun accepted the index", name)
		}
		if grew > uint64(len(bad)) {
			t.Errorf("%s: openRun allocated %d bytes for a %d-byte file", name, grew, len(bad))
		}
	}
}

// TestLoadBlockHostileStructure: a block whose checksum holds but whose
// entries do not — an unknown kind tag inside a record, a count that
// leaves bytes over or runs short — is refused whole when it is loaded,
// by queries and by compaction alike: the lookup misses, the scan stops,
// the merge aborts, and the run's sticky error says why. Nothing is
// handed up from it, so no view is ever asked to read bad bytes.
func TestLoadBlockHostileStructure(t *testing.T) {
	items := make([]index.Item, 100) // one block, a one-byte count
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: rec(int64(i), "pad", adm.String("0123456789012345678901234567890123456789"))}
	}
	fs := NewMemFS()
	rf, err := writeRun(fs, "runs", "good.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	first := rf.blocks[0]
	rf.close()
	good, err := readFileAll(fs, "runs/good.run")
	if err != nil {
		t.Fatal(err)
	}
	payloadAt := int(first.off) + frame.HeaderSize
	for name, edit := range map[string]func(payload []byte){
		"unknown kind tag in a record": func(p []byte) { p[3] = 0xEE }, // count, key tag, key varint, record tag
		"count one short":              func(p []byte) { p[0]-- },
		"count one over":               func(p []byte) { p[0]++ },
	} {
		bad := append([]byte(nil), good...)
		edit(bad[payloadAt : int(first.off)+first.length])
		frame.Seal(bad[:int(first.off)+first.length], int(first.off))
		writeFile(t, fs, "runs/bad.run", bad)
		rf, err := openRun(fs, "runs", "bad.run", runEnv{cache: NewBlockCache(1 << 20)})
		if err != nil {
			t.Fatalf("%s: openRun: %v", name, err)
		}
		if v, ok := probeGet(rf, adm.Int(1)); ok {
			t.Errorf("%s: lookup returned %v", name, v)
		}
		if rf.err() == nil {
			t.Errorf("%s: lookup left no error", name)
		}
		c := rf.cursor()
		if it, ok := c.next(); ok {
			t.Errorf("%s: cursor yielded %v", name, it)
		}
		raw := rf.rawReader()
		if _, _, ok := raw.advance(); ok || raw.err == nil {
			t.Errorf("%s: raw reader advanced (err %v)", name, raw.err)
		}
		rf.close()
	}
}

func goldenFile(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzOpenRun opens arbitrary bytes as a run file and, when they open,
// scans and probes them. With reseal set the harness re-seals the
// frames the footer and the index point at, so the fuzzer reaches the
// payload parsers behind the CRC.
func FuzzOpenRun(f *testing.F) {
	golden := goldenFile(f, "run-v2.golden")
	f.Add(golden, false)
	f.Add(golden, true)
	f.Add(golden[:len(golden)-1], true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		data = append([]byte(nil), data...)
		fs := NewMemFS()
		open := func() *runFile {
			writeFile(t, fs, "runs/f.run", data)
			var rf *runFile
			if grew := heapGrowth(func() { rf, _ = openRun(fs, "runs", "f.run", runEnv{}) }); grew > decodeHeapBound(len(data)) {
				t.Fatalf("openRun allocated %d bytes for a %d-byte file", grew, len(data))
			}
			return rf
		}
		if indexOff, footerOff, ok := runIndex(data); ok && reseal {
			frame.Seal(data[:footerOff], indexOff)
		}
		rf := open()
		if rf != nil && reseal {
			blocks := rf.blocks
			rf.close()
			for _, b := range blocks {
				frame.Seal(data[:int(b.off)+b.length], int(b.off))
			}
			rf = open() // the blocks may overlap the index: nil again is fine
		}
		if rf == nil {
			return
		}
		defer rf.close()
		if grew := heapGrowth(func() {
			// Structure is checked when a block loads: whatever the cursor
			// yields reads to the end without failing.
			c := rf.cursor()
			for it, ok := c.next(); ok; it, ok = c.next() {
				it.Val.Field("v")
				adm.Hash(it.Val)
			}
			probeGet(rf, rf.firstKey)
			probeGet(rf, rf.lastKey)
		}); grew > decodeHeapBound(len(data)) {
			t.Fatalf("reading the run allocated %d bytes for a %d-byte file", grew, len(data))
		}
	})
}

// FuzzWALReplay replays arbitrary bytes as a WAL segment — the newest
// one (where a bad frame is a torn tail) or an older one (where it is
// corruption). With reseal set the harness fixes the CRC of every frame
// whose length fits, so the fuzzer reaches the entry parser. Recovery
// must be repeatable: what one replay accepts, the next one returns
// again.
func FuzzWALReplay(f *testing.F) {
	golden := goldenFile(f, "wal-v1.golden")
	for _, last := range []bool{true, false} {
		f.Add(golden, last, false)
		f.Add(golden[:len(golden)-3], last, false)
		f.Add(append(golden[:walHeaderSize:walHeaderSize], golden[walHeaderSize+3:]...), last, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, last, reseal bool) {
		data = append([]byte(nil), data...)
		for off := walHeaderSize; reseal && off+frame.HeaderSize < len(data); {
			end := off + frame.HeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
			if end <= off+frame.HeaderSize || end > len(data) {
				break
			}
			frame.Seal(data[:end], off)
			off = end
		}
		fs := NewMemFS()
		writeFile(t, fs, "wal/"+walSegmentName(1), data)
		if !last {
			writeFile(t, fs, "wal/"+walSegmentName(2), append([]byte(walMagic), walVersion))
		}
		replay := func() (n int, err error) {
			w, err := OpenWAL(fs, "wal", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.Replay(0, func(uint64, adm.Value, adm.Value) error { n++; return nil })
			return n, err
		}
		var n int
		var err error
		if grew := heapGrowth(func() { n, err = replay() }); grew > decodeHeapBound(len(data)) {
			t.Fatalf("replay allocated %d bytes for a %d-byte segment", grew, len(data))
		}
		if err != nil {
			return
		}
		if again, err := replay(); err != nil || again != n {
			t.Fatalf("second replay: %d entries, %v; the first returned %d", again, err, n)
		}
	})
}
