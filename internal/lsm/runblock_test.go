package lsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

// tweetBlocks returns the decoded payloads of a run of n tweet-shaped
// records.
func tweetBlocks(t testing.TB, n int) [][]byte {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: tweetRec(int64(i))}
	}
	rf := writeTestRun(t, NewMemFS(), "tweets.run", items, runEnv{})
	defer rf.close()
	payloads := make([][]byte, len(rf.blocks))
	for i := range rf.blocks {
		blk, err := rf.loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = blk.data
	}
	return payloads
}

// FuzzBlockCodec holds the run-block path to the codec's rules
// (internal/frame's FuzzBlockCodec holds the codec itself): a payload
// coded as a run writer codes it comes back from decodeBlockBody byte
// for byte — into a fresh buffer and into a recycled block's — through
// one warm encoder, and a block body declaring more than its stream
// could decode to is refused before anything is sized from it.
func FuzzBlockCodec(f *testing.F) {
	for _, p := range tweetBlocks(f, 200) {
		f.Add(p, uint64(len(p)))
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x00}, uint64(0))
	f.Add(bytes.Repeat([]byte{'a'}, 300), uint64(300))
	f.Add([]byte(noise(1, 100)), uint64(100))
	f.Add([]byte{0x1F, 'a', 1, 0, 20, 0x10, 'b'}, uint64(25)) // an overlapping match, an extension byte
	f.Add([]byte{0x10, 'a', 0, 0, 0x10, 'b'}, uint64(6))      // offset 0
	f.Add([]byte{0x10, 'a', 2, 0, 0x10, 'b'}, uint64(6))      // offset before the start
	f.Add([]byte{0xF0, 255, 255, 255}, uint64(1<<40))
	var enc frame.Encoder
	recycled := make([]byte, 0, recycledRoom)
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		body := enc.AppendBody(nil, data)
		for _, dst := range [][]byte{nil, recycled} {
			if got, err := decodeBlockBody(body, dst); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round trip of %d bytes into a %d-byte buffer: %v", len(data), cap(dst), err)
			}
		}
		// 255 bytes a stream byte is the most it decodes to (a match
		// length extension byte).
		if n > 255*uint64(len(data)) || n > math.MaxInt32 {
			body := append(binary.AppendUvarint([]byte{frame.CodecLZ}, n), data...)
			var err error
			if grew := heapGrowth(func() { _, err = decodeBlockBody(body, nil) }); err == nil || grew > decodeHeapBound(len(body)) {
				t.Fatalf("a %d-byte stream declaring %d bytes: %v, %d bytes allocated", len(data), n, err, grew)
			}
		}
	})
}

// TestBlockCodecAllocatesNothing: a warm block encoder (its table in
// place, its destination grown) and the decode of a block body into a
// recycled block's buffer allocate nothing per block.
func TestBlockCodecAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	payloads := tweetBlocks(t, 2000)
	enc := new(frame.Encoder)
	var body []byte
	for _, p := range payloads {
		body = enc.AppendBody(body[:0], p)
	}
	recycled := make([]byte, 0, recycledRoom)
	body = enc.AppendBody(body[:0], payloads[0])
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeBlockBody(body, recycled); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeBlockBody: %v allocations per block, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		body = enc.AppendBody(body[:0], payloads[i%len(payloads)])
		i++
	}); n != 0 {
		t.Errorf("warm encoder: %v allocations per block, want 0", n)
	}
}

// TestRunBlocksCompress: a flushed run of tweet-shaped records takes at
// most half the bytes on disk that its blocks hold decoded, a block that
// does not shrink is stored (codec byte 0), and a scan of the run yields
// exactly what the memtable held.
func TestRunBlocksCompress(t *testing.T) {
	const n = 2000
	p := memPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8})
	keys, recs := make([]adm.Value, n), make([]adm.Value, n)
	for i := range keys {
		keys[i], recs[i] = adm.Int(int64(i)), tweetRec(int64(i))
	}
	if err := p.UpsertBatch(keys, recs); err != nil {
		t.Fatal(err)
	}
	var mem [][]byte // the memtable's items, key then record
	err := p.Snapshot().Scan(func(key, rec adm.Value) bool {
		mem = append(mem, adm.AppendBinary(nil, key), adm.AppendBinary(nil, rec))
		return true
	})
	if err != nil || len(mem) != 2*n {
		t.Fatalf("memtable scan: %d items, %v", len(mem)/2, err)
	}
	p.Flush()
	settle(t, p)
	runs := partitionRuns(p)
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	run := runs[0]
	var decoded int64
	for i := range run.blocks {
		blk, err := run.loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		decoded += int64(len(blk.data))
	}
	if run.size*2 > decoded {
		t.Errorf("the run file is %d bytes for %d decoded block bytes, want at most half", run.size, decoded)
	}
	c := run.cursor(new(Leases))
	for i := 0; i < n; i++ {
		key, _, ok, _ := c.advance()
		if !ok || !bytes.Equal(key, mem[2*i]) || !bytes.Equal(c.val, mem[2*i+1]) {
			t.Fatalf("scan item %d (%v) differs from the memtable's", i, ok)
		}
	}
	if _, _, ok, _ := c.advance(); ok || c.err != nil {
		t.Fatalf("scan overran or failed: %v", c.err)
	}

	stored := []index.Item{{Key: adm.Int(1), Val: rec(1, "noise", adm.String(noise(2, 2048)))}}
	rf := writeTestRun(t, NewMemFS(), "noise.run", stored, runEnv{})
	defer rf.close()
	if codecs := blockCodecs(t, rf); !bytes.Equal(codecs, []byte{frame.CodecStored}) {
		t.Fatalf("an incompressible block has codec %v, want stored", codecs)
	}
	checkGoldenRun(t, rf, stored)
}
