package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// refDecode is the codec's reference decoder, written for clarity: the
// output of src as lzDecode must produce it, or false for a stream that
// is malformed or decodes past limit bytes.
func refDecode(src []byte, limit int) ([]byte, bool) {
	var out []byte
	s := 0
	length := func(n int) (int, bool) {
		for n >= 15 {
			if s == len(src) || n > limit {
				return 0, false
			}
			b := int(src[s])
			s++
			n += b
			if b != 255 {
				break
			}
		}
		return n, true
	}
	for s < len(src) {
		tok := src[s]
		s++
		lits, ok := length(int(tok >> 4))
		if !ok || lits > len(src)-s || len(out)+lits > limit {
			return nil, false
		}
		out = append(out, src[s:s+lits]...)
		s += lits
		if s == len(src) {
			return out, true
		}
		if len(src)-s < 2 {
			return nil, false
		}
		off := int(binary.LittleEndian.Uint16(src[s:]))
		s += 2
		ml, ok := length(int(tok & 15))
		if !ok || off == 0 || off > len(out) || len(out)+ml+lzMinMatch > limit {
			return nil, false
		}
		for range ml + lzMinMatch {
			out = append(out, out[len(out)-off])
		}
	}
	return nil, false // a stream ends after a sequence's literals
}

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

// FuzzBlockCodec holds the codec to two rules. Whatever the encoder is
// given comes back from lzDecode byte for byte — through one warm
// encoder, whose table the earlier inputs left behind. And arbitrary
// bytes decoded to an arbitrary declared length never panic or write
// outside dst, and succeed exactly when the reference decoder yields
// that many bytes, which they must then be; a block body declaring more
// than its stream could decode to is refused before anything is sized
// from it.
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
	var enc lzEncoder
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		stream := enc.encode(nil, data)
		got := make([]byte, len(data))
		if err := lzDecode(got, stream); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes: %v", len(data), err)
		}

		if n > lzMaxExpansion*uint64(len(data)) || n > math.MaxInt32 {
			body := append(binary.AppendUvarint([]byte{codecLZ}, n), data...)
			var err error
			if grew := heapGrowth(func() { _, err = decodeBlockBody(body, nil) }); err == nil || grew > decodeHeapBound(len(body)) {
				t.Fatalf("a %d-byte stream declaring %d bytes: %v, %d bytes allocated", len(data), n, err, grew)
			}
			return
		}
		if n > 1<<20 {
			return // the decoder's paths are all reached below a MiB; spare the memory
		}
		guarded := make([]byte, n+8)
		dst := guarded[:n:n]
		err := lzDecode(dst, data)
		if !bytes.Equal(guarded[n:], make([]byte, 8)) {
			t.Fatal("lzDecode wrote past dst")
		}
		want, ok := refDecode(data, int(n))
		if ok = ok && len(want) == int(n); ok != (err == nil) {
			t.Fatalf("lzDecode of %x into %d bytes: %v; the reference decodes %d bytes (ok %v)", data, n, err, len(want), ok)
		}
		if ok && !bytes.Equal(dst, want) {
			t.Fatalf("lzDecode of %x differs from the reference", data)
		}
	})
}

// TestLZDecodeRefuses names the stream defects lzDecode must refuse, each
// with its error.
func TestLZDecodeRefuses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
		n      int
		want   error
	}{
		{"no stream", nil, 0, errLZTruncated},
		{"offset 0", []byte{0x10, 'a', 0, 0, 0x10, 'b'}, 6, errLZOffset},
		{"offset before the start", []byte{0x10, 'a', 2, 0, 0x10, 'b'}, 6, errLZOffset},
		{"match past dst", []byte{0x10, 'a', 1, 0, 0x10, 'b'}, 5, errLZOverrun},
		{"literals past dst", []byte{0x30, 'a', 'b', 'c'}, 2, errLZOverrun},
		{"literals past the stream", []byte{0x30, 'a', 'b'}, 3, errLZTruncated},
		{"length extension past the stream", []byte{0xF0, 255}, 1000, errLZTruncated},
		{"torn offset", []byte{0x10, 'a', 1}, 5, errLZTruncated},
		{"no closing literals", []byte{0x10, 'a', 1, 0}, 5, errLZTruncated},
		{"short of dst", []byte{0x10, 'a'}, 2, errLZShort},
	} {
		if err := lzDecode(make([]byte, tc.n), tc.stream); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// An overlapping match is a run: "a" then 19 more from one back.
	dst := make([]byte, 21)
	if err := lzDecode(dst, []byte{0x1F, 'a', 1, 0, 0, 0x10, 'b'}); err != nil || string(dst) != "aaaaaaaaaaaaaaaaaaaab" {
		t.Fatalf("overlapping match: %q, %v", dst, err)
	}
}

// TestBlockCodecAllocatesNothing: the decoder and a warm encoder (its
// table in place, its destination grown) allocate nothing per block.
func TestBlockCodecAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	payloads := tweetBlocks(t, 2000)
	enc := new(lzEncoder)
	var stream []byte
	for _, p := range payloads {
		stream = enc.encode(stream[:0], p)
	}
	dst := make([]byte, len(payloads[0]))
	stream = enc.encode(stream[:0], payloads[0])
	if n := testing.AllocsPerRun(100, func() {
		if err := lzDecode(dst, stream); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("lzDecode: %v allocations per block, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		stream = enc.encode(stream[:0], payloads[i%len(payloads)])
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
	if codecs := blockCodecs(t, rf); !bytes.Equal(codecs, []byte{codecStored}) {
		t.Fatalf("an incompressible block has codec %v, want stored", codecs)
	}
	checkGoldenRun(t, rf, stored)
}

// BenchmarkBlockCodec encodes and decodes the blocks of a tweet-shaped
// run: MB/s of decoded payload each way, and the compression ratio.
func BenchmarkBlockCodec(b *testing.B) {
	payloads := tweetBlocks(b, 20_000)
	var raw, compressed int
	enc := new(lzEncoder)
	streams := make([][]byte, len(payloads))
	for i, p := range payloads {
		streams[i] = enc.encode(nil, p)
		raw += len(p)
		compressed += len(streams[i])
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		var stream []byte
		for b.Loop() {
			for _, p := range payloads {
				stream = enc.encode(stream[:0], p)
			}
		}
		b.ReportMetric(float64(raw)/float64(compressed), "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		dst := make([]byte, 0, 2*runBlockTarget)
		for b.Loop() {
			for i, s := range streams {
				if err := lzDecode(dst[:len(payloads[i])], s); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(raw)/float64(compressed), "ratio")
	})
}
