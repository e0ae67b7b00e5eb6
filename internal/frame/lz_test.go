package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/ideadb/idea/internal/adm"
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

// tweet is a tweet-shaped record: the shape run blocks and row batches
// carry in the benchmark workloads.
func tweet(id int64) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(id),
		"text", adm.String(fmt.Sprintf("tweet %d with the usual amount of padding text in it, more or less", id)),
		"lang", adm.String("en"),
		"country", adm.String("US"),
		"created_at", adm.DateTimeMillis(1_500_000_000_000+id),
		"retweets", adm.Int(id%97),
		"score", adm.Double(float64(id)*0.25),
		"user", adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(id%1000), "name", adm.String("someone"))),
		"tags", adm.Array([]adm.Value{adm.String("a"), adm.String("bb")}),
		"place", adm.Point(float64(id%360), float64(id%180)),
	))
}

// tweetBlocks returns n tweet-shaped records cut into payloads laid out
// as a run's blocks are: a count, then each key and record encoded, a
// block ending once its entries reach 16 KiB.
func tweetBlocks(n int) [][]byte {
	var blocks [][]byte
	var entries []byte
	count := 0
	cut := func() {
		blocks = append(blocks, append(binary.AppendUvarint(nil, uint64(count)), entries...))
		entries, count = entries[:0], 0
	}
	for i := range int64(n) {
		entries = adm.AppendBinary(adm.AppendBinary(entries, adm.Int(i)), tweet(i))
		if count++; len(entries) >= 16<<10 {
			cut()
		}
	}
	if count > 0 {
		cut()
	}
	return blocks
}

// noise is n incompressible letters.
func noise(seed uint64, n int) []byte {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	b := make([]byte, n)
	x := 0x9E3779B97F4A7C15 ^ seed
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = letters[x>>58]
	}
	return b
}

// heapGrowth reports the bytes fn allocated.
func heapGrowth(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzBlockCodec holds the codec to three rules. Whatever the encoder is
// given comes back from its coded body byte for byte — through one warm
// encoder, whose table the earlier inputs left behind. Arbitrary bytes
// decoded to an arbitrary declared length never panic or write outside
// dst, and succeed exactly when the reference decoder yields that many
// bytes, which they must then be. And a coded body declaring more than
// its stream could decode to, or more than the caller's limit, is
// refused before anything is sized from it.
func FuzzBlockCodec(f *testing.F) {
	for _, p := range tweetBlocks(200) {
		f.Add(p, uint64(len(p)))
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x00}, uint64(0))
	f.Add(bytes.Repeat([]byte{'a'}, 300), uint64(300))
	f.Add(noise(1, 100), uint64(100))
	f.Add([]byte{0x1F, 'a', 1, 0, 20, 0x10, 'b'}, uint64(25)) // an overlapping match, an extension byte
	f.Add([]byte{0x10, 'a', 0, 0, 0x10, 'b'}, uint64(6))      // offset 0
	f.Add([]byte{0x10, 'a', 2, 0, 0x10, 'b'}, uint64(6))      // offset before the start
	f.Add([]byte{0xF0, 255, 255, 255}, uint64(1<<40))
	var enc Encoder
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		body := enc.AppendBody(nil, data)
		got := make([]byte, len(data))
		if err := DecodeBody(got, body); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes: %v", len(data), err)
		}
		if len(body) > 1+len(data) {
			t.Fatalf("%d bytes coded to %d, more than stored", len(data), len(body))
		}

		lying := append(binary.AppendUvarint([]byte{CodecLZ}, n), data...)
		if n > lzMaxExpansion*uint64(len(data)) || n > math.MaxInt32 {
			var err error
			if grew := heapGrowth(func() { _, err = BodyLen(lying, math.MaxInt32) }); err == nil || grew > 4<<10 {
				t.Fatalf("a %d-byte stream declaring %d bytes: %v, %d bytes allocated", len(data), n, err, grew)
			}
			return
		}
		if n > 1<<20 {
			return // the decoder's paths are all reached below a MiB; spare the memory
		}
		if _, err := BodyLen(lying, int(n)-1); n > 0 && err == nil {
			t.Fatalf("a body declaring %d bytes passed a limit of %d", n, n-1)
		}
		guarded := make([]byte, n+8)
		dst := guarded[:n:n]
		err := DecodeBody(dst, lying)
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
// with its error, and the coded-body defects BodyLen and DecodeBody must.
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

	for _, tc := range []struct {
		name  string
		body  []byte
		limit int
	}{
		{"no codec byte", nil, 100},
		{"unknown codec", []byte{7, 'a'}, 100},
		{"torn raw length", []byte{CodecLZ, 0x80}, 100},
		{"raw length past the stream's reach", []byte{CodecLZ, 0xE8, 0x07, 0x10, 'a'}, 1 << 20}, // 1000 for 2 bytes
		{"raw length past the limit", []byte{CodecLZ, 21, 0x1F, 'a', 1, 0, 0, 0x10, 'b'}, 20},
		{"stored past the limit", []byte{CodecStored, 'a', 'b'}, 1},
	} {
		if n, err := BodyLen(tc.body, tc.limit); err == nil {
			t.Errorf("%s: BodyLen = %d", tc.name, n)
		}
	}
	if err := DecodeBody(make([]byte, 3), []byte{CodecStored, 'a', 'b'}); err == nil {
		t.Error("a stored body decoded into a destination longer than it")
	}
}

// TestBlockCodecAllocatesNothing: decoding a coded body and a warm
// encoder (its table in place, its destination grown) allocate nothing
// per payload.
func TestBlockCodecAllocatesNothing(t *testing.T) {
	payloads := tweetBlocks(2000)
	enc := new(Encoder)
	var body []byte
	for _, p := range payloads {
		body = enc.AppendBody(body[:0], p)
	}
	dst := make([]byte, len(payloads[0]))
	body = enc.AppendBody(body[:0], payloads[0])
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeBody(dst, body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBody: %v allocations per payload, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		body = enc.AppendBody(body[:0], payloads[i%len(payloads)])
		i++
	}); n != 0 {
		t.Errorf("warm encoder: %v allocations per payload, want 0", n)
	}
}

// BenchmarkBlockCodec encodes and decodes tweet-shaped payloads laid
// out as run blocks: MB/s of decoded payload each way, and the
// compression ratio.
func BenchmarkBlockCodec(b *testing.B) {
	payloads := tweetBlocks(20_000)
	var raw, compressed int
	enc := new(Encoder)
	bodies := make([][]byte, len(payloads))
	for i, p := range payloads {
		bodies[i] = enc.AppendBody(nil, p)
		raw += len(p)
		compressed += len(bodies[i])
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		var body []byte
		for b.Loop() {
			for _, p := range payloads {
				body = enc.AppendBody(body[:0], p)
			}
		}
		b.ReportMetric(float64(raw)/float64(compressed), "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		dst := make([]byte, 0, 2*len(payloads[0]))
		for b.Loop() {
			for i, body := range bodies {
				if err := DecodeBody(dst[:len(payloads[i])], body); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(raw)/float64(compressed), "ratio")
	})
}
