package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// fixedPoint parses body as one message type. A body that parses must
// re-encode to bytes that parse again and re-encode to themselves.
func fixedPoint[T any](t *testing.T, what string, body []byte, parse func([]byte) (T, error), enc func([]byte, T) []byte) {
	t.Helper()
	msg, err := parse(body)
	if err != nil {
		return
	}
	once := enc(nil, msg)
	again, err := parse(once)
	if err != nil {
		t.Fatalf("%s: re-parse of %x: %v", what, once, err)
	}
	if twice := enc(nil, again); !bytes.Equal(once, twice) {
		t.Fatalf("%s: not a fixed point: %x then %x", what, once, twice)
	}
}

// hostileRowBatch is a coded RowBatch body that must not decode, named
// by its defect.
type hostileRowBatch struct {
	name string
	body []byte
}

func hostileRowBatches() []hostileRowBatch {
	raw := AppendRowBatch(nil, []adm.Value{adm.String("a row a row a row a row a row")})
	lz := new(frame.Encoder).AppendBody(nil, raw)
	// An lz stream that really decodes to MaxFrame+1 bytes: a literal,
	// then one match whose length runs on in extension bytes.
	long := []byte{0x1F, 'a', 1, 0}
	long = append(long, bytes.Repeat([]byte{255}, (MaxFrame+1-1-4-15)/255)...)
	long = append(long, byte((MaxFrame+1-1-4-15)%255), 0x00)
	return []hostileRowBatch{
		{"empty body", []byte{}},
		{"unknown codec", append([]byte{7}, raw...)},
		{"torn raw length", []byte{frame.CodecLZ, 0x80}},
		{"raw length past 255 bytes a stream byte", append(binary.AppendUvarint([]byte{frame.CodecLZ}, 255*uint64(len(lz))), lz[2:]...)},
		{"raw length past MaxFrame", append(binary.AppendUvarint([]byte{frame.CodecLZ}, MaxFrame+1), long...)},
		{"raw length one short", append(binary.AppendUvarint([]byte{frame.CodecLZ}, uint64(len(raw)-1)), lz[2:]...)},
		{"truncated stream", lz[:len(lz)-3]},
	}
}

// TestDecodeRowBatchRefuses: each hostile coded body is an error, and
// none makes DecodeRowBatch allocate for the length it declares.
func TestDecodeRowBatchRefuses(t *testing.T) {
	for _, tc := range hostileRowBatches() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRowBatch(nil, tc.body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 4<<10 {
			t.Errorf("%s: %v, %d bytes allocated", tc.name, err, grew)
		}
		if tc.name == "raw length past MaxFrame" {
			// Its stream backs the length: MaxFrame alone refuses it.
			if n, err := frame.BodyLen(tc.body, math.MaxInt32); n != MaxFrame+1 || err != nil {
				t.Errorf("%s: the stream backs %d bytes (%v), want %d", tc.name, n, err, MaxFrame+1)
			}
		}
	}
}

// FuzzWireParse hands arbitrary bytes to every message parser (as a
// frame body), to DecodeRowBatch (as a coded RowBatch body) and to the
// frame reader (as a byte stream): errors or fixed points, never a
// panic, and no allocation the input length does not cover — a hostile
// count or declared length must not size a slice. Every row a batch
// yields is rendered as JSON from the body's bytes, as the driver does,
// and must read as the decoded row does.
func FuzzWireParse(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// A count of MaxInt32 and nothing behind it: ParseHeader and
	// ParseExecResults used to size a slice from it.
	f.Add(binary.AppendUvarint(nil, math.MaxInt32))
	for _, tc := range hostileRowBatches() {
		f.Add(tc.body)
	}
	for rc := connOver(golden); ; {
		_, body, err := rc.ReadFrame(MaxFrame)
		if err != nil {
			break
		}
		f.Add(append([]byte(nil), body...))
	}
	enc := new(frame.Encoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fixedPoint(t, "hello", data, ParseHello, AppendHello)
		fixedPoint(t, "welcome", data, ParseWelcome, AppendWelcome)
		fixedPoint(t, "request", data, ParseRequest, AppendRequest)
		fixedPoint(t, "header", data, ParseHeader, AppendHeader)
		fixedPoint(t, "trailer", data, ParseTrailer, AppendTrailer)
		fixedPoint(t, "error", data, ParseError, AppendError)
		fixedPoint(t, "exec results", data, ParseExecResults, AppendExecResults)
		fixedPoint(t, "value", data, ParseValue, AppendValue)
		batch := func(body []byte) ([]adm.Value, error) {
			br, err := NewBatchReader(body)
			if err != nil {
				return nil, err
			}
			if br.Len() > len(body) {
				t.Fatalf("batch of %d rows in %d bytes", br.Len(), len(body))
			}
			var rows []adm.Value
			for {
				v, ok, err := br.Next()
				if err != nil || !ok {
					return rows, err
				}
				// The driver renders each row from the body's bytes.
				enc := adm.AppendBinary(nil, v)
				decoded, _, derr := adm.DecodeBinary(enc)
				if got, want := adm.AppendJSON(nil, v), adm.AppendJSON(nil, decoded); derr != nil || !bytes.Equal(got, want) {
					t.Fatalf("row %x: JSON %s, decoded %s (%v)", enc, got, want, derr)
				}
				rows = append(rows, v)
			}
		}
		fixedPoint(t, "row batch", data, batch, AppendRowBatch)
		// As a coded body: one that decodes re-codes to a body that
		// decodes to the same raw bytes, which parse as a row batch does.
		if raw, err := DecodeRowBatch(nil, data); err == nil {
			again, err := DecodeRowBatch(nil, enc.AppendBody(nil, raw))
			if err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("coded row batch %x: re-coded decode %x, %v", raw, again, err)
			}
			fixedPoint(t, "coded row batch", raw, batch, AppendRowBatch)
		}
		runtime.ReadMemStats(&after)
		// The multiple is adm's (an array's count is capped by the bytes
		// that remain, at each of up to 200 nesting levels), times the
		// parsers that each try the same bytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+10*200*100*uint64(len(data)) {
			t.Fatalf("parsers allocated %d bytes for a %d-byte body", grew, len(data))
		}

		rc := connOver(data)
		for {
			if _, _, err := rc.ReadFrame(MaxHandshakeFrame); err != nil {
				break
			}
		}
		if rc.BytesRead() > int64(len(data)) {
			t.Fatalf("read %d of %d bytes", rc.BytesRead(), len(data))
		}
	})
}
