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

// FuzzWireParse hands arbitrary bytes to every message parser (as a
// frame body) and to the frame reader (as a byte stream): errors or
// fixed points, never a panic, and no allocation the input length does
// not cover — a hostile count must not size a slice. Every row a batch
// yields is rendered as JSON from the body's bytes, as the driver does,
// and must read as the decoded row does.
func FuzzWireParse(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "conversation-v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// A count of MaxInt32 and nothing behind it: ParseHeader and
	// ParseExecResults used to size a slice from it.
	f.Add(binary.AppendUvarint(nil, math.MaxInt32))
	for rc := connOver(golden); ; {
		_, body, err := rc.ReadFrame(MaxFrame)
		if err != nil {
			break
		}
		f.Add(append([]byte(nil), body...))
	}
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
		fixedPoint(t, "row batch", data, func(body []byte) ([]adm.Value, error) {
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
		}, AppendRowBatch)
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
