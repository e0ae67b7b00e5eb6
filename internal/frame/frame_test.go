package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// class names the error class a reader returned.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrShort):
		return "short"
	case errors.Is(err, ErrCRC):
		return "crc"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrEmpty):
		return "empty"
	}
	return "io: " + err.Error()
}

// probe records the largest buffer a reader asked its source to fill:
// the allocation it sized from the frame header.
type probe struct {
	*bytes.Reader
	asked int
}

func (p *probe) Read(b []byte) (int, error) {
	p.asked = max(p.asked, len(b))
	return p.Reader.Read(b)
}

func (p *probe) ReadAt(b []byte, off int64) (int, error) {
	p.asked = max(p.asked, len(b))
	return p.Reader.ReadAt(b, off)
}

// readAll runs the three read entry points over the same bytes and
// fails unless they agree on the payload and on the error class, or if
// one of them sized a buffer beyond the limit. It returns what they
// agreed on.
func readAll(t testing.TB, data []byte, limit int64) ([]byte, string) {
	t.Helper()
	at, stream := &probe{Reader: bytes.NewReader(data)}, &probe{Reader: bytes.NewReader(data)}
	p1, size, err1 := Decode(data, limit)
	p2, err2 := ReadAt(at, 0, limit)
	p3, err3 := Read(stream, limit, nil)
	c := class(err1)
	if class(err2) != c || class(err3) != c {
		t.Fatalf("error classes differ: Decode %v, ReadAt %v, Read %v", err1, err2, err3)
	}
	if !bytes.Equal(p1, p2) || !bytes.Equal(p1, p3) {
		t.Fatalf("payloads differ: Decode %x, ReadAt %x, Read %x", p1, p2, p3)
	}
	if err1 == nil && size != HeaderSize+len(p1) {
		t.Fatalf("Decode size %d for a %d-byte payload", size, len(p1))
	}
	if err1 != nil && (p1 != nil || p2 != nil || p3 != nil) {
		t.Fatalf("payload returned beside %v", err1)
	}
	if most := int64(max(at.asked, stream.asked)); most > max(limit, HeaderSize) {
		t.Fatalf("a reader sized a %d-byte buffer under a %d-byte limit", most, limit)
	}
	return p1, c
}

// testFrames cuts the committed format fixtures of the three framed
// formats into their frames; a seeded set of random payloads rides
// along.
func testFrames(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, g := range []struct {
		path         string
		head, footer int // bytes around the frame sequence
	}{
		{"../lsm/testdata/wal-v1.golden", 8, 0},
		{"../lsm/testdata/run-v3.golden", 8, 16},
		{"../wire/testdata/conversation-v2.golden", 0, 0},
	} {
		data, err := os.ReadFile(filepath.FromSlash(g.path))
		if err != nil {
			t.Fatal(err)
		}
		data = data[g.head : len(data)-g.footer]
		for len(data) > 0 {
			_, size, err := Decode(data, int64(len(data)))
			if err != nil {
				t.Fatalf("%s: %v", g.path, err)
			}
			frames = append(frames, data[:size])
			data = data[size:]
		}
	}
	if len(frames) < 14+2+3 {
		t.Fatalf("only %d golden frames", len(frames))
	}
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 300} {
		buf := Begin(nil)
		for i := 0; i < n; i++ {
			buf = append(buf, byte(rng.Intn(256)))
		}
		Seal(buf, 0)
		frames = append(frames, buf)
	}
	return frames
}

// TestEnvelopeDifferential: the three readers return the same payload
// for every frame, and for every truncation point and every single-bit
// flip the same error class — without panicking and without sizing a
// buffer beyond the caller's limit (readAll checks both).
func TestEnvelopeDifferential(t *testing.T) {
	for _, framed := range testFrames(t) {
		want := framed[HeaderSize:]
		limit := int64(len(want)) + 16
		check := func(data []byte, intact bool) {
			got, c := readAll(t, data, limit)
			if intact != (c == "ok") || intact && !bytes.Equal(got, want) {
				t.Fatalf("intact=%v: class %q, payload %x", intact, c, got)
			}
		}
		check(framed, true)
		check(append(framed[:len(framed):len(framed)], 0xAA, 0xBB), true) // what follows a frame is not its business
		for cut := 0; cut < len(framed); cut++ {
			check(framed[:cut], false)
		}
		mut := make([]byte, len(framed))
		for bit := 0; bit < 8*len(framed); bit++ {
			copy(mut, framed)
			mut[bit/8] ^= 1 << (bit % 8)
			check(mut, false)
		}
	}
}

// TestEnvelopeErrorClasses pins which class each defect falls in.
func TestEnvelopeErrorClasses(t *testing.T) {
	framed := Begin(nil)
	framed = append(framed, "payload"...)
	Seal(framed, 0)
	long, hostile := append([]byte(nil), framed...), append([]byte(nil), framed...)
	binary.LittleEndian.PutUint32(long, 1000)
	binary.LittleEndian.PutUint32(hostile, 1<<31)
	for _, tc := range []struct {
		name  string
		data  []byte
		limit int64
		want  string
	}{
		{"intact", framed, 7, "ok"},
		{"no bytes", nil, 7, "short"},
		{"torn header", framed[:5], 7, "short"},
		{"torn payload", framed[:12], 7, "short"},
		{"zero length", make([]byte, 16), 7, "empty"},
		{"over the limit", framed, 6, "too-large"},
		{"hostile length", hostile, 1 << 20, "too-large"},
		{"declared past the end", long, 1 << 20, "short"},
		{"flipped payload", append(framed[:14:14], framed[14]^1), 7, "crc"},
	} {
		if _, got := readAll(t, tc.data, tc.limit); got != tc.want {
			t.Errorf("%s: class %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestReadReusesBuffer: the stream reader allocates only when the
// caller's buffer is too small.
func TestReadReusesBuffer(t *testing.T) {
	framed := Begin(nil)
	framed = append(framed, "0123456789"...)
	Seal(framed, 0)
	buf := make([]byte, 0, 64)
	r := bytes.NewReader(framed)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(framed)
		p, err := Read(r, 64, buf)
		if err != nil || &p[0] != &buf[:1][0] {
			t.Fatalf("payload not in the caller's buffer: %v", err)
		}
	}); n > 1 { // the header array escapes through io.Reader
		t.Fatalf("Read allocated %v times per frame", n)
	}
}

func TestReader(t *testing.T) {
	var b []byte
	b = append(b, "IDEA"...)
	b = append(b, 7)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendUvarint(b, 2) // count of two strings
	b = append(b, 1, 'a', 2, 'b', 'c')
	b = adm.AppendBinary(b, adm.String("v"))
	b = adm.AppendBinary(b, adm.Int(-9))

	r := NewReader(b)
	if got := string(r.Take(4)); got != "IDEA" {
		t.Fatalf("Take = %q", got)
	}
	if r.Byte() != 7 || r.Uvarint() != 300 || r.Count(2) != 2 || r.Str() != "a" || r.Str() != "bc" {
		t.Fatalf("scalar mismatch: %v", r.Err())
	}
	if v := r.Value(); v.StringVal() != "v" {
		t.Fatalf("Value = %v", v)
	}
	if enc := r.Encoded(); !bytes.Equal(enc, adm.AppendBinary(nil, adm.Int(-9))) {
		t.Fatalf("Encoded = %x", enc)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	// Every way of asking for more than the payload holds fails, sticks,
	// and zeroes whatever is read afterwards.
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, bad := range map[string]func(r *Reader){
		"Take past end":    func(r *Reader) { r.Take(len(b) + 1) },
		"Take negative":    func(r *Reader) { r.Take(-1) },
		"Count over rest":  func(r *Reader) { *r = NewReader(append(huge, 0)); r.Count(1) },
		"Count unit":       func(r *Reader) { *r = NewReader([]byte{2, 0, 0, 0, 0, 0}); r.Count(3) },
		"Int over max":     func(r *Reader) { *r = NewReader(huge); r.Int(1 << 31) },
		"Str over rest":    func(r *Reader) { *r = NewReader(huge); _ = r.Str() },
		"Uvarint torn":     func(r *Reader) { *r = NewReader([]byte{0x80}); r.Uvarint() },
		"Uvarint overlong": func(r *Reader) { *r = NewReader(bytes.Repeat([]byte{0xFF}, 11)); r.Uvarint() },
		"Value corrupt":    func(r *Reader) { *r = NewReader([]byte{0xEE}); r.Value() },
		"Encoded corrupt":  func(r *Reader) { *r = NewReader([]byte{0xEE}); r.Encoded() },
		"Byte at end":      func(r *Reader) { *r = NewReader(nil); r.Byte() },
	} {
		r := NewReader(b)
		bad(&r)
		first := r.Err()
		if first == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if r.Take(1) != nil || r.Byte() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || r.Int(9) != 0 || r.Str() != "" || r.Value().Kind() != 0 || r.Encoded() != nil {
			t.Errorf("%s: reads after the failure returned data", name)
		}
		if r.Err() != first || r.Done() != first {
			t.Errorf("%s: the first error did not stick", name)
		}
	}
	r = NewReader([]byte{1, 2})
	r.Byte()
	if r.Len() != 1 || r.Done() == nil {
		t.Fatal("trailing byte not reported")
	}
}

// FuzzFrame: on arbitrary bytes the three readers agree, sealing
// round-trips, and a Reader driven by the bytes themselves never
// panics, never grows, and never yields data after its first error.
func FuzzFrame(f *testing.F) {
	for _, framed := range testFrames(f) {
		f.Add(framed, uint16(len(framed)))
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		payload, _ := readAll(t, data, int64(limit))
		if len(payload) > int(limit) {
			t.Fatalf("%d-byte payload under limit %d", len(payload), limit)
		}
		if len(data) > 0 {
			sealed := append(Begin(nil), data...)
			Seal(sealed, 0)
			if got, c := readAll(t, sealed, int64(len(data))); c != "ok" || !bytes.Equal(got, data) {
				t.Fatalf("sealed frame read back as %q %x", c, got)
			}
		}
		r := NewReader(data)
		for _, op := range data {
			before, failed := r.Len(), r.Err() != nil
			var got int
			switch op % 7 {
			case 0:
				got = len(r.Take(int(op) / 7))
			case 1:
				got = int(r.Byte())
			case 2:
				got = int(r.Uvarint() & 0xFFFF)
			case 3:
				got = r.Int(uint64(op))
			case 4:
				if got = r.Count(1 + int(op)/64); got > before {
					t.Fatalf("count %d from %d bytes", got, before)
				}
			case 5:
				got = len(r.Str())
			case 6:
				got = int(r.Value().Kind())
			}
			if r.Len() > before || failed && (got != 0 || r.Len() != before) {
				t.Fatalf("op %d: len %d -> %d, got %d, failed before: %v", op%7, before, r.Len(), got, failed)
			}
		}
		if r.Done() == nil && r.Len() != 0 {
			t.Fatal("Done accepted trailing bytes")
		}
	})
}
