package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// fakeConn adapts in-memory buffers to net.Conn for deterministic
// framing tests (deadlines are no-ops; PollFrame is tested over real
// TCP below).
type fakeConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (f *fakeConn) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, errors.New("no read side")
	}
	return f.r.Read(p)
}
func (f *fakeConn) Write(p []byte) (int, error)        { return f.w.Write(p) }
func (f *fakeConn) Close() error                       { return nil }
func (f *fakeConn) LocalAddr() net.Addr                { return nil }
func (f *fakeConn) RemoteAddr() net.Addr               { return nil }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

func connOver(data []byte) *Conn {
	return NewConn(&fakeConn{r: bytes.NewReader(data)})
}

func TestFrameRoundTrip(t *testing.T) {
	fc := &fakeConn{}
	wc := NewConn(fc)
	bodies := [][]byte{
		[]byte("hello"),
		nil,
		bytes.Repeat([]byte{0xAB}, 100_000),
	}
	types := []Type{TypeQuery, TypePing, TypeRowBatch}
	for i, b := range bodies {
		if err := wc.WriteFrame(types[i], b); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := wc.BytesWritten(); got != int64(fc.w.Len()) {
		t.Fatalf("BytesWritten = %d, wrote %d", got, fc.w.Len())
	}
	rc := connOver(fc.w.Bytes())
	for i, want := range bodies {
		typ, body, err := rc.ReadFrame(MaxFrame)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != types[i] {
			t.Fatalf("frame %d type = %v, want %v", i, typ, types[i])
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("frame %d body mismatch (%d vs %d bytes)", i, len(body), len(want))
		}
	}
	if got := rc.BytesRead(); got != int64(fc.w.Len()) {
		t.Fatalf("BytesRead = %d, want %d", got, fc.w.Len())
	}
}

// TestFrameBuffersGrowGeometrically: a connection reads 1 000 frames of
// random sizes up to S with O(log S) allocations, because its read
// buffer at least doubles whenever a payload does not fit, and
// AppendFrame grows a writer's scratch the same way, and so does
// DecodeRowBatch the buffer a reader decodes coded row batches into.
// The sizes come in ascending order, the worst case — every frame the
// largest yet — where growing to exactly each new size took an
// allocation per frame.
func TestFrameBuffersGrowGeometrically(t *testing.T) {
	const frames, S = 1000, 1 << 14
	r := rand.New(rand.NewSource(57))
	sizes := make([]int, frames)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(S)
	}
	slices.Sort(sizes)
	body := make([]byte, S)
	var stream []byte
	coded := make([][]byte, len(sizes))
	enc := new(frame.Encoder)
	for i, n := range sizes {
		stream = AppendFrame(stream, TypeRowBatch, body[:n])
		coded[i] = enc.AppendBody(nil, body[:n])
	}
	bound := float64(bits.Len(S) + 8) // the doublings, and the connection's own few
	reads := testing.AllocsPerRun(3, func() {
		c := connOver(stream)
		for _, n := range sizes {
			if _, got, err := c.ReadFrame(MaxFrame); err != nil || len(got) != n {
				t.Fatalf("read a %d-byte body, %v; want %d", len(got), err, n)
			}
		}
	})
	writes := testing.AllocsPerRun(3, func() {
		var scratch []byte
		for _, n := range sizes {
			scratch = AppendFrame(scratch[:0], TypeRowBatch, body[:n])
		}
	})
	decodes := testing.AllocsPerRun(3, func() {
		var buf []byte
		for i, n := range sizes {
			var err error
			if buf, err = DecodeRowBatch(buf, coded[i]); err != nil || len(buf) != n {
				t.Fatalf("decoded a %d-byte body, %v; want %d", len(buf), err, n)
			}
		}
	})
	t.Logf("%d frames up to %d bytes: %v allocations reading, %v writing, %v decoding", frames, S, reads, writes, decodes)
	if reads > bound || writes > bound || decodes > bound {
		t.Errorf("%d frames up to %d bytes: %v allocations reading, %v writing, %v decoding; want <= %v each", frames, S, reads, writes, decodes, bound)
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	data := AppendFrame(nil, TypePing, []byte("payload"))
	data[len(data)-1] ^= 0xFF // flip a payload byte; the CRC must catch it
	_, _, err := connOver(data).ReadFrame(MaxFrame)
	if !errors.Is(err, frame.ErrCRC) {
		t.Fatalf("err = %v, want frame.ErrCRC", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A declared length over the cap must be refused before any
	// allocation.
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	_, _, err := connOver(hdr[:]).ReadFrame(MaxHandshakeFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}

	// A legal frame that merely exceeds the caller's bound is refused
	// the same way (handshake cap vs regular frames).
	data := AppendFrame(nil, TypeHello, bytes.Repeat([]byte{1}, MaxHandshakeFrame+1))
	_, _, err = connOver(data).ReadFrame(MaxHandshakeFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var hdr [frameHeaderSize]byte // length 0
	_, _, err := connOver(hdr[:]).ReadFrame(MaxFrame)
	if err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{Version: Version},
		{Version: Version, Token: "s3cret"},
	} {
		got, err := ParseHello(AppendHello(nil, h))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v, want %+v", got, h)
		}
	}
	if _, err := ParseHello([]byte("NOPE\x01\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ParseHello(append(AppendHello(nil, Hello{Version: 1}), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := Welcome{Version: Version, Server: "ideaserver"}
	got, err := ParseWelcome(AppendWelcome(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("got %+v, want %+v", got, w)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := Request{
		Text: `SELECT VALUE t FROM Tweets t WHERE t.score > $1 AND t.lang = $lang`,
		Params: []Param{
			{Name: "1", Value: adm.Double(4.5)},
			{Name: "lang", Value: adm.String("en")},
			{Name: "obj", Value: adm.ObjectValue(adm.ObjectFromPairs(
				"id", adm.Int(7),
				"tags", adm.Array([]adm.Value{adm.String("x"), adm.Null()}),
			))},
		},
	}
	got, err := ParseRequest(AppendRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != req.Text || len(got.Params) != len(req.Params) {
		t.Fatalf("got %+v", got)
	}
	for i, p := range got.Params {
		if p.Name != req.Params[i].Name || adm.Compare(p.Value, req.Params[i].Value) != 0 {
			t.Fatalf("param %d: got %s=%v", i, p.Name, p.Value)
		}
	}
	if _, err := ParseRequest(append(AppendRequest(nil, req), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Columns: []string{"value"}}
	got, err := ParseHeader(AppendHeader(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 1 || got.Columns[0] != "value" {
		t.Fatalf("got %+v", got)
	}
}

// TestRowBatchBuiltRowByRow: a body BeginRowBatch began, each row
// appended as it comes and EndRowBatch closed, is AppendRowBatch's body
// byte for byte, whatever the length of its count's uvarint — built in
// a buffer reused from batch to batch, the way a session builds them.
func TestRowBatchBuiltRowByRow(t *testing.T) {
	rows := make([]adm.Value, 20000)
	for i := range rows {
		switch i % 3 {
		case 0:
			rows[i] = adm.Int(int64(i))
		case 1:
			rows[i] = adm.String(string(rune('a' + i%26)))
		default:
			rows[i] = adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(int64(i)), "tags", adm.Array([]adm.Value{adm.Null()})))
		}
	}
	var buf []byte
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, len(rows)} {
		buf = BeginRowBatch(buf)
		for _, v := range rows[:n] {
			buf = adm.AppendBinary(buf, v)
		}
		if got, want := EndRowBatch(buf, n), AppendRowBatch(nil, rows[:n]); !bytes.Equal(got, want) {
			t.Fatalf("%d rows: a body built row by row differs from AppendRowBatch's (%d bytes, want %d)", n, len(got), len(want))
		}
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := []adm.Value{
		adm.Int(1),
		adm.String("two"),
		adm.ObjectValue(adm.ObjectFromPairs("k", adm.Bool(true))),
		adm.Null(),
	}
	br, err := NewBatchReader(AppendRowBatch(nil, rows))
	if err != nil {
		t.Fatal(err)
	}
	if br.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", br.Len(), len(rows))
	}
	for i, want := range rows {
		v, ok, err := br.Next()
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		if adm.Compare(v, want) != 0 {
			t.Fatalf("row %d = %v, want %v", i, v, want)
		}
	}
	if _, ok, err := br.Next(); ok || err != nil {
		t.Fatalf("overran batch: ok=%v err=%v", ok, err)
	}

	// A count larger than the payload could carry is corrupt.
	bad := binary.AppendUvarint(nil, 1000)
	if _, err := NewBatchReader(bad); err == nil {
		t.Fatal("inflated count accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, e := range []ErrorMsg{
		{Code: CodeUnknownDataset, Message: "idea: unknown dataset"},
		{Code: CodeInternal, Message: "boom", HasStmt: true, Index: 2, Pos: 41, Snippet: "INSERT INTO Nope ..."},
	} {
		got, err := ParseError(AppendError(nil, e))
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("got %+v, want %+v", got, e)
		}
	}
}

func TestExecResultsRoundTrip(t *testing.T) {
	in := []StmtResult{
		{Kind: "CREATE_DATASET", Pos: 0},
		{Kind: "INSERT", Pos: 38, RowsAffected: 12},
		{Kind: "START_FEED", Pos: 90, Feed: "TweetFeed"},
	}
	got, err := ParseExecResults(AppendExecResults(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d results", len(got))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestTrailerAndValueRoundTrip(t *testing.T) {
	tr, err := ParseTrailer(AppendTrailer(nil, Trailer{Rows: 12345}))
	if err != nil || tr.Rows != 12345 {
		t.Fatalf("trailer = %+v, err %v", tr, err)
	}
	v := adm.ObjectValue(adm.ObjectFromPairs("rows_sent", adm.Int(99)))
	got, err := ParseValue(AppendValue(nil, v))
	if err != nil || adm.Compare(got, v) != 0 {
		t.Fatalf("value = %v, err %v", got, err)
	}
	if _, err := ParseValue(append(AppendValue(nil, v), 7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestPollFrame exercises the non-blocking probe over real TCP: quiet
// peer, pending frame, dead peer.
func TestPollFrame(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()
	sc := NewConn(server)

	// Quiet peer: no frame, no error.
	if _, _, got, err := sc.PollFrame(MaxFrame, 10*time.Millisecond, time.Second); got || err != nil {
		t.Fatalf("idle poll: got=%v err=%v", got, err)
	}

	// Pending frame: poll returns it.
	if _, err := client.Write(AppendFrame(nil, TypeCloseRows, nil)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		typ, _, got, err := sc.PollFrame(MaxFrame, 10*time.Millisecond, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			if typ != TypeCloseRows {
				t.Fatalf("type = %v", typ)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// Dead peer: poll reports the broken connection.
	client.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, _, got, err := sc.PollFrame(MaxFrame, 10*time.Millisecond, time.Second)
		if err != nil {
			break
		}
		if got {
			t.Fatal("frame from closed peer")
		}
		if time.Now().After(deadline) {
			t.Fatal("close never observed")
		}
		time.Sleep(time.Millisecond)
	}
}

// tweetRows are n tweet-shaped rows, the shape most result sets carry.
func tweetRows(n int) []adm.Value {
	rows := make([]adm.Value, n)
	for i := range rows {
		id := int64(i)
		rows[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(id),
			"text", adm.String(fmt.Sprintf("tweet %d with the usual amount of padding text in it, more or less", id)),
			"lang", adm.String("en"),
			"country", adm.String("US"),
			"created_at", adm.DateTimeMillis(1_500_000_000_000+id),
			"retweets", adm.Int(id%97),
			"user", adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(id%1000), "name", adm.String("someone"))),
		))
	}
	return rows
}

// TestRowBatchCodedRoundTrip: WriteRowBatch sends a batch of alike rows
// lz-coded, in well under half its raw bytes, and a batch that does not
// shrink stored; DecodeRowBatch gives back each raw body byte for byte,
// and a body of more than MaxFrame is refused before anything is coded.
func TestRowBatchCodedRoundTrip(t *testing.T) {
	noise := make([]byte, 300)
	rand.New(rand.NewSource(70)).Read(noise)
	raws := [][]byte{
		AppendRowBatch(nil, tweetRows(100)),
		AppendRowBatch(nil, []adm.Value{adm.String(string(noise))}),
	}
	fc := &fakeConn{}
	wc := NewConn(fc)
	enc := new(frame.Encoder)
	for _, raw := range raws {
		if err := wc.WriteRowBatch(enc, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := wc.WriteRowBatch(enc, make([]byte, MaxFrame-1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("a body of MaxFrame-1 bytes: %v, want ErrFrameTooLarge", err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	rc := connOver(fc.w.Bytes())
	var buf []byte
	for i, raw := range raws {
		typ, body, err := rc.ReadFrame(MaxFrame)
		if err != nil || typ != TypeRowBatch {
			t.Fatalf("batch %d: %v frame, %v", i, typ, err)
		}
		if want := []byte{frame.CodecLZ, frame.CodecStored}[i]; body[0] != want {
			t.Fatalf("batch %d: codec %d, want %d", i, body[0], want)
		}
		if i == 0 && 2*len(body) > len(raw) {
			t.Errorf("100 tweets: %d raw bytes sent as %d", len(raw), len(body))
		}
		if buf, err = DecodeRowBatch(buf, body); err != nil || !bytes.Equal(buf, raw) {
			t.Fatalf("batch %d: decoded %d bytes unlike the %d sent: %v", i, len(buf), len(raw), err)
		}
	}
	if _, _, err := rc.ReadFrame(MaxFrame); err == nil {
		t.Fatal("a refused batch reached the stream")
	}
}

// BenchmarkRowBatchCodec codes and decodes the raw body of one batch of
// 100 tweet-shaped rows: MB/s of raw body each way, and the ratio.
func BenchmarkRowBatchCodec(b *testing.B) {
	raw := AppendRowBatch(nil, tweetRows(100))
	enc := new(frame.Encoder)
	coded := AppendRowBatchFrame(nil, enc, raw)
	body := coded[frame.HeaderSize+1:]
	ratio := float64(len(raw)) / float64(len(coded))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var dst []byte
		for b.Loop() {
			dst = AppendRowBatchFrame(dst[:0], enc, raw)
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			var err error
			if buf, err = DecodeRowBatch(buf, body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ratio, "ratio")
	})
}
