package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// Message encoders and decoders. Every Append* function extends dst and
// returns it; every Parse* function reads the frame body it is handed
// through a frame.Reader and consumes exactly that body (trailing
// garbage is an error, so a drifted encoder cannot go unnoticed).

// maxInt bounds a scalar that must fit an int on every platform.
const maxInt = math.MaxInt32

// Hello is the client's opening frame.
type Hello struct {
	// Version is the client's wire version; the server refuses
	// mismatches.
	Version byte
	// Token authenticates the session when the server requires it.
	Token string
}

// AppendHello encodes h.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, h.Version)
	return appendString(dst, h.Token)
}

// ParseHello decodes a Hello body.
func ParseHello(body []byte) (Hello, error) {
	r := frame.NewReader(body)
	magic := r.Take(len(Magic))
	if r.Err() == nil && string(magic) != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %q (not an idea client)", magic)
	}
	h := Hello{Version: r.Byte(), Token: r.Str()}
	return h, wrap("hello", r.Done())
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	// Version is the server's wire version (echoed for diagnostics; a
	// mismatch was already refused).
	Version byte
	// Server names the software, e.g. "ideaserver/1".
	Server string
}

// AppendWelcome encodes w.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = append(dst, w.Version)
	return appendString(dst, w.Server)
}

// ParseWelcome decodes a Welcome body.
func ParseWelcome(body []byte) (Welcome, error) {
	r := frame.NewReader(body)
	w := Welcome{Version: r.Byte(), Server: r.Str()}
	return w, wrap("welcome", r.Done())
}

// Param is one bound statement parameter. Name is the parameter name
// without the "$" — positional parameters use "1", "2", ....
type Param struct {
	Name  string
	Value adm.Value
}

// Request is the body of a Query or Execute frame (the frame type
// distinguishes them): statement text plus bound parameters.
type Request struct {
	Text   string
	Params []Param
}

// AppendRequest encodes req.
func AppendRequest(dst []byte, req Request) []byte {
	dst = appendString(dst, req.Text)
	dst = binary.AppendUvarint(dst, uint64(len(req.Params)))
	for _, p := range req.Params {
		dst = appendString(dst, p.Name)
		dst = adm.AppendBinary(dst, p.Value)
	}
	return dst
}

// ParseRequest decodes a Query/Execute body.
func ParseRequest(body []byte) (Request, error) {
	r := frame.NewReader(body)
	req := Request{Text: r.Str()}
	// A parameter is a name length and a value: at least two bytes.
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- {
		req.Params = append(req.Params, Param{Name: r.Str(), Value: r.Value()})
	}
	return req, wrap("request", r.Done())
}

// Header announces a result set: its column names. The engine yields
// one value per row, so today there is exactly one column ("value");
// the wire carries a list so a projected multi-column layout can ship
// without a version bump.
type Header struct {
	Columns []string
}

// AppendHeader encodes h.
func AppendHeader(dst []byte, h Header) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(h.Columns)))
	for _, c := range h.Columns {
		dst = appendString(dst, c)
	}
	return dst
}

// ParseHeader decodes a Header body.
func ParseHeader(body []byte) (Header, error) {
	r := frame.NewReader(body)
	h := Header{Columns: make([]string, r.Count(1))}
	for i := range h.Columns {
		h.Columns[i] = r.Str()
	}
	return h, wrap("header", r.Done())
}

// A RowBatch frame's body is coded (internal/frame's coded body) around
// a raw body: the count of its rows (a uvarint) and then each row's ADM
// encoding. AppendRowBatch, BeginRowBatch/EndRowBatch and BatchReader
// deal in raw bodies; Conn.WriteRowBatch (AppendRowBatchFrame) codes
// one and DecodeRowBatch decodes one.

// AppendRowBatch encodes a raw RowBatch body from rows given as one
// slice (BeginRowBatch builds the same body a row at a time).
func AppendRowBatch(dst []byte, rows []adm.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, v := range rows {
		dst = adm.AppendBinary(dst, v)
	}
	return dst
}

// The count that leads a raw RowBatch body is known only once the last
// row is encoded, so a body is built in memory that keeps rowCountRoom
// bytes for it in front of the rows.
const rowCountRoom = binary.MaxVarintLen64

// BeginRowBatch starts a RowBatch body in dst's memory: append each
// row's ADM encoding (adm.AppendBinary) to the slice it returns, and
// EndRowBatch makes the body of what was appended.
func BeginRowBatch(dst []byte) []byte {
	return append(dst[:0], make([]byte, rowCountRoom)...)
}

// EndRowBatch writes the count of the n rows appended to b, a body
// BeginRowBatch began, right before them and returns the body, a
// suffix of b: the bytes AppendRowBatch encodes those rows to.
func EndRowBatch(b []byte, n int) []byte {
	var count [rowCountRoom]byte
	k := binary.PutUvarint(count[:], uint64(n))
	start := rowCountRoom - k
	copy(b[start:], count[:k])
	return b[start:]
}

// DecodeRowBatch returns the raw body a RowBatch frame's coded body
// carries, decoded into buf's memory: buf grows, doubling (frame.Grow),
// only when the body does not fit, so a reader that hands each result
// back as the next call's buf allocates O(log size) times over a
// stream. The declared length is checked against the coded bytes and
// against MaxFrame before buf grows for it.
func DecodeRowBatch(buf, body []byte) ([]byte, error) {
	n, err := frame.BodyLen(body, MaxFrame)
	if err != nil {
		return buf[:0], wrap("row batch", err)
	}
	raw := frame.Grow(buf[:0], n, MaxFrame)[:n]
	return raw, wrap("row batch", frame.DecodeBody(raw, body))
}

// BatchReader reads a raw RowBatch body incrementally. The body may
// alias a buffer the reader reuses for the next frame (a Conn's read
// buffer, the driver's decode buffer): the BatchReader must be
// exhausted before then, and so must every object row it returned —
// see Next.
type BatchReader struct {
	r   frame.Reader
	rem int
}

// NewBatchReader wraps one raw RowBatch body.
func NewBatchReader(body []byte) (*BatchReader, error) {
	r := frame.NewReader(body)
	n := r.Count(1) // each value takes at least one byte
	if err := r.Err(); err != nil {
		return nil, wrap("row batch", err)
	}
	return &BatchReader{r: r, rem: n}, nil
}

// Len reports the rows remaining.
func (r *BatchReader) Len() int { return r.rem }

// Next returns the next row; ok is false at exhaustion. An object row
// is not decoded: it is a view of the body (adm.View), valid only as
// long as the body's bytes are — over a Conn, until its next ReadFrame.
// Render it (adm.AppendJSON) or copy it (Detached) before then. A row
// of any other kind is decoded and owns its memory.
func (r *BatchReader) Next() (v adm.Value, ok bool, err error) {
	if r.rem == 0 {
		return adm.Value{}, false, wrap("row batch", r.r.Done())
	}
	v = r.r.View()
	if err := r.r.Err(); err != nil {
		return adm.Value{}, false, wrap("row batch", err)
	}
	r.rem--
	return v, true, nil
}

// Trailer ends a clean result stream.
type Trailer struct {
	// Rows is the total number of rows the server sent.
	Rows uint64
}

// AppendTrailer encodes t.
func AppendTrailer(dst []byte, t Trailer) []byte {
	return binary.AppendUvarint(dst, t.Rows)
}

// ParseTrailer decodes a Trailer body.
func ParseTrailer(body []byte) (Trailer, error) {
	r := frame.NewReader(body)
	t := Trailer{Rows: r.Uvarint()}
	return t, wrap("trailer", r.Done())
}

// ErrorMsg is a typed error frame. Code is one of the Code* constants;
// when the failure happened inside a multi-statement script, HasStmt is
// set and Index/Pos/Snippet locate it (the wire form of
// idea.StatementError).
type ErrorMsg struct {
	Code    string
	Message string
	HasStmt bool
	Index   int
	Pos     int
	Snippet string
}

// AppendError encodes e.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = appendString(dst, e.Code)
	dst = appendString(dst, e.Message)
	if !e.HasStmt {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(e.Index))
	dst = binary.AppendUvarint(dst, uint64(e.Pos))
	return appendString(dst, e.Snippet)
}

// ParseError decodes an Error body.
func ParseError(body []byte) (ErrorMsg, error) {
	r := frame.NewReader(body)
	e := ErrorMsg{Code: r.Str(), Message: r.Str()}
	if r.Byte() != 0 {
		e.HasStmt = true
		e.Index, e.Pos, e.Snippet = r.Int(maxInt), r.Int(maxInt), r.Str()
	}
	return e, wrap("error frame", r.Done())
}

// StmtResult is the wire form of one idea.Result: what a statement of
// an Execute script did. Feed carries the name of a feed started by a
// START FEED statement ("" otherwise) — handles don't cross the wire,
// names do; the feed is controlled with STOP FEED / STATS.
type StmtResult struct {
	Kind         string
	Pos          int
	RowsAffected int
	Feed         string
}

// AppendExecResults encodes per-statement results.
func AppendExecResults(dst []byte, results []StmtResult) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for _, res := range results {
		dst = appendString(dst, res.Kind)
		dst = binary.AppendUvarint(dst, uint64(res.Pos))
		dst = binary.AppendUvarint(dst, uint64(res.RowsAffected))
		dst = appendString(dst, res.Feed)
	}
	return dst
}

// ParseExecResults decodes an ExecResult body.
func ParseExecResults(body []byte) ([]StmtResult, error) {
	r := frame.NewReader(body)
	// A result is two string lengths and two scalars: at least four bytes.
	out := make([]StmtResult, r.Count(4))
	for i := range out {
		out[i] = StmtResult{Kind: r.Str(), Pos: r.Int(maxInt), RowsAffected: r.Int(maxInt), Feed: r.Str()}
	}
	return out, wrap("exec results", r.Done())
}

// AppendValue encodes one adm value (StatsReply bodies).
func AppendValue(dst []byte, v adm.Value) []byte { return adm.AppendBinary(dst, v) }

// ParseValue decodes a body that is exactly one adm value.
func ParseValue(body []byte) (adm.Value, error) {
	r := frame.NewReader(body)
	v := r.Value()
	return v, wrap("value frame", r.Done())
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// wrap names the message a payload error came from.
func wrap(what string, err error) error {
	if err != nil {
		return fmt.Errorf("wire: %s: %w", what, err)
	}
	return nil
}
