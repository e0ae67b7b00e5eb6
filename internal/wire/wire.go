// Package wire implements the ideaserver client/server protocol: a
// framed, versioned binary protocol shared by the server
// (internal/server) and the database/sql driver (driver). It reuses the
// storage layer's byte envelope (internal/frame — a wire frame is a WAL
// frame) and the storage layer's value serialization (adm.AppendBinary
// / adm.DecodeBinary, BinaryVersion 1) for statement parameters and
// result rows, so a value round-trips the network in the same bytes it
// would occupy in the write-ahead log.
//
// Frame grammar (strings uvarint-length-prefixed; the envelope itself
// is docs/ARCHITECTURE.md, "Byte envelope"):
//
//	frame    := envelope(payload)
//	payload  := type:1B body
//	string   := len:uvarint bytes
//	value    := adm binary encoding (BinaryVersion 1)
//	rowbatch := coded(count:uvarint value{count})
//
// coded(p) is the storage layer's coded body (internal/frame, body.go)
// — the codec byte and then p stored as it is or p's length and its lz
// stream, the layout a run-file block has on disk. The server chooses
// the codec per batch from its bytes: lz, unless the stream saves no
// byte. RowBatch is the one coded message; every other body is plain.
//
// Conversation. The client speaks first: a Hello frame carrying the
// protocol magic, the wire version, and an optional auth token. The
// server answers Welcome (or Error and closes). After the handshake the
// protocol is strict request/response with at most ONE statement in
// flight per connection:
//
//	Ping          -> Pong | Error
//	Stats         -> StatsReply | Error
//	Execute(req)  -> ExecResult | Error
//	Query(req)    -> Error
//	              |  Header RowBatch* (Trailer | Error)
//
// A Query's response streams: the server flushes the Header, then each
// RowBatch as it is filled from the engine's pull cursor, then a
// Trailer. The client may interrupt a stream by sending CloseRows; the
// server tears down its cursor and replies with a Trailer promptly
// (discard RowBatch frames until it arrives). A CloseRows that races
// with the natural end of the stream is ignored by the server, so the
// client never deadlocks: the Trailer it is waiting for is already in
// flight.
//
// Version is a tripwire exactly like adm.BinaryVersion: any change to
// the frame grammar or message layouts must bump it, and the golden
// tests under testdata fail loudly on accidental drift.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/ideadb/idea/internal/frame"
)

// Version is the wire-protocol version carried in the handshake. Bump
// on any incompatible change to framing or message layouts.
const Version = 2

// Magic opens every Hello frame; a server reading anything else is
// talking to something that does not speak this protocol.
const Magic = "IDEA"

const (
	// MaxFrame bounds any post-handshake frame payload (a row batch is
	// bounded by the server's batch size, but a single record can be
	// large).
	MaxFrame = 64 << 20
	// MaxHandshakeFrame bounds the first, pre-auth frame so an
	// unauthenticated peer cannot make the server allocate.
	MaxHandshakeFrame = 4 << 10

	frameHeaderSize = frame.HeaderSize // named by the golden and framing tests
)

// Type tags a frame payload.
type Type byte

// Frame types. Client-to-server types are odd-looking on purpose: the
// direction is fixed per type, so a peer speaking out of turn is a
// protocol error, not a parse ambiguity.
const (
	TypeHello      Type = 0x01 // c->s: magic, version, auth token
	TypeWelcome    Type = 0x02 // s->c: version, server name
	TypeQuery      Type = 0x03 // c->s: one SELECT + params
	TypeExecute    Type = 0x04 // c->s: statement script + params
	TypePing       Type = 0x05 // c->s: liveness probe
	TypePong       Type = 0x06 // s->c: liveness answer
	TypeStats      Type = 0x07 // c->s: admin counters request
	TypeStatsReply Type = 0x08 // s->c: adm object of counters
	TypeCloseRows  Type = 0x09 // c->s: abandon the open stream
	TypeHeader     Type = 0x0A // s->c: result-set column names
	TypeRowBatch   Type = 0x0B // s->c: coded body of uvarint count + values
	TypeTrailer    Type = 0x0C // s->c: end of rows + total row count
	TypeError      Type = 0x0D // s->c: typed error, optional stmt position
	TypeExecResult Type = 0x0E // s->c: per-statement result summaries
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeWelcome:
		return "Welcome"
	case TypeQuery:
		return "Query"
	case TypeExecute:
		return "Execute"
	case TypePing:
		return "Ping"
	case TypePong:
		return "Pong"
	case TypeStats:
		return "Stats"
	case TypeStatsReply:
		return "StatsReply"
	case TypeCloseRows:
		return "CloseRows"
	case TypeHeader:
		return "Header"
	case TypeRowBatch:
		return "RowBatch"
	case TypeTrailer:
		return "Trailer"
	case TypeError:
		return "Error"
	case TypeExecResult:
		return "ExecResult"
	}
	return fmt.Sprintf("Type(0x%02x)", byte(t))
}

// Error codes carried by TypeError frames. The server maps engine
// errors onto codes with errors.Is; the driver maps codes back onto the
// public sentinels so errors.Is(err, idea.ErrUnknownDataset) works
// across the wire.
const (
	CodeInternal        = "internal"
	CodeProtocol        = "protocol"
	CodeAuth            = "auth"
	CodeTooManySessions = "too_many_sessions"
	CodeClosed          = "closed"
	CodeCanceled        = "canceled"
	CodeUnknownDataset  = "unknown_dataset"
	CodeUnknownFunction = "unknown_function"
	CodeUnknownFeed     = "unknown_feed"
	CodeFeedNotRunning  = "feed_not_running"
	CodeFeedOverloaded  = "feed_overloaded"
	CodePartitionDown   = "partition_down"
)

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// caller's size bound — a corrupt length or a hostile peer.
var ErrFrameTooLarge = frame.ErrTooLarge

// AppendFrame appends one framed payload (type byte + body) to dst and
// returns the extended slice. It is the single encoder behind
// Conn.WriteFrame; golden tests use it directly to pin frame bytes.
func AppendFrame(dst []byte, t Type, body []byte) []byte {
	start := len(dst)
	// Grown as frame.Read grows a read buffer: doubling, so a stream of
	// ever larger replies reallocates the writer's scratch O(log size)
	// times. No frame past MaxFrame is sent, so it never doubles past one.
	dst = frame.Grow(dst, frame.HeaderSize+1+len(body), start+frame.HeaderSize+MaxFrame)
	dst = append(frame.Begin(dst), byte(t))
	dst = append(dst, body...)
	frame.Seal(dst, start)
	return dst
}

// AppendRowBatchFrame appends one RowBatch frame whose body is raw, a
// RowBatch body as AppendRowBatch or EndRowBatch makes it, coded with
// enc (frame.Encoder.AppendBody). It is the encoder behind
// Conn.WriteRowBatch; golden tests use it directly to pin frame bytes.
func AppendRowBatchFrame(dst []byte, enc *frame.Encoder, raw []byte) []byte {
	start := len(dst)
	// No room is kept for the body: the coder appends it, so a scratch
	// that codes batches grows, geometrically, to the coded size, a
	// quarter of the raw one for rows alike, and not to the raw size.
	dst = append(frame.Begin(dst), byte(TypeRowBatch))
	dst = enc.AppendBody(dst, raw)
	frame.Seal(dst, start)
	return dst
}

// Conn wraps a net.Conn with buffered, framed, CRC-checked I/O and byte
// accounting. It is not safe for concurrent use except for the
// BytesRead/BytesWritten counters, which may be read from any
// goroutine.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	wbuf []byte // frame scratch reused across WriteFrame calls
	rbuf []byte // payload scratch reused across ReadFrame calls

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// NewConn wraps nc.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
}

// NetConn returns the underlying connection (deadline control, Close).
func (c *Conn) NetConn() net.Conn { return c.nc }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// BytesRead reports total bytes consumed by ReadFrame.
func (c *Conn) BytesRead() int64 { return c.bytesIn.Load() }

// BytesWritten reports total bytes produced by WriteFrame.
func (c *Conn) BytesWritten() int64 { return c.bytesOut.Load() }

// WriteFrame buffers one frame; call Flush to push it to the peer.
// Frames larger than MaxFrame are refused before anything is written,
// so an oversized frame never poisons the stream.
func (c *Conn) WriteFrame(t Type, body []byte) error {
	if 1+len(body) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, 1+len(body))
	}
	c.wbuf = AppendFrame(c.wbuf[:0], t, body)
	return c.write()
}

// WriteRowBatch buffers one RowBatch frame whose body codes raw, a
// RowBatch body as AppendRowBatch or EndRowBatch makes it, with enc:
// coded straight into the frame scratch, with no copy of raw. A raw
// body that could not be sent stored is refused, as WriteFrame refuses
// one, before anything is coded.
func (c *Conn) WriteRowBatch(enc *frame.Encoder, raw []byte) error {
	if 2+len(raw) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, 2+len(raw))
	}
	c.wbuf = AppendRowBatchFrame(c.wbuf[:0], enc, raw)
	return c.write()
}

// write hands the frame in the scratch to the buffered writer.
func (c *Conn) write() error {
	n, err := c.bw.Write(c.wbuf)
	c.bytesOut.Add(int64(n))
	return err
}

// Flush pushes buffered frames to the peer — the streaming side calls
// it once per row batch, which is what makes the response incremental.
func (c *Conn) Flush() error { return c.bw.Flush() }

// ReadFrame reads one frame, verifying its CRC. The returned body
// aliases an internal buffer that the NEXT ReadFrame call overwrites:
// decode (or copy) before reading again. maxSize bounds the payload
// (use MaxHandshakeFrame before auth, MaxFrame after).
func (c *Conn) ReadFrame(maxSize int) (Type, []byte, error) {
	payload, err := frame.Read(c.br, int64(maxSize), c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf = payload
	c.bytesIn.Add(int64(frame.HeaderSize + len(payload)))
	return Type(payload[0]), payload[1:], nil
}

// Buffered reports bytes already read from the peer but not yet
// consumed by ReadFrame.
func (c *Conn) Buffered() int { return c.br.Buffered() }

// PollFrame checks for a frame, waiting at most wait for its first
// byte: it returns (type, body, true, nil) when a complete frame is
// available, (0, nil, false, nil) when the peer sent nothing within
// wait, and an error when the connection is broken. The streaming
// server calls it between row batches to notice CloseRows (and client
// death) promptly. An already-expired deadline cannot be used here —
// Go fails such reads before attempting the syscall, so pending data
// would never surface; a short future deadline makes the peek see
// buffered bytes immediately and an idle peer after wait. readTimeout
// bounds the frame read once its first byte has arrived.
func (c *Conn) PollFrame(maxSize int, wait, readTimeout time.Duration) (Type, []byte, bool, error) {
	if c.br.Buffered() == 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return 0, nil, false, err
		}
		// bufio clears a returned read error, so the reader stays usable
		// after a timed-out peek.
		_, err := c.br.Peek(1)
		if derr := c.nc.SetReadDeadline(time.Time{}); derr != nil && err == nil {
			err = derr
		}
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return 0, nil, false, nil
			}
			return 0, nil, false, err
		}
	}
	if readTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
			return 0, nil, false, err
		}
		defer c.nc.SetReadDeadline(time.Time{})
	}
	t, body, err := c.ReadFrame(maxSize)
	if err != nil {
		return 0, nil, false, err
	}
	return t, body, true, nil
}
