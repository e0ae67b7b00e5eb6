package driver

import (
	"database/sql/driver"
	"fmt"
	"io"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/wire"
)

// rows streams one result set. Next takes rows out of the current
// batch frame and reads the next frame only when the batch runs dry,
// so memory stays bounded by one batch regardless of result size.
type rows struct {
	c       *conn
	cols    []string
	release func() // stops the ctx guard armed by QueryContext

	batch    *wire.BatchReader
	done     bool  // Trailer or Error consumed; stream is over
	finalErr error // terminal error to report from Next after done
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.cols }

// Next implements driver.Rows: it yields the next row, fetching the
// next RowBatch frame when the current one is exhausted. io.EOF after
// the Trailer.
func (r *rows) Next(dest []driver.Value) error {
	for {
		if r.batch != nil && r.batch.Len() > 0 {
			v, ok, err := r.batch.Next()
			if err != nil {
				r.done = true
				return r.c.broken(err)
			}
			if !ok {
				r.batch = nil
				continue
			}
			for i := range dest {
				dest[i] = nil
			}
			if len(dest) > 0 {
				dest[0] = r.value(v)
			}
			return nil
		}
		if r.done {
			if r.finalErr != nil {
				return r.finalErr
			}
			return io.EOF
		}
		t, body, err := r.c.readReply()
		if err != nil {
			r.done = true
			r.finalErr = err
			return err
		}
		switch t {
		case wire.TypeRowBatch:
			if r.c.batch, err = wire.DecodeRowBatch(r.c.batch, body); err != nil {
				r.done = true
				return r.c.broken(err)
			}
			br, err := wire.NewBatchReader(r.c.batch)
			if err != nil {
				r.done = true
				return r.c.broken(err)
			}
			r.batch = br
		case wire.TypeTrailer:
			if _, err := wire.ParseTrailer(body); err != nil {
				r.done = true
				return r.c.broken(err)
			}
			r.done = true
		case wire.TypeError:
			r.done = true
			r.finalErr = r.c.parseErrorFrame(body)
			return r.finalErr
		default:
			r.done = true
			err := r.c.broken(fmt.Errorf("idea driver: unexpected %v frame in result stream", t))
			r.finalErr = err
			return err
		}
	}
}

// value is row v as database/sql sees it (adm.Value.DriverValue):
// scalars as native Go types, composites as their JSON, written from
// the row's wire bytes into the conn's JSON buffer — scanning into an
// idea.Value parses it back. database/sql lets a driver hand out bytes
// it owns until the next Next: it copies them into every destination
// but sql.RawBytes, which is documented to live only that long.
func (r *rows) value(v adm.Value) driver.Value {
	if x, ok := v.Scalar(); ok {
		return x
	}
	r.c.json = adm.AppendJSON(r.c.json[:0], v)
	return aliasBytes(&r.c.json)
}

// aliasBytes returns *p as an interface that points at *p itself
// rather than at a copy: putting a []byte in an interface copies its
// slice header to the heap, which would be one allocation per row. A
// dest value is read only until the next Next, the only writer of *p.
func aliasBytes(p *[]byte) driver.Value {
	v := driver.Value([]byte(nil))
	(*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] = unsafe.Pointer(p)
	return v
}

// Close implements driver.Rows. On early close it asks the server to
// cancel the cursor (CloseRows) and drains the stream to its Trailer
// or Error so the session is clean for the next request.
func (r *rows) Close() error {
	defer func() {
		if r.release != nil {
			r.release()
			r.release = nil
		}
	}()
	if r.done {
		return nil
	}
	// The batch in hand is abandoned; tell the server to stop. A
	// CloseRows racing the natural end of the stream is fine — the
	// server ignores it once the Trailer is in flight. The write runs
	// concurrently with the drain below: over an unbuffered transport
	// (net.Pipe) the server can be blocked mid-write itself, so writing
	// before reading would deadlock — reads and writes on a wire.Conn
	// are independent halves, one goroutine each is safe.
	werr := make(chan error, 1)
	go func() { werr <- r.c.request(wire.TypeCloseRows, nil) }()
	defer func() { <-werr }()
	for !r.done {
		t, body, err := r.c.readReply()
		if err != nil {
			r.done = true
			return err
		}
		switch t {
		case wire.TypeRowBatch:
			// In-flight batches written before the server saw CloseRows,
			// discarded as they are: not decoded.
		case wire.TypeTrailer:
			r.done = true
		case wire.TypeError:
			r.done = true
			// The statement was canceled at our request; the session
			// stays usable, so this is not a Close failure.
			if _, perr := wire.ParseError(body); perr != nil {
				return r.c.broken(perr)
			}
		default:
			r.done = true
			return r.c.broken(fmt.Errorf("idea driver: unexpected %v frame draining result stream", t))
		}
	}
	return nil
}

var _ driver.Rows = (*rows)(nil)
