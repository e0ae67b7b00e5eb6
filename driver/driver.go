// Package driver is the database/sql driver for idea: it registers as
// "idea" and speaks the ideaserver wire protocol (internal/wire), so
// any Go application can use a remote idea cluster through the
// standard library:
//
//	import (
//		"database/sql"
//
//		_ "github.com/ideadb/idea/driver"
//	)
//
//	db, err := sql.Open("idea", "idea://127.0.0.1:7654")
//	...
//	rows, err := db.QueryContext(ctx,
//		`SELECT VALUE t.text FROM Tweets t WHERE t.score > $1 LIMIT 10`, 5)
//
// DSN grammar:
//
//	[idea://][token@]host:port[?token=T][&tls=true][&tls-skip-verify=true]
//
// Statements follow the engine's split surface: SELECTs go through
// Query*, everything else (DDL, INSERT/UPSERT, feed control) through
// Exec*. Positional arguments bind $1, $2, ...; sql.Named("min", v)
// binds $min. Result sets have one column, "value", holding each row's
// value: scalars arrive as native Go types, objects and arrays as
// their JSON encoding ([]byte) — scan into an idea.Value to get typed
// access back. The JSON is written straight from the row's wire bytes
// into one buffer the next row reuses, so scanning into sql.RawBytes
// costs no allocation per row, and such a RawBytes is valid only until
// the next call to Next (database/sql copies into every other
// destination). Rows stream: the driver reads row batches as the
// server flushes them and never buffers the full result, and closing
// sql.Rows early tears down the server-side cursor.
//
// Transactions are not supported (the engine's unit of atomicity is
// the statement); Begin returns an error.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
)

// Driver implements database/sql/driver.Driver for the "idea" scheme.
type Driver struct{}

func init() {
	sql.Register("idea", Driver{})
}

// Open dials dsn and performs the wire handshake.
func (d Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := NewConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses dsn once; database/sql dials through the
// resulting Connector.
func (d Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	return NewConnector(dsn)
}
