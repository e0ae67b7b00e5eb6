package driver

import (
	"context"
	"crypto/tls"
	"database/sql/driver"
	"fmt"
	"net"
	"net/url"
	"strings"
	"time"

	"github.com/ideadb/idea/internal/wire"
)

// Dialer opens the transport for one connection. The default dials
// TCP; tests inject net.Pipe ends to run driver and server in one
// process without a socket.
type Dialer func(ctx context.Context) (net.Conn, error)

// Option customizes a Connector.
type Option func(*Connector)

// WithDialer replaces the transport dial (the net.Pipe test seam; also
// useful for proxies and in-process servers).
func WithDialer(d Dialer) Option {
	return func(c *Connector) { c.dial = d }
}

// Connector implements database/sql/driver.Connector: a parsed DSN
// plus dial configuration. Safe for concurrent use; database/sql calls
// Connect whenever its pool grows.
type Connector struct {
	addr    string
	token   string
	tlsConf *tls.Config
	dial    Dialer
}

// NewConnector parses a DSN (see the package comment for the grammar)
// and applies opts. Use with sql.OpenDB to skip the global driver
// registry:
//
//	conn, _ := driver.NewConnector("127.0.0.1:7654")
//	db := sql.OpenDB(conn)
func NewConnector(dsn string, opts ...Option) (*Connector, error) {
	c := &Connector{}
	if err := c.parseDSN(dsn); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.dial == nil {
		addr := c.addr
		c.dial = func(ctx context.Context) (net.Conn, error) {
			d := net.Dialer{Timeout: 10 * time.Second}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return c, nil
}

func (c *Connector) parseDSN(dsn string) error {
	raw := dsn
	if !strings.Contains(raw, "://") {
		raw = "idea://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("idea driver: bad DSN %q: %w", dsn, err)
	}
	if u.Scheme != "idea" {
		return fmt.Errorf("idea driver: bad DSN %q: scheme %q (want idea://)", dsn, u.Scheme)
	}
	if u.Host == "" || u.Path != "" {
		return fmt.Errorf("idea driver: bad DSN %q: want [idea://][token@]host:port", dsn)
	}
	c.addr = u.Host
	if u.User != nil {
		c.token = u.User.Username()
	}
	q := u.Query()
	if tok := q.Get("token"); tok != "" {
		c.token = tok
	}
	useTLS := false
	switch v := q.Get("tls"); v {
	case "", "false", "0":
	case "true", "1":
		useTLS = true
	default:
		return fmt.Errorf("idea driver: bad DSN %q: tls=%q (want true/false)", dsn, v)
	}
	skipVerify := false
	switch v := q.Get("tls-skip-verify"); v {
	case "", "false", "0":
	case "true", "1":
		skipVerify = true
	default:
		return fmt.Errorf("idea driver: bad DSN %q: tls-skip-verify=%q (want true/false)", dsn, v)
	}
	if useTLS || skipVerify {
		host := u.Hostname()
		c.tlsConf = &tls.Config{ServerName: host, InsecureSkipVerify: skipVerify}
	}
	for k := range q {
		switch k {
		case "token", "tls", "tls-skip-verify":
		default:
			return fmt.Errorf("idea driver: bad DSN %q: unknown parameter %q", dsn, k)
		}
	}
	return nil
}

// Connect dials, optionally wraps TLS, and performs the wire
// handshake. ctx bounds the whole exchange.
func (c *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	nc, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	if c.tlsConf != nil {
		tc := tls.Client(nc, c.tlsConf)
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, fmt.Errorf("idea driver: TLS handshake: %w", err)
		}
		nc = tc
	}
	cn := &conn{nc: nc, wc: wire.NewConn(nc)}
	release := cn.guard(ctx)
	defer release()
	body := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Token: c.token})
	if err := cn.wc.WriteFrame(wire.TypeHello, body); err != nil {
		nc.Close()
		return nil, fmt.Errorf("idea driver: handshake: %w", err)
	}
	if err := cn.wc.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("idea driver: handshake: %w", err)
	}
	t, reply, err := cn.wc.ReadFrame(wire.MaxHandshakeFrame)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("idea driver: handshake: %w", err)
	}
	switch t {
	case wire.TypeWelcome:
		if _, err := wire.ParseWelcome(reply); err != nil {
			nc.Close()
			return nil, fmt.Errorf("idea driver: handshake: %w", err)
		}
		return cn, nil
	case wire.TypeError:
		defer nc.Close()
		msg, perr := wire.ParseError(reply)
		if perr != nil {
			return nil, fmt.Errorf("idea driver: handshake: %w", perr)
		}
		return nil, wireError(msg)
	default:
		nc.Close()
		return nil, fmt.Errorf("idea driver: handshake: unexpected %v frame", t)
	}
}

// Driver implements driver.Connector.
func (c *Connector) Driver() driver.Driver { return Driver{} }
