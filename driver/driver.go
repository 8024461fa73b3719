// Package driver is a native database/sql driver for the enforcement
// proxy's v2 protocol: an unmodified database/sql program gains policy
// enforcement by swapping its driver name and DSN. Register-on-import:
//
//	import _ "repro/driver"
//
//	db, _ := sql.Open("beyond", "127.0.0.1:7781?MyUId=1")
//	rows, err := db.QueryContext(ctx, "SELECT EId FROM Attendance WHERE UId = ?", 1)
//
// Ordinal arguments fill `?` and `$N` placeholders. A named parameter
// may be written `?Name` or `:Name`; the server's lexer reads both as
// one token.
//
// The DSN is "host:port" optionally followed by ?key=value pairs:
// every key except the reserved "session" becomes a policy session
// attribute (values typed by int -> float -> bool -> text inference);
// "session" names a durable session restored from the proxy's WAL.
//
// Policy blocks surface as *proxy.BlockedError values that unwrap to
// ErrBlocked, so application code branches with
// errors.Is(err, driver.ErrBlocked) on the error database/sql returns
// — typed enforcement outcomes ride the standard API unchanged.
// Context cancellation on any query maps to a server-side cancel of
// the in-flight request (protocol v2 "cancel"), not just a local
// abandon.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/acerr"
	"repro/internal/proxy"
)

// Typed errors, re-exported so driver users need no internal imports.
var (
	// ErrBlocked is the sentinel under every policy refusal.
	ErrBlocked = acerr.ErrBlocked
	// ErrParse marks SQL the server rejected at parse time.
	ErrParse = acerr.ErrParse
	// ErrTooManyConns marks a dial refused by the connection limit.
	ErrTooManyConns = acerr.ErrTooManyConns
	// ErrCanceled marks work aborted by context cancellation.
	ErrCanceled = acerr.ErrCanceled
)

func init() {
	sql.Register("beyond", &Driver{})
}

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

// Open connects with a one-shot connector (DriverContext path is
// preferred by database/sql when available).
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once; database/sql then dials through
// the connector per pooled connection.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &Connector{cfg: cfg, drv: d}, nil
}

var _ sqldriver.DriverContext = (*Driver)(nil)

// dsnConfig is a parsed DSN.
type dsnConfig struct {
	addr    string
	session string         // durable session name; empty = ephemeral
	attrs   map[string]any // policy session attributes
}

func parseDSN(dsn string) (dsnConfig, error) {
	cfg := dsnConfig{attrs: map[string]any{}}
	s := strings.TrimPrefix(dsn, "beyond://")
	addr, query, _ := strings.Cut(s, "?")
	if addr == "" {
		return cfg, fmt.Errorf("beyond: empty address in DSN %q", dsn)
	}
	cfg.addr = addr
	if query == "" {
		return cfg, nil
	}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return cfg, fmt.Errorf("beyond: bad DSN query: %w", err)
	}
	for k, vs := range vals {
		v := ""
		if len(vs) > 0 {
			v = vs[len(vs)-1]
		}
		if k == "session" {
			cfg.session = v
			continue
		}
		cfg.attrs[k] = typeAttr(v)
	}
	return cfg, nil
}

// typeAttr types a DSN attribute string by affinity (int -> float ->
// bool -> text), matching the pgwire listener's startup-parameter
// typing so the same principal keys the same decisions on both
// surfaces.
func typeAttr(s string) any {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	switch strings.ToLower(s) {
	case "true", "t":
		return true
	case "false", "f":
		return false
	}
	return s
}

// Connector dials and binds sessions; it is safe for concurrent use
// by the database/sql pool.
type Connector struct {
	cfg dsnConfig
	drv *Driver
}

// Connect dials the proxy and binds the session attributes (durably
// when the DSN names a session).
func (c *Connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	cl, err := proxy.DialContext(ctx, c.cfg.addr)
	if err != nil {
		return nil, err
	}
	if c.cfg.session != "" {
		_, err = cl.HelloDurable(ctx, c.cfg.session, c.cfg.attrs)
	} else {
		err = cl.Hello(ctx, c.cfg.attrs)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &conn{cl: cl}, nil
}

// Driver returns the parent driver.
func (c *Connector) Driver() sqldriver.Driver { return c.drv }
