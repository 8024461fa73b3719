package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqlparser"
)

// conn is one pooled connection: a v2-protocol client with its bound
// session. database/sql serializes use of a conn, matching the
// history-dependence of compliance decisions (one conn = one trace).
type conn struct {
	cl *proxy.Client
}

var (
	_ sqldriver.Conn           = (*conn)(nil)
	_ sqldriver.QueryerContext = (*conn)(nil)
	_ sqldriver.ExecerContext  = (*conn)(nil)
	_ sqldriver.Pinger         = (*conn)(nil)
)

func (c *conn) Close() error { return c.cl.Close() }

// Prepare computes the statement's parameter count eagerly (NumInput
// is how database/sql validates arguments client-side). The text
// itself still travels per execution: preparation is a client-side
// affair in the v2 protocol, and the server's parse cache plus the
// checker's statement plans, keyed by the shared parsed statement,
// make re-submission as cheap as a server-side prepared statement.
func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.prepare(query)
}

func (c *conn) PrepareContext(_ context.Context, query string) (sqldriver.Stmt, error) {
	return c.prepare(query)
}

func (c *conn) prepare(query string) (sqldriver.Stmt, error) {
	n := -1 // unknown: skip client-side arity checking
	if parsed, err := sqlparser.ParseNorm(query); err == nil {
		n = sqlparser.NumPositionalParams(parsed)
	}
	return &stmt{c: c, query: query, numInput: n}, nil
}

// Begin exists to satisfy driver.Conn. The engine has no transactional
// storage; Commit is a no-op and Rollback reports the limitation.
func (c *conn) Begin() (sqldriver.Tx, error) {
	return noopTx{}, nil
}

func (c *conn) Ping(ctx context.Context) error {
	_, err := c.cl.Stats(ctx)
	return err
}

func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	res, err := c.cl.Query(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	n, err := c.cl.Exec(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(n)}, nil
}

// convertArgs maps driver values to wire arguments. Ordinal-only: the
// protocol's named parameters (?Name) are bound server-side from
// session attributes, not from client args.
func convertArgs(args []sqldriver.NamedValue) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, errors.New("beyond: named sql arguments are not supported (session attributes bind ?Name parameters)")
		}
		switch v := a.Value.(type) {
		case int64, float64, bool, string, nil:
			out[i] = v
		case []byte:
			out[i] = string(v)
		case time.Time:
			out[i] = v.UTC().Format(time.RFC3339Nano)
		default:
			return nil, fmt.Errorf("beyond: unsupported argument type %T", a.Value)
		}
	}
	return out, nil
}

// stmt is a client-prepared statement.
type stmt struct {
	c        *conn
	query    string
	numInput int
}

var (
	_ sqldriver.Stmt             = (*stmt)(nil)
	_ sqldriver.StmtQueryContext = (*stmt)(nil)
	_ sqldriver.StmtExecContext  = (*stmt)(nil)
)

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	return s.c.QueryContext(ctx, s.query, args)
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	return s.c.ExecContext(ctx, s.query, args)
}

func namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(args))
	for i, v := range args {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// rows adapts a proxy result set to driver.Rows.
type rows struct {
	res *proxy.Rows
	i   int
}

func (r *rows) Columns() []string { return r.res.Columns }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []sqldriver.Value) error {
	if r.i >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.i]
	r.i++
	for j := range dest {
		if j < len(row) {
			dest[j] = row[j].Any()
		} else {
			dest[j] = nil
		}
	}
	return nil
}

// result carries the affected-row count; the engine has no
// auto-increment ids.
type result struct {
	affected int64
}

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("beyond: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return r.affected, nil }

// noopTx satisfies database/sql's transaction plumbing for
// applications that wrap reads in Begin/Commit out of habit. There is
// nothing to commit — every statement is already applied — so Commit
// succeeds and Rollback reports the limitation instead of silently
// dropping writes.
type noopTx struct{}

func (noopTx) Commit() error { return nil }

func (noopTx) Rollback() error {
	return errors.New("beyond: transactions are not supported; ROLLBACK has no effect")
}
