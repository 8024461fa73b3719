package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/proxy"
)

// opKind is what an operation asks the proxy to do.
type opKind uint8

const (
	opQuery opKind = iota // SELECT through the enforcement path
	opExec                // DML, passed through
	opHello               // re-key the session (fresh history)
)

// op is one generated request together with what a correct system must
// answer. The label travels with the op so every phase — closed loop,
// open loop, replay — checks the same thing.
type op struct {
	sess  int32
	kind  opKind
	stmt  int32 // index into the workload's statement table
	block bool  // a correct Enforce-mode proxy blocks this query
	rows  int32 // rows (or affected rows) when allowed; -1 when not fixed
	args  []any
}

// outcome is what came back.
type outcome struct {
	blocked bool
	rows    int
	bytes   int // result payload bytes where the ingress exposes them
	err     error
}

// verify reports why out is not what o expects, or "" when it is. In
// Off mode nothing is decided, so nothing may block.
func verify(o *op, out outcome, enforcing bool) string {
	if out.err != nil {
		return "error: " + out.err.Error()
	}
	want := o.block && enforcing
	if out.blocked != want {
		return fmt.Sprintf("blocked=%v, want %v", out.blocked, want)
	}
	if !out.blocked && o.rows >= 0 && out.rows != int(o.rows) {
		return fmt.Sprintf("rows=%d, want %d", out.rows, o.rows)
	}
	return ""
}

// target is one ingress into a running service. do is synchronous:
// closed-loop clients, open-loop workers and the replay all call it.
// Ops of one session must always come from one goroutine at a time, so
// they reach the server in generated order and every label holds.
type target interface {
	do(ctx context.Context, o *op) outcome
	close()
}

// ---- v2 line protocol ----

// v2Target multiplexes sessions as lanes over a few pipelined TCP
// connections: session s rides connection s mod len(clients).
type v2Target struct {
	clients []*proxy.Client
	lanes   []*proxy.Lane
	stmts   []string
}

// dialV2 opens conns pipelined connections and keys one lane per
// session. names, when non-nil, makes the sessions durable.
func dialV2(ctx context.Context, addr string, conns int, attrs []map[string]any, names []string, stmts []string) (*v2Target, error) {
	t := &v2Target{stmts: stmts}
	for i := 0; i < conns; i++ {
		cl, err := proxy.Dial(addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, cl)
		if err := cl.Hello(ctx, map[string]any{}); err != nil {
			t.close()
			return nil, fmt.Errorf("v2 negotiate: %w", err)
		}
	}
	for s, a := range attrs {
		ln := t.clients[s%conns].Lane(uint64(s + 1))
		var err error
		if names != nil {
			_, err = ln.HelloDurable(ctx, names[s], a)
		} else {
			err = ln.Hello(ctx, a)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("v2 hello session %d: %w", s, err)
		}
		t.lanes = append(t.lanes, ln)
	}
	return t, nil
}

func rowsOutcome(rows *proxy.Rows, err error) outcome {
	if err != nil {
		if errors.Is(err, proxy.ErrBlocked) {
			return outcome{blocked: true}
		}
		return outcome{err: err}
	}
	return outcome{rows: len(rows.Rows)}
}

func (t *v2Target) do(ctx context.Context, o *op) outcome {
	ln := t.lanes[o.sess]
	switch o.kind {
	case opQuery:
		return rowsOutcome(ln.Query(ctx, t.stmts[o.stmt], o.args...))
	case opExec:
		n, err := ln.Exec(ctx, t.stmts[o.stmt], o.args...)
		return outcome{rows: n, err: err}
	}
	return outcome{err: fmt.Errorf("v2 target: unsupported op kind %d", o.kind)}
}

func (t *v2Target) close() {
	for _, cl := range t.clients {
		cl.Close()
	}
}

// ---- in-process and Postgres wire ----

// inprocTarget calls the proxy core directly: no socket, no codec.
type inprocTarget struct {
	srv   *proxy.Server
	sess  []*proxy.Session
	attrs []map[string]any
	names []string // durable session names, or nil
	stmts []string
}

func newInprocTarget(ctx context.Context, srv *proxy.Server, attrs []map[string]any, names, stmts []string) (*inprocTarget, error) {
	t := &inprocTarget{srv: srv, attrs: attrs, names: names, stmts: stmts}
	for s := range attrs {
		t.sess = append(t.sess, proxy.NewSession(nil))
		if out := t.do(ctx, &op{sess: int32(s), kind: opHello}); out.err != nil {
			return nil, fmt.Errorf("inproc hello session %d: %w", s, out.err)
		}
	}
	return t, nil
}

var opNames = [...]string{opQuery: "query", opExec: "exec", opHello: "hello"}

func (t *inprocTarget) do(ctx context.Context, o *op) outcome {
	req := proxy.Request{Op: opNames[o.kind]}
	if o.kind == opHello {
		req.Session = t.attrs[o.sess]
		if t.names != nil {
			req.Name = t.names[o.sess]
		}
	} else {
		req.SQL, req.Args = t.stmts[o.stmt], o.args
	}
	resp := t.srv.HandleInCtx(ctx, &req, t.sess[o.sess])
	if resp.Error != "" {
		return outcome{err: errors.New(resp.Error)}
	}
	if o.kind == opExec {
		return outcome{rows: resp.Affected}
	}
	return outcome{blocked: resp.Blocked, rows: len(resp.Rows)}
}

func (t *inprocTarget) close() {}

// pgTarget drives one Postgres-wire connection per session with
// prepared statements.
type pgTarget struct {
	conns []*pgConn
	names []string
}

func dialPg(addr string, attrs []map[string]any, stmts []string) (*pgTarget, error) {
	t := &pgTarget{}
	for i := range stmts {
		t.names = append(t.names, "s"+strconv.Itoa(i))
	}
	for _, a := range attrs {
		text := make(map[string]string, len(a))
		for k, v := range a {
			text[k] = fmt.Sprint(v)
		}
		c, err := pgDial(addr, text)
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
		for i, sql := range stmts {
			if err := c.prepare(t.names[i], sql); err != nil {
				t.close()
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *pgTarget) do(_ context.Context, o *op) outcome {
	res, err := t.conns[o.sess].exec(t.names[o.stmt], o.args)
	switch {
	case err != nil:
		return outcome{err: err}
	case res.sqlstate == sqlstateBlocked:
		return outcome{blocked: true}
	case res.sqlstate != "":
		return outcome{err: fmt.Errorf("pg %s: %s", res.sqlstate, res.message)}
	}
	return outcome{rows: res.rows, bytes: res.rowBytes}
}

func (t *pgTarget) close() {
	for _, c := range t.conns {
		c.close()
	}
}
