package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/acerr"
	"repro/internal/sqlvalue"
)

// ErrBlocked is returned by Client.Query when the proxy blocks the
// query for policy violation. It aliases acerr.ErrBlocked so code can
// errors.Is against either.
var ErrBlocked = acerr.ErrBlocked

// BlockedError carries the proxy's explanation.
type BlockedError struct{ Reason string }

// Error implements error.
func (e *BlockedError) Error() string {
	return fmt.Sprintf("%v: %s", ErrBlocked, e.Reason)
}

// Unwrap makes errors.Is(err, ErrBlocked) work.
func (e *BlockedError) Unwrap() error { return ErrBlocked }

// ClientOption configures a Client at dial time.
type ClientOption func(*Client)

// WithWindow bounds how many requests the client keeps in flight.
// Additional sends block until a response frees a slot. Defaults to
// DefaultMaxInFlight; n < 1 is treated as 1.
func WithWindow(n int) ClientOption {
	if n < 1 {
		n = 1
	}
	return func(c *Client) { c.window = n }
}

// Client is a pipelined connection to the proxy server: each caller
// writes its own request, one demux goroutine reads, and responses
// demux by request ID. Requests on one session lane execute in send
// order; lanes run concurrently. The Client's own Hello, Query, Exec…
// run on lane 0, the connection's default session.
type Client struct {
	def    Lane // lane 0
	conn   net.Conn
	window int
	r      *bufio.Reader

	pmu     sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Response
	dead    error
	sem     chan struct{}

	// wmu guards the buffered writer and the encoder state. waiting
	// counts the callers queued for wmu: a caller flushes only when none
	// is, so the last one in line flushes for all.
	wmu     sync.Mutex
	waiting atomic.Int32
	bw      *bufio.Writer
	wenc    *json.Encoder
	scratch []byte
}

// Dial connects to the proxy.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to the proxy under a context (dial timeout or
// cancellation).
func DialContext(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		window:  DefaultMaxInFlight,
		r:       bufio.NewReader(conn),
		pending: make(map[uint64]chan *Response),
		bw:      bufio.NewWriterSize(conn, 32*1024),
	}
	for _, o := range opts {
		o(c)
	}
	c.def = Lane{c: c}
	c.wenc = json.NewEncoder(c.bw)
	c.sem = make(chan struct{}, c.window)
	go c.demux()
	return c, nil
}

// Close closes the connection; outstanding and later calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}

// Hello establishes the default session's principal. Calling it again
// re-keys the session and resets its history.
func (c *Client) Hello(ctx context.Context, attrs map[string]any) error {
	return c.def.Hello(ctx, attrs)
}

// HelloDurable establishes a named durable session: on a server
// running with a WAL, the session's history is persisted under name
// and survives proxy restarts. It returns how many history entries the
// server restored for the name (0 on a fresh session or a server
// without durability).
func (c *Client) HelloDurable(ctx context.Context, name string, attrs map[string]any) (restored int, err error) {
	return c.def.HelloDurable(ctx, name, attrs)
}

// encodeReq writes one request into the buffered writer, using the
// hand-rolled encoder for common shapes. wmu must be held.
func (c *Client) encodeReq(req *Request) error {
	if buf, ok := appendRequest(c.scratch[:0], req); ok {
		c.scratch = buf[:0]
		_, err := c.bw.Write(buf)
		return err
	}
	return c.wenc.Encode(req)
}

// enqueue writes a request onto the connection and flushes it unless
// another caller waits for wmu; that one (or the last behind it)
// flushes this request with its own. A write failure fails the client,
// so every outstanding and later call gets the error.
func (c *Client) enqueue(req *Request) error {
	c.waiting.Add(1)
	c.wmu.Lock()
	c.waiting.Add(-1)
	err := c.encodeReq(req)
	if err == nil && c.waiting.Load() == 0 {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("proxy connection lost: %w", err)
		c.fail(err)
	}
	return err
}

// demux is the read loop: it routes each response to the pending call
// with the matching ID; a response with no pending call (the reply to
// a fire-and-forget cancel) is dropped. On read failure every
// outstanding and future call gets the error.
func (c *Client) demux() {
	for {
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			c.fail(fmt.Errorf("proxy connection lost: %w", err))
			return
		}
		var resp Response
		if !decodeResponse(line, &resp) {
			resp = Response{}
			if err := decodeResponseJSON(line, &resp); err != nil {
				c.fail(fmt.Errorf("proxy protocol error: %w", err))
				return
			}
		}
		c.pmu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ch != nil {
			// A window slot is owned by the pending entry; removing
			// the entry frees the slot, so senders blocked in start
			// can proceed before anyone calls Wait.
			<-c.sem
			ch <- &resp
		}
	}
}

func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *Response)
	c.pmu.Unlock()
	for _, ch := range pending {
		<-c.sem // each dropped entry held one window slot
		close(ch)
	}
}

// Pending is an in-flight request; Wait blocks for its response.
type Pending struct {
	c   *Client
	id  uint64
	ch  chan *Response
	sql string
}

// respChanPool recycles the one-shot channels that carry a demuxed
// response to its waiter — one per request on the pipelined hot path.
// A channel goes back to the pool only on the clean path (exactly one
// send, received by Wait); failure paths close or abandon their
// channel, which must never be reused.
var respChanPool = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// start sends a request and registers it for demuxing. It blocks
// while the in-flight window is full.
func (c *Client) start(ctx context.Context, req *Request) (*Pending, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, acerr.Canceled(ctx.Err())
	}
	ch := respChanPool.Get().(chan *Response)
	c.pmu.Lock()
	if err := c.dead; err != nil {
		c.pmu.Unlock()
		<-c.sem
		return nil, err
	}
	c.nextID++
	id := c.nextID
	req.ID = id
	c.pending[id] = ch
	c.pmu.Unlock()

	if err := c.enqueue(req); err != nil {
		c.pmu.Lock()
		_, present := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if present {
			<-c.sem
		}
		return nil, err
	}
	return &Pending{c: c, id: id, ch: ch, sql: req.SQL}, nil
}

// Wait blocks until the response arrives or ctx is done. On ctx
// cancellation it fires a best-effort server-side cancel for the
// request and returns an error wrapping acerr.ErrCanceled.
func (p *Pending) Wait(ctx context.Context) (*Response, error) {
	if p.ch == nil {
		return nil, errors.New("proxy: response already consumed")
	}
	select {
	case resp, ok := <-p.ch:
		if !ok {
			p.c.pmu.Lock()
			err := p.c.dead
			p.c.pmu.Unlock()
			if err == nil {
				err = errors.New("proxy connection closed")
			}
			return nil, err
		}
		respChanPool.Put(p.ch)
		p.ch = nil
		return resp, nil
	case <-ctx.Done():
		p.c.pmu.Lock()
		_, present := p.c.pending[p.id]
		delete(p.c.pending, p.id)
		p.c.pmu.Unlock()
		if present {
			<-p.c.sem
		}
		// Fire-and-forget: tell the server to stop working on it. The
		// cancel carries no ID, so demux drops its reply.
		_ = p.c.enqueue(&Request{Op: "cancel", Target: p.id})
		return nil, acerr.Canceled(ctx.Err())
	}
}

// call runs one request to completion.
func (c *Client) call(ctx context.Context, req *Request) (*Response, error) {
	p, err := c.start(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Rows is a client-side result set.
type Rows struct {
	Columns []string
	Rows    [][]sqlvalue.Value
}

// Empty reports whether no rows were returned.
func (r *Rows) Empty() bool { return len(r.Rows) == 0 }

func respToRows(resp *Response) (*Rows, error) {
	if resp.Blocked {
		return nil, &BlockedError{Reason: resp.Reason}
	}
	return &Rows{Columns: resp.Columns, Rows: resp.Rows}, nil
}

// Query runs a SELECT with positional args on the default session; a
// policy block surfaces as a *BlockedError (errors.Is(err, ErrBlocked)).
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return c.def.Query(ctx, sql, args...)
}

// PendingRows is an in-flight query.
type PendingRows struct{ p *Pending }

// Wait blocks for the query's result.
func (pr *PendingRows) Wait(ctx context.Context) (*Rows, error) {
	resp, err := pr.p.Wait(ctx)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, acerr.FromCode(resp.Code, resp.Error)
	}
	return respToRows(resp)
}

// QueryAsync sends a SELECT on the default session without waiting
// for its response, pipelining it behind earlier requests. Responses
// may complete out of order relative to other sessions' queries;
// within the session the server still executes in send order.
func (c *Client) QueryAsync(ctx context.Context, sql string, args ...any) (*PendingRows, error) {
	return c.def.QueryAsync(ctx, sql, args...)
}

// Exec runs a DML statement with positional args on the default
// session.
func (c *Client) Exec(ctx context.Context, sql string, args ...any) (int, error) {
	return c.def.Exec(ctx, sql, args...)
}

// Stats fetches server counters.
func (c *Client) Stats(ctx context.Context) (*StatsBody, error) {
	resp, err := c.def.call(ctx, &Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// BatchItem is one statement of a Batch call.
type BatchItem struct {
	SQL  string
	Args []any
	// Exec marks the item as DML instead of a SELECT.
	Exec bool
}

// BatchResult is one statement's outcome. Exactly one of Rows /
// Affected / Err is meaningful: Err carries blocks (as *BlockedError)
// and failures, Rows the result set of a SELECT, Affected the row
// count of an exec.
type BatchResult struct {
	Rows     *Rows
	Affected int
	Err      error
}

// Batch submits the items in one round trip. They execute in order on
// this client's default session; a blocked or failing item records
// its error and the rest still run.
func (c *Client) Batch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	req := &Request{Op: "batch", Batch: make([]Request, len(items))}
	for i, it := range items {
		op := "query"
		if it.Exec {
			op = "exec"
		}
		req.Batch[i] = Request{Op: op, SQL: it.SQL, Args: it.Args}
	}
	resp, err := c.def.call(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(resp.Batch))
	for i := range resp.Batch {
		sub := &resp.Batch[i]
		switch {
		case sub.Error != "":
			out[i].Err = acerr.FromCode(sub.Code, sub.Error)
		case sub.Blocked:
			out[i].Err = &BlockedError{Reason: sub.Reason}
		case items[i].Exec:
			out[i].Affected = sub.Affected
		default:
			rows, rerr := respToRows(sub)
			out[i].Rows, out[i].Err = rows, rerr
		}
	}
	return out, nil
}

// Lane is a handle for one multiplexed session (SID) over a shared
// connection. Requests on different lanes execute
// concurrently server-side; requests within a lane stay ordered.
type Lane struct {
	c   *Client
	sid uint64
}

// Lane returns the handle for session id sid (0 is the default
// session).
func (c *Client) Lane(sid uint64) *Lane { return &Lane{c: c, sid: sid} }

// call runs one request on this lane and turns an error response
// into a Go error.
func (l *Lane) call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := l.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, acerr.FromCode(resp.Code, resp.Error)
	}
	return resp, nil
}

// Do sends one raw request on this lane and returns the raw response:
// application-level errors stay in Response.Error instead of becoming
// Go errors.
func (l *Lane) Do(ctx context.Context, req *Request) (*Response, error) {
	req.SID = l.sid
	return l.c.call(ctx, req)
}

// Hello keys the lane's session principal. It advertises MaxProto 2,
// which servers that predate single-mode connections need before they
// pipeline.
func (l *Lane) Hello(ctx context.Context, attrs map[string]any) error {
	_, err := l.call(ctx, &Request{Op: "hello", Session: attrs, MaxProto: ProtoV2})
	return err
}

// HelloDurable keys the lane to a named durable session (see
// Client.HelloDurable); it returns how many history entries the server
// restored for the name.
func (l *Lane) HelloDurable(ctx context.Context, name string, attrs map[string]any) (int, error) {
	resp, err := l.call(ctx, &Request{Op: "hello", Session: attrs, MaxProto: ProtoV2, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Restored, nil
}

// Query runs a SELECT on this lane's session.
func (l *Lane) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	resp, err := l.call(ctx, &Request{Op: "query", SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return respToRows(resp)
}

// QueryAsync pipelines a SELECT on this lane's session.
func (l *Lane) QueryAsync(ctx context.Context, sql string, args ...any) (*PendingRows, error) {
	p, err := l.c.start(ctx, &Request{Op: "query", SID: l.sid, SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return &PendingRows{p: p}, nil
}

// Exec runs a DML statement on this lane's session.
func (l *Lane) Exec(ctx context.Context, sql string, args ...any) (int, error) {
	resp, err := l.call(ctx, &Request{Op: "exec", SQL: sql, Args: args})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}
