package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"

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

// WithWindow bounds how many requests the client keeps in flight when
// pipelining (protocol v2). Additional sends block until a response
// frees a slot. Defaults to DefaultMaxInFlight; n < 1 is treated as 1.
func WithWindow(n int) ClientOption {
	if n < 1 {
		n = 1
	}
	return func(c *Client) { c.window = n }
}

// Client is a connection to the proxy server. Until Hello negotiates
// protocol v2 it speaks strict request/response; after negotiation it
// pipelines: sends and receives run on separate goroutines, responses
// demux by request ID, and QueryAsync/Batch become available.
type Client struct {
	conn   net.Conn
	window int

	// Serial-mode state (also used for the one negotiating Hello).
	mu  sync.Mutex
	r   *bufio.Reader
	enc *json.Encoder

	// Pipelined-mode state.
	pmu     sync.Mutex
	proto   int
	nextID  uint64
	pending map[uint64]chan *Response
	dead    error
	sem     chan struct{}

	// Pipelined-mode coalescing writer: requests queue on out and the
	// writer goroutine batches each burst into a single flush.
	bw       *bufio.Writer
	wenc     *json.Encoder
	scratch  []byte
	out      chan *Request
	quit     chan struct{}
	quitOnce sync.Once
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
		conn:   conn,
		window: DefaultMaxInFlight,
		r:      bufio.NewReader(conn),
		enc:    json.NewEncoder(conn),
		proto:  ProtoV1,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Close closes the connection; outstanding pipelined calls fail.
func (c *Client) Close() error {
	c.quitOnce.Do(func() {
		if c.quit != nil {
			close(c.quit)
		}
	})
	return c.conn.Close()
}

// Proto reports the negotiated protocol version (ProtoV1 until a
// Hello negotiates higher).
func (c *Client) Proto() int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.proto
}

func (c *Client) pipelined() bool { return c.Proto() >= ProtoV2 }

// roundTrip is the serial-mode exchange: one request, then block for
// its response on the caller's goroutine.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, acerr.Canceled(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var resp Response
	if !decodeResponse(line, &resp) {
		resp = Response{}
		if err := decodeResponseJSON(line, &resp); err != nil {
			return nil, err
		}
	}
	if resp.Error != "" {
		return nil, acerr.FromCode(resp.Code, resp.Error)
	}
	return &resp, nil
}

// Hello establishes the session principal and negotiates the
// protocol: it advertises v2, and if the server agrees the client
// switches to pipelined mode. Calling Hello again re-keys the default
// session (lane 0).
func (c *Client) Hello(ctx context.Context, attrs map[string]any) error {
	_, err := c.hello(ctx, &Request{Op: "hello", Session: attrs, MaxProto: ProtoV2})
	return err
}

// HelloDurable establishes a named durable session: on a server
// running with a WAL, the session's history is persisted under name
// and survives proxy restarts. It returns how many history entries the
// server restored for the name (0 on a fresh session or a server
// without durability). Like Hello, it negotiates protocol v2.
func (c *Client) HelloDurable(ctx context.Context, name string, attrs map[string]any) (restored int, err error) {
	resp, err := c.hello(ctx, &Request{Op: "hello", Session: attrs, MaxProto: ProtoV2, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Restored, nil
}

func (c *Client) hello(ctx context.Context, req *Request) (*Response, error) {
	if c.pipelined() {
		resp, err := c.call(ctx, req)
		if err != nil {
			return nil, err
		}
		if resp.Error != "" {
			return nil, acerr.FromCode(resp.Code, resp.Error)
		}
		return resp, nil
	}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Proto >= ProtoV2 {
		c.pmu.Lock()
		if c.proto < ProtoV2 {
			c.proto = resp.Proto
			c.pending = make(map[uint64]chan *Response)
			c.sem = make(chan struct{}, c.window)
			c.bw = bufio.NewWriterSize(c.conn, 32*1024)
			c.wenc = json.NewEncoder(c.bw)
			c.out = make(chan *Request, c.window+64)
			c.quit = make(chan struct{})
			go c.demux()
			go c.writer()
		}
		c.pmu.Unlock()
	}
	return resp, nil
}

// writer is the pipelined-mode send loop: it drains bursts of queued
// requests and flushes each burst with one write syscall.
func (c *Client) writer() {
	for {
		var req *Request
		select {
		case req = <-c.out:
		case <-c.quit:
			return
		}
		err := c.encodeReq(req)
		yielded := false
	drain:
		for err == nil {
			select {
			case more := <-c.out:
				err = c.encodeReq(more)
			default:
				// Yield once before flushing a short batch so callers
				// mid-send can join this write syscall.
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				break drain
			}
		}
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			c.fail(fmt.Errorf("proxy connection lost: %w", err))
			// Keep draining so senders never block; quit unsticks us.
		}
	}
}

// encodeReq writes one request into the buffered writer, using the
// hand-rolled encoder for common shapes. Only the writer goroutine
// calls it.
func (c *Client) encodeReq(req *Request) error {
	if buf, ok := appendRequest(c.scratch[:0], req); ok {
		c.scratch = buf[:0]
		_, err := c.bw.Write(buf)
		return err
	}
	return c.wenc.Encode(req)
}

// enqueue hands a request to the coalescing writer.
func (c *Client) enqueue(req *Request) error {
	select {
	case c.out <- req:
		return nil
	case <-c.quit:
		return errors.New("proxy client closed")
	}
}

// demux is the pipelined-mode read loop: it routes each response to
// the pending call with the matching ID. On read failure every
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

// Pending is an in-flight pipelined request; Wait blocks for its
// response.
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

// start sends a pipelined request and registers it for demuxing. It
// blocks while the in-flight window is full.
func (c *Client) start(ctx context.Context, req *Request) (*Pending, error) {
	if !c.pipelined() {
		return nil, errors.New("pipelining requires protocol v2 (call Hello first)")
	}
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
		// Fire-and-forget: tell the server to stop working on it.
		_ = p.c.enqueue(&Request{Op: "cancel", Target: p.id})
		return nil, acerr.Canceled(ctx.Err())
	}
}

// call runs one pipelined request to completion.
func (c *Client) call(ctx context.Context, req *Request) (*Response, error) {
	p, err := c.start(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Do sends one raw request and returns the raw response:
// application-level errors stay in Response.Error instead of becoming
// Go errors. Cluster forwarding uses it to relay a peer's responses
// verbatim.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if !c.pipelined() {
		return c.roundTrip(ctx, req)
	}
	return c.call(ctx, req)
}

// Do sends one raw request on this lane; see Client.Do. Requires
// protocol v2.
func (l *Lane) Do(ctx context.Context, req *Request) (*Response, error) {
	req.SID = l.sid
	return l.c.call(ctx, req)
}

// dispatch runs a request in whichever mode the connection is in.
func (c *Client) dispatch(ctx context.Context, req *Request) (*Response, error) {
	if c.pipelined() {
		resp, err := c.call(ctx, req)
		if err != nil {
			return nil, err
		}
		if resp.Error != "" {
			return nil, acerr.FromCode(resp.Code, resp.Error)
		}
		return resp, nil
	}
	return c.roundTrip(ctx, req)
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

// Query runs a SELECT with positional args; a policy block surfaces
// as a *BlockedError (errors.Is(err, ErrBlocked)).
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	resp, err := c.dispatch(ctx, &Request{Op: "query", SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return respToRows(resp)
}

// PendingRows is an in-flight pipelined query.
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

// QueryAsync sends a SELECT without waiting for its response,
// pipelining it behind earlier requests. Requires protocol v2 (call
// Hello first). Responses may complete out of order relative to other
// sessions' queries; within this client's default session the server
// still executes in send order.
func (c *Client) QueryAsync(ctx context.Context, sql string, args ...any) (*PendingRows, error) {
	if !c.pipelined() {
		return nil, errors.New("QueryAsync requires protocol v2 (call Hello first)")
	}
	p, err := c.start(ctx, &Request{Op: "query", SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return &PendingRows{p: p}, nil
}

// Exec runs a DML statement with positional args.
func (c *Client) Exec(ctx context.Context, sql string, args ...any) (int, error) {
	resp, err := c.dispatch(ctx, &Request{Op: "exec", SQL: sql, Args: args})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// Stats fetches server counters.
func (c *Client) Stats(ctx context.Context) (*StatsBody, error) {
	resp, err := c.dispatch(ctx, &Request{Op: "stats"})
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
// its error and the rest still run. Requires protocol v2.
func (c *Client) Batch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if !c.pipelined() {
		return nil, errors.New("Batch requires protocol v2 (call Hello first)")
	}
	req := &Request{Op: "batch", Batch: make([]Request, len(items))}
	for i, it := range items {
		op := "query"
		if it.Exec {
			op = "exec"
		}
		req.Batch[i] = Request{Op: op, SQL: it.SQL, Args: it.Args}
	}
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, acerr.FromCode(resp.Code, resp.Error)
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
// pipelined connection. Requests on different lanes execute
// concurrently server-side; requests within a lane stay ordered.
type Lane struct {
	c   *Client
	sid uint64
}

// Lane returns the handle for session id sid (0 is the default
// session). Requires protocol v2.
func (c *Client) Lane(sid uint64) *Lane { return &Lane{c: c, sid: sid} }

func (l *Lane) call(ctx context.Context, req *Request) (*Response, error) {
	req.SID = l.sid
	resp, err := l.c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, acerr.FromCode(resp.Code, resp.Error)
	}
	return resp, nil
}

// Hello keys the lane's session principal.
func (l *Lane) Hello(ctx context.Context, attrs map[string]any) error {
	_, err := l.call(ctx, &Request{Op: "hello", Session: attrs})
	return err
}

// PendingOK is an in-flight pipelined request whose response carries
// no payload beyond success or failure (a lane hello).
type PendingOK struct{ p *Pending }

// Wait blocks for the request's outcome.
func (po *PendingOK) Wait(ctx context.Context) error {
	resp, err := po.p.Wait(ctx)
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return acerr.FromCode(resp.Code, resp.Error)
	}
	return nil
}

// HelloAsync pipelines the lane's session hello without waiting for
// its response, so mass session setup — the open-loop harness keys
// hundreds of thousands of lanes before driving load — proceeds at
// window depth instead of one round trip per session.
func (l *Lane) HelloAsync(ctx context.Context, attrs map[string]any) (*PendingOK, error) {
	p, err := l.c.start(ctx, &Request{Op: "hello", SID: l.sid, Session: attrs})
	if err != nil {
		return nil, err
	}
	return &PendingOK{p: p}, nil
}

// HelloDurable keys the lane to a named durable session (see
// Client.HelloDurable); it returns how many history entries the server
// restored for the name.
func (l *Lane) HelloDurable(ctx context.Context, name string, attrs map[string]any) (int, error) {
	resp, err := l.call(ctx, &Request{Op: "hello", Session: attrs, Name: name})
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
