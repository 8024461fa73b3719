package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acerr"
	"repro/internal/checker"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Default hardening knobs (overridable per Server before Listen).
const (
	// DefaultMaxConns bounds simultaneous connections.
	DefaultMaxConns = 1024
	// DefaultMaxLineBytes bounds one request line.
	DefaultMaxLineBytes = 16 * 1024 * 1024
	// DefaultMaxInFlight bounds requests queued or executing per
	// connection; past it the server stops reading and lets TCP flow
	// control push back on the client.
	DefaultMaxInFlight = 64
)

// Server is the enforcement proxy: it owns the database engine and a
// compliance checker and serves the line protocol. The exported knob
// fields must be set before Listen.
type Server struct {
	DB      *engine.DB
	Checker *checker.Checker
	Mode    Mode

	// MaxConns bounds simultaneous connections over every listener,
	// v2 and pgwire together; excess connections get their protocol's
	// refusal (Ingress.Refuse) and are closed. 0 means DefaultMaxConns;
	// negative means unlimited.
	MaxConns int
	// ReadTimeout is the per-connection idle deadline on every
	// listener, in either direction: a connection that sends nothing
	// for this long, or stops reading its responses for this long, is
	// dropped. 0 disables the deadline.
	ReadTimeout time.Duration
	// MaxLineBytes bounds one request line; an over-long line gets a
	// final error Response and the connection is closed. 0 means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// MaxInFlight bounds the per-connection pipelined window: requests
	// queued or executing at once. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// Logf, when set, receives connection-level diagnostics (dropped
	// connections, rejected dials) and the slow-decision log. Defaults
	// to log.Printf.
	Logf func(format string, args ...any)
	// SlowLogThreshold, when positive, turns on the structured
	// slow-decision log: every query whose end-to-end handling takes at
	// least this long emits one JSON line through Logf with the
	// decision, the cache tier that answered, and the per-section
	// breakdown. See DESIGN.md §9 for the schema.
	SlowLogThreshold time.Duration
	// WALDir, when set, turns on durable enforcement state: sessions
	// that hello with a Name get their query history WAL-logged to this
	// directory and restored across restarts (DESIGN.md §11). The WAL
	// opens on Listen (or an explicit OpenDurable) and recovery replays
	// before the first connection is accepted.
	WALDir string
	// WALOpts tunes the WAL (fsync policy, segment size, checkpoint
	// cadence). Zero values mean durable.DefaultOptions semantics.
	WALOpts durable.Options
	// HistoryWindow, when positive, bounds every session trace —
	// durable or ephemeral — to its most recent n entries. Eviction
	// only forgets facts, so windowed decisions are sound, merely more
	// conservative. It is the only window setting: the WAL manager
	// builds its traces with the server's constructor (session.go).
	HistoryWindow int

	// The listener core (listen.go): every listening socket of every
	// ingress, and one table of their connections.
	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
	// closeCtx is the ancestor of every request context served by the
	// listeners; Close cancels it so in-flight checks and scans abort
	// instead of delaying the drain.
	closeCtx    context.Context
	closeCancel context.CancelFunc
	// wal is the durable-state manager (nil without WALDir). walMu
	// serializes OpenDurable end to end — two opens on one directory
	// would mean two logs appending to it — without holding s.mu across
	// recovery and the caller's Logf.
	walMu sync.Mutex
	wal   *durable.Manager

	// Shadow dual-decide state (policy.go): the bounded ring of recent
	// divergence records a policy.diff polls and the monotone diff
	// sequence. Guarded by shadowMu.
	shadowMu sync.Mutex
	diffRing []ShadowDiff
	diffSeq  uint64

	// nextRID mints request ids (Request.RID).
	nextRID atomic.Uint64

	// All counters and the query-latency histogram live in the obsv
	// registry (resolved once by NewServer); the checker's quantile
	// machinery is the same code. obsv instruments are nil-safe, so a
	// disabled registry costs one nil check per bump.
	reg            *obsv.Registry
	mQueries       *obsv.Counter
	mViolations    *obsv.Counter
	mConnsTotal    *obsv.Counter
	mConnsActive   *obsv.Counter
	mConnsRejected *obsv.Counter
	mReqsCanceled  *obsv.Counter
	mFactReused    *obsv.Counter
	mFactTrans     *obsv.Counter
	mSlowQueries   *obsv.Counter
	mQueryLat      *obsv.Histogram
	// Inline-fastpath and write instruments: queries answered on the
	// read goroutine, warm probes that fell back to the lane queue,
	// response frames encoded, and flush syscalls issued — the
	// frames/flushes ratio is the write batching factor.
	mInlineHits   *obsv.Counter
	mInlineBypass *obsv.Counter
	mWriteFrames  *obsv.Counter
	mWriteFlushes *obsv.Counter
	// Shadow instruments: dual-decides executed, divergences (total and
	// by kind), and the end-to-end latency of the dual decision — the
	// overhead a staged candidate adds to the query path.
	mShadowDecides *obsv.Counter
	mShadowDiverge *obsv.Counter
	mShadowTighten *obsv.Counter
	mShadowLoosen  *obsv.Counter
	mShadowLat     *obsv.Histogram
}

// NewServer builds a proxy server over the engine and checker, resolves
// its instruments in the checker's registry, and declares in the engine
// the secondary indexes the active policy pins. The server, the checker
// and the engine so report into one registry, and a `stats` response is
// its snapshot: the object an acproxy -metrics endpoint serves, with
// checker, proxy and engine instruments side by side. A caller who
// wants a shared or a disabled registry gives it to the checker.
func NewServer(db *engine.DB, c *checker.Checker, mode Mode) *Server {
	reg := c.Metrics()
	s := &Server{DB: db, Checker: c, Mode: mode, conns: make(map[net.Conn]struct{}), reg: reg}
	s.mQueries = reg.Counter("proxy.queries")
	s.mViolations = reg.Counter("proxy.violations")
	s.mConnsTotal = reg.Counter("proxy.conns.total")
	s.mConnsActive = reg.Counter("proxy.conns.active")
	s.mConnsRejected = reg.Counter("proxy.conns.rejected")
	s.mReqsCanceled = reg.Counter("proxy.reqs.canceled")
	s.mFactReused = reg.Counter("proxy.factcache.reused")
	s.mFactTrans = reg.Counter("proxy.factcache.translated")
	s.mSlowQueries = reg.Counter("proxy.slow.queries")
	s.mQueryLat = reg.Histogram("proxy.query.micros")
	s.mInlineHits = reg.Counter("proxy.inline.hits")
	s.mInlineBypass = reg.Counter("proxy.inline.bypass")
	s.mWriteFrames = reg.Counter("proxy.write.frames")
	s.mWriteFlushes = reg.Counter("proxy.write.flushes")
	s.mShadowDecides = reg.Counter("proxy.shadow.decides")
	s.mShadowDiverge = reg.Counter("proxy.shadow.divergences")
	s.mShadowTighten = reg.Counter("proxy.shadow.diverge.tighten")
	s.mShadowLoosen = reg.Counter("proxy.shadow.diverge.loosen")
	s.mShadowLat = reg.Histogram("proxy.shadow.micros")
	if db != nil {
		// Scan timings surface alongside decision timings.
		db.SetMetrics(reg)
	}
	s.declareIndexes(c.Policy())
	return s
}

// declareIndexes declares in the engine the secondary indexes p's census
// asks for (policy.Indexes), as each policy enters the checker. Indexes
// are only added, so promote and rollback need none; the schema bounds them.
func (s *Server) declareIndexes(p *policy.Policy) {
	if s.DB == nil {
		return
	}
	for table, cols := range p.Indexes() {
		if err := s.DB.DeclareIndex(table, cols); err != nil {
			s.logf("proxy: declare index on %s%v: %v", table, cols, err)
		}
	}
}

// MetricsRegistry returns the registry the server reports into.
func (s *Server) MetricsRegistry() *obsv.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (s *Server) maxConns() int {
	switch {
	case s.MaxConns > 0:
		return s.MaxConns
	case s.MaxConns < 0:
		return int(^uint(0) >> 1) // unlimited
	default:
		return DefaultMaxConns
	}
}

func (s *Server) maxLineBytes() int {
	if s.MaxLineBytes > 0 {
		return s.MaxLineBytes
	}
	return DefaultMaxLineBytes
}

func (s *Server) maxInFlight() int {
	if s.MaxInFlight > 0 {
		return s.MaxInFlight
	}
	return DefaultMaxInFlight
}

// OpenDurable opens the WAL (WALDir must be set), replaying any
// recovered state, and records the policy identity the server now
// enforces. It is idempotent; Listen calls it automatically. Recovery
// happens here — before any connection — so a restored session's first
// decision already sees its pre-crash history.
func (s *Server) OpenDurable() error {
	if s.WALDir == "" {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.Durable() != nil {
		return nil
	}
	opts := s.WALOpts
	if opts.Metrics == nil {
		opts.Metrics = s.reg
	}
	if opts.Logf == nil {
		opts.Logf = s.logf
	}
	m, err := durable.Open(s.WALDir, opts)
	if err != nil {
		return fmt.Errorf("proxy: open WAL: %w", err)
	}
	m.UseTraces(s.newTrace)
	if rec := m.Recovery(); len(rec.Sessions) > 0 {
		s.logf("proxy: recovered %d durable session(s), %d history entries (checkpoint cut %d, %d segment(s) replayed)",
			len(rec.Sessions), m.RecoveredEntryCount(), rec.CheckpointCut, rec.SegmentsReplayed)
	}
	if s.Checker != nil {
		// A recovered promote outranks the startup policy: the operator
		// promoted it before the crash, so restart scripts pointing at the
		// old policy file must not silently demote it. Rebuild from the
		// persisted view SQL and install it as active (fingerprint-checked
		// so a decode or schema drift falls back to the startup policy).
		if av := m.ActiveVersion(); av != nil && av.Fingerprint != s.Checker.Policy().Fingerprint() {
			if pol, err := policy.New(s.Checker.Policy().Schema, av.Views); err != nil {
				s.logf("proxy: recovered active policy (version id %d) unusable, keeping startup policy: %v", av.ID, err)
			} else if pol.Fingerprint() != av.Fingerprint {
				s.logf("proxy: recovered active policy (version id %d) fingerprint mismatch, keeping startup policy", av.ID)
			} else if _, _, err := s.Checker.SetActivePolicy(pol); err != nil {
				s.logf("proxy: restore recovered active policy: %v", err)
			} else {
				s.declareIndexes(pol)
				s.logf("proxy: restored promoted policy (version id %d) over startup policy", av.ID)
			}
		}
		pol := s.Checker.Policy()
		views := make(map[string]string, len(pol.Views))
		for _, v := range pol.Views {
			views[v.Name] = v.SQL
		}
		id := durable.PolicyID{Fingerprint: pol.Fingerprint(), Views: views}
		if s.DB != nil {
			id.Seq, id.DBHash = s.DB.Seq(), s.DB.ContentHash()
		}
		if err := m.SetPolicy(id); err != nil {
			m.Close()
			return fmt.Errorf("proxy: persist policy snapshot: %w", err)
		}
		// A crash mid-trial restores the trial: re-stage the recovered
		// candidate in the checker. The WAL already holds its stage
		// record — the manager restored it at Open — so this is purely
		// in-memory.
		if cand := m.CandidateVersion(); cand != nil {
			if pol, err := policy.New(s.Checker.Policy().Schema, cand.Views); err != nil {
				s.logf("proxy: recovered candidate policy (version id %d) unusable, dropping: %v", cand.ID, err)
			} else if pol.Fingerprint() != cand.Fingerprint {
				s.logf("proxy: recovered candidate policy (version id %d) fingerprint mismatch, dropping", cand.ID)
			} else if _, err := s.Checker.StagePolicy(pol); err != nil {
				s.logf("proxy: re-stage recovered candidate: %v", err)
			} else {
				s.declareIndexes(pol)
				s.logf("proxy: restored staged candidate policy (version id %d); shadow dual-decide resumes", cand.ID)
			}
		}
	}
	s.mu.Lock()
	s.wal = m
	s.mu.Unlock()
	return nil
}

// Durable exposes the WAL manager (nil when the server runs without
// one); acproxy's drain path and tests use it.
func (s *Server) Durable() *durable.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal
}

// pipeJob is one dispatched request: the decoded request, its
// already-started context (the per-request deadline ticks from
// dispatch, so queue time counts), and the un-registration hook.
type pipeJob struct {
	req  *Request
	ctx  context.Context
	done func()
}

// lane is one session's ordered execution queue. At most one runner
// goroutine drains it at a time (the running flag), so requests within
// a session execute, append to the session's history and answer in
// exactly the order the client sent them. The runner is spawned on
// demand by the dispatch that finds the lane idle and exits when the
// queue empties: an idle session costs its state, not a parked
// goroutine or a window-sized channel. That is what lets one connection multiplex
// hundreds of thousands of sessions (the open-loop harness drives 1M)
// while the goroutine count tracks the in-flight window, not the
// session count.
type lane struct {
	sess *session

	mu      sync.Mutex
	q       []pipeJob
	running bool
}

// push appends a job and reports whether the caller must start a
// runner (the lane was idle). The queue is bounded in practice by the
// connection's in-flight window: every push holds a window slot.
func (ln *lane) push(job pipeJob) (startRunner bool) {
	ln.mu.Lock()
	ln.q = append(ln.q, job)
	if !ln.running {
		ln.running = true
		startRunner = true
	}
	ln.mu.Unlock()
	return
}

// tryClaim atomically claims an idle lane (no runner live, nothing
// queued) for inline execution on the read goroutine. While the claim
// is held no runner can exist — push only starts one when running is
// false — and no new job can be pushed, because the only dispatcher is
// the read goroutine, which is the claim holder. A runner writes each
// answer into the connection's buffer before its next pop, so once its
// last pop has given the lane up every answer it made is ahead of the
// inline one. Together that gives the inline fast path the same
// in-session total order the runner gives queued jobs.
func (ln *lane) tryClaim() bool {
	ln.mu.Lock()
	ok := !ln.running && len(ln.q) == 0
	if ok {
		ln.running = true
	}
	ln.mu.Unlock()
	return ok
}

// releaseClaim returns a claimed lane to idle.
func (ln *lane) releaseClaim() {
	ln.mu.Lock()
	ln.running = false
	ln.mu.Unlock()
}

// pop takes the oldest queued job; ok=false means the queue is empty
// and the runner has relinquished the lane (running=false) — the next
// push starts a fresh runner.
func (ln *lane) pop() (job pipeJob, ok bool) {
	ln.mu.Lock()
	if len(ln.q) == 0 {
		ln.running = false
		ln.mu.Unlock()
		return pipeJob{}, false
	}
	job = ln.q[0]
	ln.q[0] = pipeJob{} // drop references while the tail sits queued
	ln.q = ln.q[1:]
	ln.mu.Unlock()
	return job, true
}

// pipeConn is the per-connection pipelining state. The reader
// goroutine dispatches into session lanes; lane runners execute and
// write their own responses (out of order across lanes) into the
// shared buffered writer; the sem channel is the in-flight window.
type pipeConn struct {
	s    *Server
	ctx  context.Context
	conn net.Conn

	// writeMu guards the buffered writer, the encoder state and dirty.
	// waiting counts the goroutines queued for writeMu: a runner flushes
	// only when none is, so the last one in line flushes for all.
	writeMu sync.Mutex
	waiting atomic.Int32
	bw      *bufio.Writer
	enc     *json.Encoder
	scratch []byte
	// dirty marks responses encoded into bw but not yet flushed: the
	// reader's own (inline answers and control replies) and a runner's
	// that had another goroutine behind it. The reader flushes them
	// (flushPending) just before it would block on the kernel read — see
	// ReadSide — so a pipelined burst of K inline answers costs one
	// write syscall. Guarded by writeMu.
	dirty bool

	sem chan struct{}

	mu       sync.Mutex
	lanes    map[uint64]*lane
	inflight map[uint64]context.CancelFunc

	wg sync.WaitGroup
}

// newPipeConn sets up a connection's pipelining state.
func newPipeConn(s *Server, ctx context.Context, conn net.Conn) *pipeConn {
	bw := bufio.NewWriterSize(conn, 64*1024)
	return &pipeConn{
		s:        s,
		ctx:      ctx,
		conn:     conn,
		bw:       bw,
		enc:      json.NewEncoder(bw),
		sem:      make(chan struct{}, s.maxInFlight()),
		lanes:    make(map[uint64]*lane),
		inflight: make(map[uint64]context.CancelFunc),
	}
}

// lockWrite takes writeMu, counted in waiting while it waits.
func (pc *pipeConn) lockWrite() {
	pc.waiting.Add(1)
	pc.writeMu.Lock()
	pc.waiting.Add(-1)
}

// encodeResp writes one response into the buffered writer, using the
// hand-rolled encoder for common shapes. writeMu must be held. A
// failed write closes the connection (see writeFailed).
func (pc *pipeConn) encodeResp(resp *Response) error {
	pc.s.mWriteFrames.Inc()
	var err error
	if buf, ok := appendResponse(pc.scratch[:0], resp); ok {
		pc.scratch = buf[:0]
		_, err = pc.bw.Write(buf)
	} else {
		err = pc.enc.Encode(resp)
	}
	return pc.writeFailed(err)
}

// flush flushes the buffered writer and clears the dirty mark (a
// flush empties bw wholesale). writeMu must be held.
func (pc *pipeConn) flush() error {
	pc.dirty = false
	pc.s.mWriteFlushes.Inc()
	return pc.writeFailed(pc.bw.Flush())
}

// writeFailed closes the connection when a write fails, typically on
// the ReadTimeout deadline of a client that stopped reading: the
// reader, however it is blocked behind a writer, then fails its next
// read and ends the connection.
func (pc *pipeConn) writeFailed(err error) error {
	if err != nil {
		_ = pc.conn.Close()
	}
	return err
}

// answer writes a lane runner's response, takes the lane's next job
// (pop), and only then flushes, unless another goroutine waits for
// writeMu; that one (or the last behind it) flushes this response with
// its own. Popping before the flush means the runner's last answer
// leaves with the lane already given up: a client that sends its next
// read on receiving it finds the lane idle, and a warm read is answered
// inline instead of queuing behind a runner about to exit. The answer
// is in the buffer before the pop, so it still precedes any inline one.
func (pc *pipeConn) answer(ln *lane, resp *Response) (next pipeJob, more bool) {
	pc.lockWrite()
	err := pc.encodeResp(resp)
	next, more = ln.pop()
	if err == nil {
		if pc.waiting.Load() == 0 {
			_ = pc.flush()
		} else {
			pc.dirty = true
		}
	}
	pc.writeMu.Unlock()
	return next, more
}

// park writes one of the reader's own responses (an inline answer or a
// control reply) WITHOUT flushing, marking the connection dirty; the
// flush happens when the reader is about to block (ReadSide →
// flushPending) or when a runner next flushes.
func (pc *pipeConn) park(resp *Response) {
	pc.lockWrite()
	if err := pc.encodeResp(resp); err == nil {
		pc.dirty = true
	}
	pc.writeMu.Unlock()
}

// flushPending flushes responses parked in the buffered writer, if
// any. The reader's ReadSide calls it just before it would block on
// the kernel read, so a client waiting for its answer always gets it
// before the server waits for the client.
func (pc *pipeConn) flushPending() error {
	pc.lockWrite()
	var err error
	if pc.dirty {
		err = pc.flush()
	}
	pc.writeMu.Unlock()
	return err
}

// lane returns (creating on first use) the ordered queue for a
// session ID; lane 0 is the connection's default session. Only the
// reader goroutine calls it, so creation never races with shutdown.
func (pc *pipeConn) lane(sid uint64) *lane {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ln, ok := pc.lanes[sid]
	if !ok {
		ln = &lane{sess: pc.s.newSession()}
		pc.lanes[sid] = ln
	}
	return ln
}

// enqueue hands a dispatched job to its lane, spawning the lane's
// runner if it is idle.
func (pc *pipeConn) enqueue(ln *lane, job pipeJob) {
	if ln.push(job) {
		pc.wg.Add(1)
		go pc.runLane(ln)
	}
}

// runLane drains one lane's queue in order and exits when it is empty.
// Strict in-session order holds because push only starts a runner when
// none is live, pop relinquishes the lane under the same lock that
// guards the queue, and each answer is in the write buffer before the
// next pop (answer).
func (pc *pipeConn) runLane(ln *lane) {
	defer pc.wg.Done()
	for job, ok := ln.pop(); ok; {
		// Pooled response: handle's value result is copied into a
		// recycled struct, released once encoded, so a warm request
		// costs zero response-object allocations.
		resp := acquireResponse()
		*resp = pc.s.handle(job.ctx, job.req, ln.sess)
		job.done()
		resp.ID = job.req.ID
		releaseRequest(job.req)
		job, ok = pc.answer(ln, resp)
		releaseResponse(resp)
		<-pc.sem
	}
}

// beginRequest derives the request context (per-request deadline on
// top of the connection context) and registers its cancel fn under
// the request ID so a "cancel" op can abort it mid-decision.
func (pc *pipeConn) beginRequest(req *Request) (context.Context, func()) {
	var ctx context.Context
	var cancel context.CancelFunc
	if req.TimeoutMillis > 0 {
		ctx, cancel = context.WithTimeout(pc.ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(pc.ctx)
	}
	id := req.ID
	if id != 0 {
		pc.mu.Lock()
		pc.inflight[id] = cancel
		pc.mu.Unlock()
	}
	return ctx, func() {
		if id != 0 {
			pc.mu.Lock()
			delete(pc.inflight, id)
			pc.mu.Unlock()
		}
		cancel()
	}
}

// cancelRequest aborts an in-flight (dispatched, possibly executing)
// request. Unknown IDs — already completed, or never dispatched — are
// a no-op.
func (pc *pipeConn) cancelRequest(target uint64) {
	pc.mu.Lock()
	cancel := pc.inflight[target]
	pc.mu.Unlock()
	if cancel != nil {
		pc.s.mReqsCanceled.Inc()
		cancel()
	}
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	connCtx, connCancel := context.WithCancel(ctx)
	defer connCancel()

	pc := newPipeConn(s, connCtx, conn)
	lr := newLineReader(s.ReadSide(ctx, conn, pc.flushPending), s.maxLineBytes())

	var readErr error
	for {
		line, err := lr.ReadLine()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		req := acquireRequest()
		if !decodeRequest(line, req) {
			*req = Request{}
			if err := decodeRequestJSON(line, req); err != nil {
				releaseRequest(req)
				pc.park(&Response{
					Error: fmt.Sprintf("bad request: %v", err),
					Code:  acerr.CodeBadRequest,
				})
				continue
			}
		}
		s.dispatch(pc, req)
	}
	// Reader is done: abort in-flight work for this connection and
	// wait for every lane runner to drain its queue. Queued jobs finish
	// quickly with canceled responses that fail to write — both are
	// fine. Runners exit on their own once their queues empty.
	connCancel()
	pc.wg.Wait()

	// A read failure (over-long line, read error or timeout) drops
	// the connection; surface the cause to the client where the write
	// side still works, and log the drop. A clean EOF stays silent,
	// as does the deliberate read interruption of a graceful Close.
	if readErr != nil {
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if !closing {
			if s.ReadTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.ReadTimeout))
			}
			pc.park(&Response{Error: fmt.Sprintf("connection dropped: %v", readErr)})
			s.logf("proxy: dropping %s: %v", conn.RemoteAddr(), readErr)
		}
	}
	// Every runner has answered: put what is parked on the wire.
	_ = pc.flushPending()
}

// dispatch routes one request line. Control ops (cancel, stats) are
// answered from the read loop — they must overtake the queued work
// they report on or abort — and every one gets a reply, numbered or
// not. A statement gets its request id here, so a read the inline fast
// path (tryInlineQuery) leaves to its lane keeps it. Warm queries take
// that path when their lane is idle. Everything else acquires a window
// slot (the backpressure point) and joins its session lane.
func (s *Server) dispatch(pc *pipeConn, req *Request) {
	switch req.Op {
	case "cancel":
		pc.cancelRequest(req.Target)
		pc.park(&Response{ID: req.ID, OK: true})
		releaseRequest(req)
		return
	case "stats":
		pc.park(&Response{ID: req.ID, OK: true, Metrics: s.reg.Snapshot()})
		releaseRequest(req)
		return
	case "query", "exec":
		req.RID = s.nextRID.Add(1)
		if req.Op == "query" && s.tryInlineQuery(pc, req) {
			return
		}
	}
	pc.sem <- struct{}{}
	ctx, done := pc.beginRequest(req)
	pc.enqueue(pc.lane(req.SID), pipeJob{req: req, ctx: ctx, done: done})
}

// tryInlineQuery is the inline fast path: when a query's session
// lane is idle and the decision is already warm (a cached
// trace-independent allow, answered by the history-free probe),
// executing it right here on the read goroutine skips the window slot,
// the queue handoff and the runner wakeup — the whole request is one
// goroutine's straight-line code. It runs query's warm-only decision,
// so an inline read is counted, timed and slow-logged as a queued one.
// Reporting false means "not eligible, dispatch normally"; the request
// is untouched in that case.
//
// In-session order is preserved: tryClaim only succeeds when no runner
// is live and nothing is queued, so every earlier answer of the session
// is already in the write buffer, and while the reader executes inline
// it cannot dispatch the session's next request. Cancellation needs no
// registration — a "cancel" for this request cannot be read until the
// inline execution has already finished.
func (s *Server) tryInlineQuery(pc *pipeConn, req *Request) bool {
	// Off's reads run on lane runners, and they are what
	// enforce_overhead_x divides by on the v2 workloads (DESIGN.md §7);
	// moving them is the benchmark's call. A staged candidate's half of
	// a dual decide can go cold, which the read goroutine must not wait
	// on. A per-request timeout needs the registered request context
	// (beginRequest).
	if s.Mode == Off || s.Checker.ShadowStaged() || req.TimeoutMillis != 0 {
		return false
	}
	ln := pc.lane(req.SID)
	if !ln.tryClaim() {
		return false
	}
	stmt, args, bad := s.prepare(req, ln.sess)
	sel, ok := stmt.(*sqlparser.SelectStmt)
	var r Response
	if bad == nil && ok {
		r, ok = s.query(pc.ctx, req, ln.sess, sel, args, true)
	}
	if bad != nil || !ok {
		// The general path answers it: a statement that is no read or
		// does not prepare, or a decision that is not warm.
		ln.releaseClaim()
		return false
	}
	resp := acquireResponse()
	*resp = r
	resp.ID = req.ID
	releaseRequest(req)
	ln.releaseClaim()
	s.mInlineHits.Inc()
	pc.park(resp)
	releaseResponse(resp)
	return true
}

// reqPool recycles decoded Requests. The read loop owns a Request
// until dispatch hands it to a lane; the lane runner releases it after
// the handler returns (responses never alias request memory — args and
// session attributes are decoded into fresh sqlvalue slices, and the
// trace copies the SQL string by value).
var reqPool = sync.Pool{New: func() any { return new(Request) }}

func acquireRequest() *Request { return reqPool.Get().(*Request) }

func releaseRequest(req *Request) {
	*req = Request{}
	reqPool.Put(req)
}

// respPool recycles Responses. A lane runner (or the inline fast
// path) fills a pooled struct, copies its encoded bytes into the
// connection's buffered writer and releases it — nothing downstream
// retains the pointer, so the round trip is allocation-free.
var respPool = sync.Pool{New: func() any { return new(Response) }}

func acquireResponse() *Response { return respPool.Get().(*Response) }

func releaseResponse(resp *Response) {
	*resp = Response{}
	respPool.Put(resp)
}

// handle processes one request against a session. The ctx bounds
// the compliance check and the engine scan; cancellation yields a
// response with the "canceled" error code.
func (s *Server) handle(ctx context.Context, req *Request, sess *session) Response {
	switch req.Op {
	case "hello":
		return s.openSession(req, sess)

	case "query", "exec":
		return s.statement(ctx, req, sess)

	case "batch":
		return s.handleBatch(ctx, req, sess)

	case "stats":
		return Response{OK: true, Metrics: s.reg.Snapshot()}

	case "policy.stage":
		if _, err := s.StagePolicy(req.Views); err != nil {
			return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
		}
		return Response{OK: true, Policy: s.policyStatus(0, false)}

	case "policy.promote":
		if _, err := s.PromotePolicy(); err != nil {
			return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
		}
		return Response{OK: true, Policy: s.policyStatus(0, false)}

	case "policy.rollback":
		if _, err := s.RollbackPolicy(); err != nil {
			return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
		}
		return Response{OK: true, Policy: s.policyStatus(0, false)}

	case "policy.status":
		return Response{OK: true, Policy: s.policyStatus(0, false)}

	case "policy.diff":
		return Response{OK: true, Policy: s.policyStatus(req.Target, true)}
	}
	return Response{Error: fmt.Sprintf("unknown op %q", req.Op), Code: acerr.CodeBadRequest}
}

func canceledResponse(ctx context.Context) Response {
	return Response{
		Error: fmt.Sprintf("canceled: %v", ctx.Err()),
		Code:  acerr.CodeCanceled,
	}
}

// statement is the one statement path: v2 "query", "exec" and "batch"
// and pgwire simple and extended all enter it with raw SQL, and the
// inline fast path shares its front half (prepare). A statement that
// enters without a request id — a batch's sub-request, or one from
// HandleInCtx (pgwire, in-process callers) — gets one here. The parsed
// statement's type, not the op, picks the path: a SELECT is decided
// and read (query); any other statement goes unbound, with the resolved
// arguments, to the engine, which binds it once. Writes are not
// decided: the paper controls data revelation (reads), and write
// authorization stays in the app.
func (s *Server) statement(ctx context.Context, req *Request, sess *session) Response {
	if req.RID == 0 {
		req.RID = s.nextRID.Add(1)
	}
	if ctx.Err() != nil {
		return canceledResponse(ctx)
	}
	stmt, args, bad := s.prepare(req, sess)
	if bad != nil {
		return *bad
	}
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		resp, _ := s.query(ctx, req, sess, sel, args, false)
		return resp
	}
	_, n, err := s.DB.ExecStmt(stmt, args)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeEngine}
	}
	return Response{OK: true, Affected: n}
}

// prepare parses a request's SQL once (the cached parse of the raw
// text) and resolves its arguments once (sqlparser.Needs.Resolve): a
// named value the request leaves out is the session's attribute of
// that name. A request it cannot prepare gets its answer, a parse error
// or a bad request, before any decision is made or counted.
func (s *Server) prepare(req *Request, sess *session) (sqlparser.Statement, sqlparser.Args, *Response) {
	stmt, needs, err := sqlparser.ParseNeeds(req.SQL)
	if err != nil {
		return nil, sqlparser.Args{}, &Response{Error: err.Error(), Code: acerr.CodeParse}
	}
	var args sqlparser.Args
	args.Positional, err = decodeValues(req.Args)
	for k, v := range req.Named {
		if args.Named == nil {
			args.Named = make(map[string]sqlvalue.Value, len(req.Named))
		}
		if err == nil {
			args.Named[k], err = decodeValue(v)
		}
	}
	if err == nil {
		args, err = needs.Resolve(args, sess.attrs)
	}
	if err != nil {
		return nil, args, &Response{Error: err.Error(), Code: acerr.CodeBadRequest}
	}
	return stmt, args, nil
}

// query decides a read and runs it (finishQuery), timed into the
// proxy.query.micros histogram; when SlowLogThreshold is set, a read
// that overruns it emits one structured slow-decision line with the
// verdict, the cache tier that answered, and the per-section breakdown
// collected through the request's SpanSet. With warm set (the inline
// fast path) it decides only from the warm tier (CheckWarmBorrowed): a
// miss counts proxy.inline.bypass and reports false having counted
// nothing else, and the read's lane then decides it in full.
func (s *Server) query(ctx context.Context, req *Request, sess *session, sel *sqlparser.SelectStmt, args sqlparser.Args, warm bool) (Response, bool) {
	start := time.Now()
	var d checker.Decision
	if warm {
		var ok bool
		if d, ok = s.Checker.CheckWarmBorrowed(sel, args, sess.attrs); !ok {
			s.mInlineBypass.Inc()
			return Response{}, false
		}
	}
	s.mQueries.Inc()
	var spans *obsv.SpanSet
	if s.SlowLogThreshold > 0 {
		ctx, spans = obsv.WithSpanSet(ctx)
	}
	if !warm && s.Mode != Off {
		// The proxy reads no Decision.Views, so the zero-copy check is
		// safe. With a candidate staged, the active verdict enforces.
		if s.Checker.ShadowStaged() {
			d = s.dualDecide(ctx, req, sel, args, sess)
		} else {
			d = s.Checker.CheckBorrowed(ctx, sel, args, sess.attrs, sess.tr)
		}
	}
	var resp Response
	if ctx.Err() != nil {
		resp = canceledResponse(ctx)
	} else {
		resp = s.finishQuery(ctx, req, sess, sel, args, d)
	}
	elapsed := time.Since(start)
	s.mQueryLat.Observe(elapsed.Microseconds())
	if spans != nil && elapsed >= s.SlowLogThreshold {
		s.mSlowQueries.Inc()
		s.slowLog(req, &resp, d, elapsed, spans)
	}
	return resp, true
}

// slowLog emits one slow-decision record as a single JSON line through
// Logf. Schema: DESIGN.md §9.
func (s *Server) slowLog(req *Request, resp *Response, d checker.Decision, elapsed time.Duration, spans *obsv.SpanSet) {
	verdict := "allowed"
	switch {
	case resp.Blocked:
		verdict = "blocked"
	case resp.Error != "":
		verdict = "error"
	}
	rec := struct {
		Event       string           `json:"event"`
		RID         uint64           `json:"rid"`
		SQL         string           `json:"sql"`
		TotalMicros int64            `json:"totalMicros"`
		Decision    string           `json:"decision"`
		Tier        string           `json:"tier,omitempty"`
		Reason      string           `json:"reason,omitempty"`
		StageMicros map[string]int64 `json:"stageMicros,omitempty"`
	}{
		Event:       "slow_query",
		RID:         req.RID,
		SQL:         req.SQL,
		TotalMicros: elapsed.Microseconds(),
		Decision:    verdict,
		Tier:        d.Tier,
		Reason:      d.Reason,
		StageMicros: spans.Micros(),
	}
	if b, err := json.Marshal(rec); err == nil {
		s.logf("%s", b)
	}
}

// finishQuery is the post-decision half of a read, shared by query
// and the inline fast path: enforce the verdict, bind once, execute,
// record history, build the response.
func (s *Server) finishQuery(ctx context.Context, req *Request, sess *session, sel *sqlparser.SelectStmt, args sqlparser.Args, d checker.Decision) Response {
	if s.Mode != Off && !d.Allowed {
		if s.Mode == Enforce {
			return Response{OK: true, Blocked: true, Reason: d.Reason, Code: acerr.CodeBlocked}
		}
		s.mViolations.Inc()
	}

	// Bound once, with the args the trace records.
	stmt, err := sqlparser.Bind(sel, args)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
	}
	bound := stmt.(*sqlparser.SelectStmt)
	// A statement whose facts read no row keeps only the count in the
	// trace: no decision reads its rows, and holding them would pin the
	// result set. Then a Sink takes them straight from the scan.
	keep := s.Mode != Off && (s.Checker == nil || s.Checker.ReadsRows(sel))
	res, n := &engine.Result{}, 0
	if req.Sink != nil && !keep {
		res.Columns, res.Seq, n, err = s.DB.QueryEach(ctx, bound, req.Sink)
	} else {
		res, err = s.DB.QueryCtx(ctx, bound)
	}
	if err != nil {
		if errors.Is(err, acerr.ErrCanceled) {
			return Response{Error: err.Error(), Code: acerr.CodeCanceled}
		}
		return Response{Error: err.Error(), Code: acerr.CodeEngine}
	}

	// Record in history (queries the application actually saw answers
	// to are what future decisions may rely on). With enforcement off
	// nothing ever reads the trace, so don't grow it. The engine builds
	// every result row afresh (stored rows are copy-on-write), so the
	// trace and the response share its rows.
	if s.Mode != Off {
		e := trace.Entry{SQL: req.SQL, Stmt: sel, Args: args, Columns: res.Columns, Rows: res.Rows, ReadSeq: res.Seq}
		if !keep {
			e.Rows, e.Omitted = nil, n+len(res.Rows)
		}
		sess.tr.Append(e)
	}
	if req.Sink != nil {
		for _, r := range res.Rows {
			req.Sink(r)
		}
		return Response{OK: true, Columns: res.Columns}
	}
	return Response{OK: true, Columns: res.Columns, Rows: res.Rows}
}

// handleBatch executes a batch's sub-requests in order on the batch's
// session and collects one sub-response each. Sub-requests share the
// batch's context; a blocked or failing sub-query records its outcome
// and the batch continues — the client decides what a partial batch
// means.
func (s *Server) handleBatch(ctx context.Context, req *Request, sess *session) Response {
	out := Response{OK: true, Batch: make([]Response, 0, len(req.Batch))}
	for i := range req.Batch {
		sub := &req.Batch[i]
		r := Response{
			Error: fmt.Sprintf("batch: unsupported op %q", sub.Op),
			Code:  acerr.CodeBadRequest,
		}
		if sub.Op == "query" || sub.Op == "exec" {
			r = s.statement(ctx, sub, sess)
		}
		r.ID = sub.ID
		out.Batch = append(out.Batch, r)
	}
	return out
}
