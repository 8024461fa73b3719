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
	"runtime"
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

	// MaxConns bounds simultaneous connections; excess connections get
	// one error Response and are closed. 0 means DefaultMaxConns;
	// negative means unlimited.
	MaxConns int
	// ReadTimeout is the per-connection idle deadline, in either
	// direction: a connection that sends nothing for this long, or
	// stops reading its responses for this long, is dropped. 0
	// disables the deadline.
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
	// Metrics is the observability registry the server reports into.
	// Nil means the checker's registry, so `stats` responses and an
	// acproxy -metrics endpoint see checker and proxy instruments side
	// by side. Set before Listen or the first HandleInCtx.
	Metrics *obsv.Registry
	// SlowLogThreshold, when positive, turns on the structured
	// slow-decision log: every query whose end-to-end handling takes at
	// least this long emits one JSON line through Logf with the
	// decision, the cache tier that answered, and the per-stage
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
	// Cluster, when set, routes durable sessions across an enforcement
	// cluster (cluster.go, internal/cluster): hellos for sessions owned
	// by a peer are forwarded there, and cluster.* control ops dispatch
	// to the handler. Set before Listen.
	Cluster ClusterHandler

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
	// closeCtx is the ancestor of every request context served by this
	// listener; Close cancels it so in-flight checks and scans abort
	// instead of delaying the drain.
	closeCtx    context.Context
	closeCancel context.CancelFunc
	// wal is the durable-state manager (nil without WALDir). walMu
	// serializes OpenDurable end to end — two opens on one directory
	// would mean two live committers — without holding s.mu across
	// recovery and the caller's Logf.
	walMu sync.Mutex
	wal   *durable.Manager

	// Shadow dual-decide state (policy.go): the bounded ring of recent
	// divergence records a policy.diff polls, the monotone diff
	// sequence, and subscriber callbacks. Guarded by shadowMu.
	shadowMu   sync.Mutex
	diffRing   []ShadowDiff
	diffSeq    uint64
	shadowSubs []func(ShadowDiff)

	// All counters and the query-latency histogram live in the obsv
	// registry (resolved once by initObs); the checker's quantile
	// machinery is the same code. obsv instruments are nil-safe, so a
	// disabled registry costs one nil check per bump.
	obsOnce        sync.Once
	reg            *obsv.Registry
	mQueries       *obsv.Counter
	mViolations    *obsv.Counter
	mConnsTotal    *obsv.Counter
	mConnsRejected *obsv.Counter
	mReqsCanceled  *obsv.Counter
	mFactReused    *obsv.Counter
	mFactTrans     *obsv.Counter
	mSlowQueries   *obsv.Counter
	mQueryLat      *obsv.Histogram
	// Inline-fastpath and write-coalescing instruments: queries answered
	// on the read goroutine, warm probes that fell back to the lane
	// queue, response frames encoded, and flush syscalls issued — the
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

// NewServer builds a proxy server over the engine and checker.
func NewServer(db *engine.DB, c *checker.Checker, mode Mode) *Server {
	return &Server{DB: db, Checker: c, Mode: mode, conns: make(map[net.Conn]struct{})}
}

// initObs resolves the server's instruments exactly once: the explicit
// Metrics registry if set, else the checker's (proxy.* and checker.*
// names then share one snapshot). It also points the engine at the
// same registry so scan timings surface alongside decision timings.
func (s *Server) initObs() {
	s.obsOnce.Do(func() {
		reg := s.Metrics
		if reg == nil && s.Checker != nil {
			reg = s.Checker.Metrics()
		}
		if reg == nil {
			reg = obsv.NewRegistry()
		}
		s.reg = reg
		s.mQueries = reg.Counter("proxy.queries")
		s.mViolations = reg.Counter("proxy.violations")
		s.mConnsTotal = reg.Counter("proxy.conns.total")
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
		if s.DB != nil {
			s.DB.SetMetrics(reg)
		}
	})
}

// MetricsRegistry returns the registry the server reports into,
// resolving it on first use.
func (s *Server) MetricsRegistry() *obsv.Registry {
	s.initObs()
	return s.reg
}

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
	s.initObs()
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
			id.DBHash = s.DB.ContentHash()
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
				s.logf("proxy: restored staged candidate policy (version id %d); shadow dual-decide resumes", cand.ID)
			}
		}
	}
	// The cluster's ship hook must be live before the manager is
	// published — the first durable append may need replicating.
	if s.Cluster != nil {
		s.Cluster.WALOpened(m)
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

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0").
// It returns the bound address immediately; connections are served on
// background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	s.initObs()
	if err := s.OpenDurable(); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.closed = false
	s.ln = ln
	s.closeCtx, s.closeCancel = context.WithCancel(context.Background())
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and drains in-flight connections: it
// cancels every in-flight request context (aborting checks and scans
// mid-decision), interrupts each connection's pending read, lets
// handlers write their final responses, and only then returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed && s.ln == nil {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
		s.ln = nil
	}
	if s.closeCancel != nil {
		s.closeCancel()
	}
	// Wake blocked readers (and writers stuck on dead peers); handlers
	// mid-request finish normally and notice on the next read.
	for c := range s.conns {
		_ = c.SetDeadline(time.Now())
	}
	wal := s.wal
	s.wal = nil
	s.mu.Unlock()
	s.wg.Wait()
	// Drain complete: no handler can append again. Checkpoint and close
	// the WAL so a restart replays one small checkpoint, not the whole
	// tail. (A crash before this point is what recovery is for.)
	if wal != nil {
		if werr := wal.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mConnsTotal.Inc()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.maxConns() {
			s.mu.Unlock()
			s.mConnsRejected.Inc()
			_ = json.NewEncoder(conn).Encode(Response{
				Error: "server at connection limit",
				Code:  acerr.CodeTooManyConns,
			})
			conn.Close()
			s.logf("proxy: rejected %s: connection limit (%d) reached", conn.RemoteAddr(), s.maxConns())
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
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
// a session execute — and append to the session's history — in exactly
// the order the client sent them. The runner is spawned on demand by
// the dispatch that finds the lane idle and exits when the queue
// empties: an idle session costs its state, not a parked goroutine or
// a window-sized channel. That is what lets one connection multiplex
// hundreds of thousands of sessions (the open-loop harness drives 1M)
// while the goroutine count tracks the in-flight window, not the
// session count.
type lane struct {
	sess *session

	mu      sync.Mutex
	q       []pipeJob
	running bool
	// unsent counts the lane's responses handed to the writer but not
	// yet encoded; the inline fast path waits for zero, so it cannot
	// overtake them and a session's answers stay in request order.
	unsent atomic.Int32
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
// the read goroutine, which is the claim holder. Together that gives
// the inline fast path the same in-session total order the runner
// gives queued jobs.
func (ln *lane) tryClaim() bool {
	ln.mu.Lock()
	ok := !ln.running && len(ln.q) == 0 && ln.unsent.Load() == 0
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
// goroutine dispatches into session lanes; lane goroutines execute and
// hand responses (out of order across lanes) to a writer goroutine
// that coalesces bursts into single flushes; the sem channel is the
// in-flight window.
type pipeConn struct {
	s    *Server
	ctx  context.Context
	conn net.Conn

	writeMu sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	scratch []byte
	// dirty marks responses encoded into bw by the inline fast path but
	// not yet flushed. The reader flushes them (flushPending) just
	// before it would block on the kernel read — see flushConn — so a
	// pipelined burst of K inline answers costs one write syscall.
	// Guarded by writeMu.
	dirty bool

	sem   chan struct{}
	out   chan frame
	wdone chan struct{}

	mu       sync.Mutex
	lanes    map[uint64]*lane
	inflight map[uint64]context.CancelFunc

	wg sync.WaitGroup
}

// frame is one response queued for the writer; ln is the lane whose
// unsent count it holds (nil for the read loop's own replies).
type frame struct {
	resp *Response
	ln   *lane
}

// newPipeConn sets up a connection's pipelining state and starts its
// coalescing writer: responses queue on out and the writer goroutine
// batches every burst into one flush, so under a full window many
// responses share a single write syscall.
func newPipeConn(s *Server, ctx context.Context, conn net.Conn) *pipeConn {
	bw := bufio.NewWriterSize(conn, 64*1024)
	n := s.maxInFlight()
	pc := &pipeConn{
		s:        s,
		ctx:      ctx,
		conn:     conn,
		bw:       bw,
		enc:      json.NewEncoder(bw),
		sem:      make(chan struct{}, n),
		out:      make(chan frame, n+16),
		wdone:    make(chan struct{}),
		lanes:    make(map[uint64]*lane),
		inflight: make(map[uint64]context.CancelFunc),
	}
	go pc.runWriter()
	return pc
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

// flush flushes the buffered writer and clears the inline dirty mark
// (a flush empties bw wholesale). writeMu must be held.
func (pc *pipeConn) flush() error {
	pc.dirty = false
	pc.s.mWriteFlushes.Inc()
	return pc.writeFailed(pc.bw.Flush())
}

// writeFailed closes the connection when a write fails, typically on
// the ReadTimeout deadline of a client that stopped reading: the
// reader, however it is blocked behind the writer, then fails its next
// read and ends the connection.
func (pc *pipeConn) writeFailed(err error) error {
	if err != nil {
		_ = pc.conn.Close()
	}
	return err
}

// sendInline encodes one response into the buffered writer WITHOUT
// flushing, marking the connection dirty; the flush happens when the
// reader is about to block (flushConn → flushPending) or when the
// coalescing writer next flushes a lane response.
func (pc *pipeConn) sendInline(resp *Response) {
	pc.writeMu.Lock()
	if err := pc.encodeResp(resp); err == nil {
		pc.dirty = true
	}
	pc.writeMu.Unlock()
}

// flushPending flushes inline responses parked in the buffered writer,
// if any. Called by the reader just before it would block on the
// kernel read, so a client waiting for its answer always gets it
// before the server waits for the client.
func (pc *pipeConn) flushPending() {
	pc.writeMu.Lock()
	if pc.dirty {
		_ = pc.flush()
	}
	pc.writeMu.Unlock()
}

// send queues one of the read loop's own replies for the writer.
func (pc *pipeConn) send(resp *Response) {
	pc.out <- frame{resp: resp}
}

// sendLane queues a lane's response for the writer.
func (pc *pipeConn) sendLane(ln *lane, resp *Response) {
	ln.unsent.Add(1)
	pc.out <- frame{resp: resp, ln: ln}
}

// encodeFrame encodes one queued response and returns it to the pool.
// writeMu must be held.
func (pc *pipeConn) encodeFrame(f frame) error {
	err := pc.encodeResp(f.resp)
	if f.ln != nil {
		f.ln.unsent.Add(-1)
	}
	releaseResponse(f.resp)
	return err
}

func (pc *pipeConn) runWriter() {
	defer close(pc.wdone)
	for f := range pc.out {
		pc.writeMu.Lock()
		err := pc.encodeFrame(f)
		yielded := false
	drain:
		for err == nil {
			select {
			case more, ok := <-pc.out:
				if !ok {
					break drain
				}
				err = pc.encodeFrame(more)
			default:
				// Before paying a write syscall for a short batch,
				// yield once: lanes that are about to produce more
				// responses get to enqueue them into this flush.
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				break drain
			}
		}
		if err == nil {
			err = pc.flush()
		}
		pc.writeMu.Unlock()
		// A write failure has closed the connection; keep draining so
		// lanes never block, the read side surfaces the drop.
	}
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
// none is live, and pop relinquishes the lane under the same lock that
// guards the queue.
func (pc *pipeConn) runLane(ln *lane) {
	defer pc.wg.Done()
	for {
		job, ok := ln.pop()
		if !ok {
			return
		}
		// Pooled response: handle's value result is copied into a
		// recycled struct (the writer releases it after encoding), so a
		// warm request costs zero response-object allocations.
		resp := acquireResponse()
		*resp = pc.s.handle(job.ctx, job.req, ln.sess)
		job.done()
		resp.ID = job.req.ID
		releaseRequest(job.req)
		pc.sendLane(ln, resp)
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

// shutdown waits for every live lane runner to drain its queue, then
// closes each lane's session. The caller has already stopped
// dispatching and canceled the connection context, so queued jobs
// finish quickly with canceled responses that fail to write — both are
// fine. Runners exit on their own once their queues empty.
func (pc *pipeConn) shutdown() {
	pc.wg.Wait()
	for _, ln := range pc.lanes {
		ln.sess.close()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mu.Lock()
	base := s.closeCtx
	s.mu.Unlock()
	if base == nil {
		base = context.Background()
	}
	connCtx, connCancel := context.WithCancel(base)
	defer connCancel()

	pc := newPipeConn(s, connCtx, conn)
	// The reader interposes flushPending before every kernel read, so
	// inline-fastpath responses parked in the write buffer always reach
	// the wire before the server blocks waiting for the client.
	lr := newLineReader(flushConn{c: conn, flush: pc.flushPending}, s.maxLineBytes())

	var readErr error
	for {
		if s.ReadTimeout > 0 {
			// Both directions: a client that stops reading stalls the
			// writer, and the reader behind the window or an inline
			// write, until the write deadline fails (writeFailed).
			_ = conn.SetDeadline(time.Now().Add(s.ReadTimeout))
		}
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
				pc.send(&Response{
					Error: fmt.Sprintf("bad request: %v", err),
					Code:  acerr.CodeBadRequest,
				})
				continue
			}
		}
		s.dispatch(pc, req)
	}
	// Reader is done: abort in-flight work for this connection and
	// drain the lanes.
	connCancel()
	pc.shutdown()

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
			pc.send(&Response{Error: fmt.Sprintf("connection dropped: %v", readErr)})
			s.logf("proxy: dropping %s: %v", conn.RemoteAddr(), readErr)
		}
	}
	// No lane can send again: retire the writer once it has flushed.
	close(pc.out)
	<-pc.wdone
}

// dispatch routes one request line. Control ops (cancel, stats) are
// answered from the read loop — they must overtake the queued work
// they report on or abort — and every one gets a reply, numbered or
// not. Warm queries take the inline fast path (tryInlineQuery) when
// their lane is idle. Everything else acquires a window slot (the
// backpressure point) and joins its session lane.
func (s *Server) dispatch(pc *pipeConn, req *Request) {
	switch req.Op {
	case "cancel":
		pc.cancelRequest(req.Target)
		pc.send(&Response{ID: req.ID, OK: true})
		releaseRequest(req)
		return
	case "stats":
		pc.send(&Response{ID: req.ID, OK: true, Stats: s.StatsSnapshot()})
		releaseRequest(req)
		return
	case "query":
		if s.tryInlineQuery(pc, req) {
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
// the queue handoff, the runner wakeup, and the writer-channel round
// trip — the whole request is one goroutine's straight-line code.
// Reporting false means "not eligible, dispatch normally"; the request
// is untouched in that case.
//
// In-session order is preserved: tryClaim only succeeds when no runner
// is live, nothing is queued and no earlier answer waits for the
// writer, and while the reader executes inline it cannot dispatch the
// session's next request. Cancellation needs no
// registration — a "cancel" for this request cannot be read until the
// inline execution has already finished. Requests with a per-request
// timeout, and servers running a slow-log, a shadow trial, or with
// enforcement off, all take the general path: those features need the
// full handleQuery/dualDecide plumbing.
func (s *Server) tryInlineQuery(pc *pipeConn, req *Request) bool {
	if req.TimeoutMillis != 0 || s.SlowLogThreshold > 0 ||
		s.Mode == Off || s.Checker == nil || s.Checker.ShadowStaged() {
		return false
	}
	ln := pc.lane(req.SID)
	if !ln.tryClaim() {
		return false
	}
	if ln.sess.remote != nil {
		// Forwarded session: the owner decides; take the general path.
		ln.releaseClaim()
		return false
	}
	args, err := buildArgs(req)
	if err != nil {
		ln.releaseClaim()
		return false
	}
	sel, err := sqlparser.ParseSelectNorm(req.SQL)
	if err != nil {
		ln.releaseClaim()
		return false
	}
	d, ok := s.Checker.CheckWarmBorrowed(sel, args, ln.sess.attrs)
	if !ok {
		// Cold or deep-tier decision: release the lane and let the
		// general path decide (and count the miss) off the read
		// goroutine.
		ln.releaseClaim()
		s.mInlineBypass.Inc()
		return false
	}
	start := time.Now()
	s.mQueries.Inc()
	resp := acquireResponse()
	*resp = s.finishQuery(pc.ctx, req, ln.sess, sel, args, d)
	s.mQueryLat.Observe(time.Since(start).Microseconds())
	resp.ID = req.ID
	releaseRequest(req)
	ln.releaseClaim()
	s.mInlineHits.Inc()
	pc.sendInline(resp)
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
// path) fills a pooled struct; the encoder copies its bytes into the
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
	s.initObs()
	if isClusterOp(req.Op) {
		return s.handleClusterOp(ctx, req)
	}
	// A session owned by a cluster peer relays its work there: history
	// must accrue on exactly one node for decisions to stay sound.
	if sess.remote != nil {
		switch req.Op {
		case "query", "exec", "batch":
			return s.forwardRemote(ctx, req, sess)
		}
	}
	switch req.Op {
	case "hello":
		return s.openSession(ctx, req, sess)

	case "query":
		return s.handleQuery(ctx, req, sess)

	case "exec":
		return s.handleExec(ctx, req)

	case "batch":
		return s.handleBatch(ctx, req, sess)

	case "stats":
		return Response{OK: true, Stats: s.StatsSnapshot()}

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

// StatsSnapshot assembles the extended server counters: decision and
// fact-cache hit rates, latency percentiles over the recent window,
// and connection accounting.
func (s *Server) StatsSnapshot() *StatsBody {
	s.initObs()
	cs := s.Checker.Stats()
	body := &StatsBody{
		Queries:    int(s.mQueries.Value()),
		Decisions:  cs.Decisions,
		Allowed:    cs.Allowed,
		Blocked:    cs.Blocked,
		CacheHits:  cs.CacheHits,
		Violations: int(s.mViolations.Value()),

		CacheEntries:          cs.CacheEntries,
		FactEntriesReused:     uint64(s.mFactReused.Value()),
		FactEntriesTranslated: uint64(s.mFactTrans.Value()),

		ColdViewsKept:   cs.ColdViewsKept,
		ColdViewsPruned: cs.ColdViewsPruned,

		TotalConns:    int(s.mConnsTotal.Value()),
		RejectedConns: int(s.mConnsRejected.Value()),
		CanceledReqs:  int(s.mReqsCanceled.Value()),

		InlineHits:   int(s.mInlineHits.Value()),
		InlineBypass: int(s.mInlineBypass.Value()),
		WriteFrames:  int(s.mWriteFrames.Value()),
		WriteFlushes: int(s.mWriteFlushes.Value()),
	}
	if cs.Decisions > 0 {
		body.CacheHitRate = float64(cs.CacheHits) / float64(cs.Decisions)
	}
	if tot := body.FactEntriesReused + body.FactEntriesTranslated; tot > 0 {
		body.FactCacheHitRate = float64(body.FactEntriesReused) / float64(tot)
	}
	if tot := cs.ColdViewsKept + cs.ColdViewsPruned; tot > 0 {
		body.ColdPruneRatio = float64(cs.ColdViewsPruned) / float64(tot)
	}
	s.mu.Lock()
	body.ActiveConns = len(s.conns)
	wal := s.wal
	s.mu.Unlock()
	if wal != nil {
		ws := wal.Stats()
		body.WALEnabled = true
		body.WALAppends = ws.Appends
		body.WALBatches = ws.Batches
		body.WALFsyncs = ws.Fsyncs
		body.WALAppendedBytes = ws.AppendedBytes
		body.WALCheckpoints = ws.Checkpoints
		body.WALRecoveredSessions = wal.RecoveredSessionCount()
		body.WALRecoveredEntries = wal.RecoveredEntryCount()
	}
	hs := s.mQueryLat.Snapshot()
	body.LatencyP50Micros, body.LatencyP90Micros, body.LatencyP99Micros = hs.P50, hs.P90, hs.P99
	body.LatencySamples, body.LatencyMeanMicros = int(hs.Count), hs.Mean
	return body
}

func canceledResponse(ctx context.Context) Response {
	return Response{
		Error: fmt.Sprintf("canceled: %v", ctx.Err()),
		Code:  acerr.CodeCanceled,
	}
}

// handleQuery wraps the query path in timing: every query lands in the
// proxy.query.micros histogram, and — when SlowLogThreshold is set — a
// query that overruns it emits one structured slow-decision line with
// the verdict, the cache tier that answered, and the per-stage
// breakdown collected through the request's SpanSet.
func (s *Server) handleQuery(ctx context.Context, req *Request, sess *session) Response {
	start := time.Now()
	var spans *obsv.SpanSet
	if s.SlowLogThreshold > 0 {
		ctx, spans = obsv.WithSpanSet(ctx)
	}
	resp, d := s.runQuery(ctx, req, sess)
	elapsed := time.Since(start)
	s.mQueryLat.Observe(elapsed.Microseconds())
	if spans != nil && elapsed >= s.SlowLogThreshold {
		s.mSlowQueries.Inc()
		s.slowLog(req, &resp, d, elapsed, spans)
	}
	return resp
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
		SQL         string           `json:"sql"`
		TotalMicros int64            `json:"totalMicros"`
		Decision    string           `json:"decision"`
		Tier        string           `json:"tier,omitempty"`
		Reason      string           `json:"reason,omitempty"`
		StageMicros map[string]int64 `json:"stageMicros,omitempty"`
	}{
		Event:       "slow_query",
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

// runQuery is the query path proper: check, execute, record history.
// The returned Decision is the checker's verdict (zero-valued when the
// request failed before or without a check).
func (s *Server) runQuery(ctx context.Context, req *Request, sess *session) (Response, checker.Decision) {
	var d checker.Decision
	s.mQueries.Inc()

	if ctx.Err() != nil {
		return canceledResponse(ctx), d
	}
	args, err := buildArgs(req)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeBadRequest}, d
	}
	// Normalizing parse: `$N` / `:name` spellings alias to the same
	// shared statement as the canonical form, so decisions and the
	// checker's statement-identity caches agree across ingress surfaces
	// (v2 protocol, Postgres wire, database/sql driver).
	sel, err := sqlparser.ParseSelectNorm(req.SQL)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeParse}, d
	}

	if s.Mode != Off {
		// Borrowed check: the proxy only reads the scalar verdict
		// (Allowed/Reason/Tier), never Decision.Views, so the zero-copy
		// variant is safe and keeps warm hits allocation-free. With a
		// candidate staged the dual-decide path checks both policies; the
		// active verdict always enforces.
		if s.Checker.ShadowStaged() {
			d = s.dualDecide(ctx, req, sel, args, sess)
		} else {
			d = s.Checker.CheckBorrowed(ctx, sel, args, sess.attrs, sess.tr)
		}
		if ctx.Err() != nil {
			return canceledResponse(ctx), d
		}
	}
	return s.finishQuery(ctx, req, sess, sel, args, d), d
}

// finishQuery is the post-decision half of the query path, shared by
// runQuery and the inline fast path: enforce the verdict, bind,
// execute, record history, build the response.
func (s *Server) finishQuery(ctx context.Context, req *Request, sess *session, sel *sqlparser.SelectStmt, args sqlparser.Args, d checker.Decision) Response {
	if s.Mode != Off && !d.Allowed {
		if s.Mode == Enforce {
			return Response{OK: true, Blocked: true, Reason: d.Reason, Code: acerr.CodeBlocked}
		}
		s.mViolations.Inc()
	}

	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
	}
	res, err := s.DB.QueryCtx(ctx, bound.(*sqlparser.SelectStmt))
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
	// trace and the response share its rows. A statement whose facts
	// read no row keeps only the count: holding the rows would pin the
	// result set for the life of the entry, and no decision reads them.
	if s.Mode != Off {
		e := trace.Entry{SQL: req.SQL, Stmt: sel, Args: args, Columns: res.Columns, Rows: res.Rows}
		if s.Checker != nil && !s.Checker.ReadsRows(sel) {
			e.Rows, e.Omitted = nil, len(res.Rows)
		}
		sess.tr.Append(e)
	}
	return Response{OK: true, Columns: res.Columns, Rows: res.Rows}
}

func (s *Server) handleExec(ctx context.Context, req *Request) Response {
	if ctx.Err() != nil {
		return canceledResponse(ctx)
	}
	args, err := buildArgs(req)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeBadRequest}
	}
	// Writes pass through: the paper's setting controls data
	// revelation (reads); write authorization stays in the app.
	stmt, err := sqlparser.ParseNorm(req.SQL)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeParse}
	}
	_, n, err := s.DB.ExecStmt(stmt, args)
	if err != nil {
		return Response{Error: err.Error(), Code: acerr.CodeEngine}
	}
	return Response{OK: true, Affected: n}
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
		var r Response
		switch sub.Op {
		case "query":
			r = s.handleQuery(ctx, sub, sess)
		case "exec":
			r = s.handleExec(ctx, sub)
		default:
			r = Response{
				Error: fmt.Sprintf("batch: unsupported op %q", sub.Op),
				Code:  acerr.CodeBadRequest,
			}
		}
		r.ID = sub.ID
		out.Batch = append(out.Batch, r)
	}
	return out
}

func buildArgs(req *Request) (sqlparser.Args, error) {
	var args sqlparser.Args
	if len(req.Args) > 0 {
		vals, err := decodeValues(req.Args)
		if err != nil {
			return args, err
		}
		args.Positional = vals
	}
	if len(req.Named) > 0 {
		args.Named = make(map[string]sqlvalue.Value, len(req.Named))
		for k, v := range req.Named {
			sv, err := decodeValue(v)
			if err != nil {
				return args, err
			}
			args.Named[k] = sv
		}
	}
	return args, nil
}
