package pgwire

import (
	"bufio"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/acerr"
	"repro/internal/proxy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

const rowsKeep = 64 << 10 // the most output buffer a conn keeps between exchanges

// SQLSTATEs for protocol-level conditions the acerr vocabulary does
// not cover (they never cross the v2 wire).
const (
	stateProtocolViolation = "08P01"
	stateInFailedTx        = "25P02"
	stateNoSuchStatement   = "26000"
	stateNoSuchPortal      = "34000"
)

// prepared is a named statement from Parse: the original SQL (each
// execution re-submits the text, which hits the shared parse-cache
// entry and the checker's plan for that statement, and from the second
// execution on its history-free decision), its leading keyword, and
// what Describe needs.
type prepared struct {
	sql       string
	kw        string
	numParams int
	paramOIDs []int32 // as declared by Parse; 0 = unspecified
	// cols are the engine's output columns, resolved at Parse; nil for
	// anything but a SELECT.
	cols []string
}

// portal is a Bind result: a prepared statement with argument values.
type portal struct {
	stmt *prepared
	args []any
}

// conn is one client connection: a proxy session plus protocol state.
// Statements execute strictly serially — compliance decisions are
// history-dependent, so a connection is one trace.
type conn struct {
	srv  *Server
	netc netConn
	r    *bufio.Reader
	// out is the whole write side: every backend message, each DataRow
	// framed from the scan included, is appended to it, and flush writes
	// it with one Write before the next kernel read. Appending is all a
	// scan does under the engine's read lock; a statement that fails
	// truncates out back to where its replies began.
	out []byte
	// readBuf is the connection's reusable frontend-payload buffer;
	// readMsg grows it to the largest message seen and every payload
	// consumer copies what it keeps, so steady state reads allocate
	// nothing.
	readBuf []byte

	pid, secret int32

	nrows int // DataRows frameRow appended for the running statement

	closing bool // set by protoError: serve then closes the connection

	sess *proxy.Session
	tx   byte // 'I' idle, 'T' in transaction, 'E' failed transaction

	stmts   map[string]*prepared
	portals map[string]*portal

	cancelMu  sync.Mutex
	cancelCur context.CancelFunc
}

// netConn is the subset of net.Conn the handler uses (test seam).
type netConn interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	SetDeadline(time.Time) error
}

func (c *conn) cancelCurrent() {
	c.cancelMu.Lock()
	cancel := c.cancelCur
	c.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// statementCtx derives the per-statement context and registers its
// cancel func for CancelRequest routing.
func (c *conn) statementCtx(base context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(base)
	c.cancelMu.Lock()
	c.cancelCur = cancel
	c.cancelMu.Unlock()
	return ctx, func() {
		c.cancelMu.Lock()
		c.cancelCur = nil
		c.cancelMu.Unlock()
		cancel()
	}
}

// flush writes c.out in one Write and empties it, keeping its capacity
// for the next exchange only up to rowsKeep — also when a failed
// statement truncated what it had framed.
func (c *conn) flush() error {
	var err error
	if len(c.out) > 0 {
		_, err = c.netc.Write(c.out)
	}
	c.out = c.out[:0]
	if cap(c.out) > rowsKeep {
		c.out = nil
	}
	return err
}

func (c *conn) serve(base context.Context) {
	// The proxy's read side flushes c.out before each kernel read: an
	// exchange's replies, however many rows they hold, thus leave in one
	// write, yet are on the wire before the server waits on the client.
	// It also renews the idle deadline there.
	c.r = bufio.NewReader(c.srv.px.ReadSide(base, c.netc, c.flush))
	defer c.flush()
	c.tx = 'I'
	c.stmts = make(map[string]*prepared)
	c.portals = make(map[string]*portal)
	c.sess = proxy.NewSession(nil)

	if !c.startup(base) {
		return
	}

	skipTillSync := false
	for {
		typ, payload, err := readMsg(c.r, &c.readBuf)
		if err != nil {
			return // disconnect
		}
		// After an extended-protocol error the backend discards
		// messages until Sync resynchronizes the pipeline.
		if skipTillSync && typ != 'S' && typ != 'X' {
			continue
		}
		p := payloadReader{b: payload}
		ok := true
		switch typ {
		case 'Q':
			sql, perr := p.cstr()
			if perr != nil {
				c.protoError(perr.Error())
				return
			}
			c.simpleQuery(base, sql)
		case 'P':
			ok = c.handleParse(&p)
		case 'B':
			ok = c.handleBind(&p)
		case 'D':
			ok = c.handleDescribe(&p)
		case 'E':
			ok = c.handleExecute(base, &p)
		case 'C':
			ok = c.handleClose(&p)
		case 'S':
			skipTillSync = false
			c.out = appendReadyForQuery(c.out, c.tx)
		case 'H':
			// Flush: the read side writes the replies before the next read.
		case 'X':
			return
		case 'd', 'c', 'f', 'F':
			c.out = appendErrorResponse(c.out, acerr.SQLStateFeatureNotSupported,
				"COPY and function-call messages are not supported")
			ok = false
		default:
			c.protoError("unexpected message type " + strconv.QuoteRune(rune(typ)))
		}
		if c.closing {
			return
		}
		if !ok {
			skipTillSync = true
		}
	}
}

// protoError reports an unrecoverable protocol violation.
func (c *conn) protoError(msg string) {
	c.out = appendErrorResponse(c.out, stateProtocolViolation, msg)
	_ = c.flush()
	// Half-close before the close: the client then reads the error and
	// EOF even when input it sent after the violation, still unread
	// here, turns the close into a reset.
	if tc, ok := c.netc.(interface{ CloseWrite() error }); ok {
		_ = tc.CloseWrite()
	}
	c.closing = true
}

// startup runs the pre-authentication phase: SSL refusal,
// CancelRequest dispatch, parameter collection, and the proxy "hello"
// that binds the session. Returns false when the connection should
// close.
func (c *conn) startup(base context.Context) bool {
	var params map[string]string
	for {
		code, payload, err := readStartup(c.r)
		if err != nil {
			return false
		}
		switch code {
		case sslRequestCode:
			// No TLS: answer 'N' and let the client continue in
			// cleartext (the posture every stock driver handles).
			c.out = append(c.out, 'N')
			continue
		case cancelCode:
			p := payloadReader{b: payload}
			pid, err1 := p.int32()
			secret, err2 := p.int32()
			if err1 == nil && err2 == nil {
				c.srv.cancelByKey(pid, secret)
			}
			return false // cancel connections carry nothing else
		case protoV3:
			params = parseStartupParams(payload)
		default:
			c.protoError("unsupported protocol version " + strconv.Itoa(int(code)))
			return false
		}
		break
	}

	attrs := make(map[string]any)
	durableName := ""
	for k, v := range params {
		switch {
		case strings.HasPrefix(k, "attr."):
			attrs[strings.TrimPrefix(k, "attr.")] = proxy.TypeAttr(v)
		case k == "session":
			durableName = v
		}
	}
	hello := c.srv.px.HandleInCtx(base, &proxy.Request{
		Op: "hello", Name: durableName, Session: attrs,
	}, c.sess)
	if hello.Error != "" {
		c.out = appendErrorResponse(c.out, acerr.SQLStateFor(hello.Code), hello.Error)
		return false
	}

	c.out = appendAuthOK(c.out)
	c.out = appendParameterStatus(c.out, "server_version", "13.0 (beyond)")
	c.out = appendParameterStatus(c.out, "server_encoding", "UTF8")
	c.out = appendParameterStatus(c.out, "client_encoding", "UTF8")
	c.out = appendParameterStatus(c.out, "DateStyle", "ISO")
	c.out = appendParameterStatus(c.out, "standard_conforming_strings", "on")
	c.out = appendBackendKeyData(c.out, c.pid, c.secret)
	c.out = appendReadyForQuery(c.out, 'I')
	return true
}

// parseStartupParams walks the null-terminated key/value pairs of a
// StartupMessage.
func parseStartupParams(payload []byte) map[string]string {
	out := make(map[string]string)
	p := payloadReader{b: payload}
	for {
		k, err := p.cstr()
		if err != nil || k == "" {
			return out
		}
		v, err := p.cstr()
		if err != nil {
			return out
		}
		out[k] = v
	}
}

// simpleQuery services one 'Q' message: split, execute each statement
// in order (stopping at the first error, as real servers do), then
// ReadyForQuery.
func (c *conn) simpleQuery(base context.Context, sql string) {
	stmts := splitStatements(sql)
	if len(stmts) == 0 {
		c.out = bodiless(c.out, 'I') // EmptyQueryResponse
		c.out = appendReadyForQuery(c.out, c.tx)
		return
	}
	for _, s := range stmts {
		if !c.execStatement(base, firstKeyword(s), s, nil, true) {
			break
		}
	}
	c.out = appendReadyForQuery(c.out, c.tx)
}

// isControl reports whether kw is handled by the bridge itself rather
// than forwarded to the proxy.
func isControl(kw string) bool {
	switch kw {
	case "BEGIN", "START", "COMMIT", "END", "ROLLBACK", "ABORT", "SET", "RESET":
		return true
	}
	return false
}

// execControl handles transaction-control and settings statements.
// The engine has no transactional storage — BEGIN/COMMIT exist so that
// clients' transaction framing works and so that a policy block MID
// TRANSACTION poisons the rest of the block ('E' status), which is the
// fail-closed behaviour an application wrapped in BEGIN...COMMIT
// expects from a real server.
func (c *conn) execControl(kw string) bool {
	var tag string
	switch kw {
	case "BEGIN", "START":
		c.tx = 'T'
		tag = "BEGIN"
	case "COMMIT", "END":
		if c.tx == 'E' {
			// Committing a failed transaction rolls back (PG semantics).
			tag = "ROLLBACK"
		} else {
			tag = "COMMIT"
		}
		c.tx = 'I'
	case "ROLLBACK", "ABORT":
		c.tx = 'I'
		tag = "ROLLBACK"
	case "SET", "RESET":
		// Accepted and ignored: stock drivers send these on connect.
		tag = kw
	}
	c.out = appendCommandComplete(c.out, tag)
	return true
}

// execStatement runs one statement through the enforcement proxy and
// writes its result messages; kw is its leading keyword (firstKeyword),
// which picks control statements and command tags.
// sendRowDesc selects simple-protocol framing (RowDescription before
// rows); the extended protocol describes via Describe and Execute sends
// rows alone. Returns false after writing an ErrorResponse, which
// replaces whatever the statement had framed.
func (c *conn) execStatement(base context.Context, kw, sql string, args []any, sendRowDesc bool) bool {
	if c.tx == 'E' && kw != "COMMIT" && kw != "END" && kw != "ROLLBACK" && kw != "ABORT" {
		c.out = appendErrorResponse(c.out, stateInFailedTx,
			"current transaction is aborted, commands ignored until end of transaction block")
		return false
	}
	if isControl(kw) {
		return c.execControl(kw)
	}

	mark := len(c.out)
	c.nrows = 0
	ctx, done := c.statementCtx(base)
	req := proxy.Request{Op: "query", SQL: sql, Args: args, Sink: c.frameRow}
	resp := c.srv.px.HandleInCtx(ctx, &req, c.sess)
	done()

	if resp.Blocked {
		c.failTx()
		c.out = appendStatementError(c.out[:mark], acerr.SQLStateBlocked,
			"blocked by policy: "+resp.Reason, req.RID)
		return false
	}
	if resp.Error != "" {
		c.failTx()
		c.out = appendStatementError(c.out[:mark], acerr.SQLStateFor(resp.Code), resp.Error, req.RID)
		return false
	}

	if resp.Columns != nil { // the proxy's parse made it a read
		if sendRowDesc {
			c.spliceRowDescription(mark, resp.Columns)
		}
		c.out = appendCommandCompleteSelect(c.out, c.nrows)
		return true
	}
	var tag string
	switch kw {
	case "INSERT":
		tag = "INSERT 0 " + strconv.Itoa(resp.Affected)
	case "UPDATE":
		tag = "UPDATE " + strconv.Itoa(resp.Affected)
	case "DELETE":
		tag = "DELETE " + strconv.Itoa(resp.Affected)
	case "CREATE":
		tag = "CREATE TABLE"
	default:
		tag = kw
	}
	c.out = appendCommandComplete(c.out, tag)
	return true
}

// frameRow is the one place pgwire frames a DataRow: straight into
// c.out, from the scan, under the engine's read lock.
func (c *conn) frameRow(row []sqlvalue.Value) {
	c.out = appendDataRow(c.out, row)
	c.nrows++
}

// spliceRowDescription puts the RowDescription of cols at mark, in
// front of the DataRows framed after it, with one move of the rows: the
// description is appended twice, the rows move up over the first copy,
// and the second copy lands at mark.
func (c *conn) spliceRowDescription(mark int, cols []string) {
	end := len(c.out)
	c.out = appendRowDescription(c.out, cols)
	d := len(c.out) - end
	c.out = append(c.out, c.out[end:end+d]...)
	copy(c.out[mark+d:], c.out[mark:end])
	copy(c.out[mark:], c.out[end+d:])
	c.out = c.out[:end+d]
}

func (c *conn) failTx() {
	if c.tx == 'T' {
		c.tx = 'E'
	}
}

// --- Extended protocol ---

func (c *conn) handleParse(p *payloadReader) bool {
	name, err1 := p.cstr()
	sql, err2 := p.cstr()
	nOids, err3 := p.int16()
	if err1 != nil || err2 != nil || err3 != nil || nOids < 0 {
		c.protoError("malformed Parse")
		return false
	}
	oids := make([]int32, nOids)
	for i := range oids {
		if oids[i], err3 = p.int32(); err3 != nil {
			c.protoError("malformed Parse")
			return false
		}
	}

	st := &prepared{sql: sql, kw: firstKeyword(sql), paramOIDs: oids}
	if !isControl(st.kw) && strings.TrimSpace(sql) != "" {
		// Validate eagerly so syntax errors surface at Parse, the way
		// conformant clients expect. ParseNorm shares its result with
		// the proxy's own ingest parse of the same text.
		stmt, err := sqlparser.ParseNorm(sql)
		if err != nil {
			c.out = appendErrorResponse(c.out, acerr.SQLStateParse, err.Error())
			return false
		}
		st.numParams = sqlparser.NumPositionalParams(stmt)
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			st.cols = c.srv.px.DB.ResultColumns(sel)
		}
	}
	c.stmts[name] = st
	c.out = bodiless(c.out, '1') // ParseComplete
	return true
}

func (c *conn) handleBind(p *payloadReader) bool {
	portalName, err1 := p.cstr()
	stmtName, err2 := p.cstr()
	if err1 != nil || err2 != nil {
		c.protoError("malformed Bind")
		return false
	}
	st, ok := c.stmts[stmtName]
	if !ok {
		c.out = appendErrorResponse(c.out, stateNoSuchStatement,
			"prepared statement "+strconv.Quote(stmtName)+" does not exist")
		return false
	}

	nFmt, err := p.int16()
	if err != nil || nFmt < 0 {
		c.protoError("malformed Bind")
		return false
	}
	fmts := make([]int16, nFmt)
	for i := range fmts {
		if fmts[i], err = p.int16(); err != nil {
			c.protoError("malformed Bind")
			return false
		}
		if fmts[i] != 0 {
			c.out = appendErrorResponse(c.out, acerr.SQLStateFeatureNotSupported,
				"binary parameter format is not supported")
			return false
		}
	}

	nParams, err := p.int16()
	if err != nil || nParams < 0 {
		c.protoError("malformed Bind")
		return false
	}
	args := make([]any, nParams)
	for i := range args {
		n, err := p.int32()
		if err != nil {
			c.protoError("malformed Bind")
			return false
		}
		if n < 0 {
			args[i] = nil
			continue
		}
		raw, err := p.take(int(n))
		if err != nil {
			c.protoError("malformed Bind")
			return false
		}
		var oid int32
		if i < len(st.paramOIDs) {
			oid = st.paramOIDs[i]
		}
		v, derr := decodeTextParam(string(raw), oid)
		if derr != nil {
			c.out = appendErrorResponse(c.out, acerr.SQLStateBadRequest,
				"parameter $"+strconv.Itoa(i+1)+": "+derr.Error())
			return false
		}
		args[i] = v
	}

	nResFmt, err := p.int16()
	if err != nil {
		c.protoError("malformed Bind")
		return false
	}
	for i := int16(0); i < nResFmt; i++ {
		f, err := p.int16()
		if err != nil {
			c.protoError("malformed Bind")
			return false
		}
		if f != 0 {
			c.out = appendErrorResponse(c.out, acerr.SQLStateFeatureNotSupported,
				"binary result format is not supported")
			return false
		}
	}

	c.portals[portalName] = &portal{stmt: st, args: args}
	c.out = bodiless(c.out, '2') // BindComplete
	return true
}

func (c *conn) handleDescribe(p *payloadReader) bool {
	kind := byte(0)
	if len(p.b) > 0 {
		kind = p.b[0]
		p.b = p.b[1:]
	}
	name, err := p.cstr()
	if err != nil {
		c.protoError("malformed Describe")
		return false
	}
	switch kind {
	case 'S':
		st, ok := c.stmts[name]
		if !ok {
			c.out = appendErrorResponse(c.out, stateNoSuchStatement,
				"prepared statement "+strconv.Quote(name)+" does not exist")
			return false
		}
		oids := make([]int32, st.numParams)
		copy(oids, st.paramOIDs)
		c.out = appendParameterDescription(c.out, oids)
		c.describeResult(st)
	case 'P':
		po, ok := c.portals[name]
		if !ok {
			c.out = appendErrorResponse(c.out, stateNoSuchPortal,
				"portal "+strconv.Quote(name)+" does not exist")
			return false
		}
		c.describeResult(po.stmt)
	default:
		c.protoError("malformed Describe")
		return false
	}
	return true
}

// describeResult announces the statement's result shape: for a SELECT
// the RowDescription the simple protocol sends with its rows — every
// column a star item expands to included — and NoData otherwise.
func (c *conn) describeResult(st *prepared) {
	if st.cols == nil {
		c.out = bodiless(c.out, 'n') // NoData
		return
	}
	c.out = appendRowDescription(c.out, st.cols)
}

func (c *conn) handleExecute(base context.Context, p *payloadReader) bool {
	name, err := p.cstr()
	if err != nil {
		c.protoError("malformed Execute")
		return false
	}
	// Max-row count: read and ignored — portals always run to
	// completion (no PortalSuspended), which every common driver
	// accepts.
	if _, err := p.int32(); err != nil {
		c.protoError("malformed Execute")
		return false
	}
	po, ok := c.portals[name]
	if !ok {
		c.out = appendErrorResponse(c.out, stateNoSuchPortal,
			"portal "+strconv.Quote(name)+" does not exist")
		return false
	}
	if strings.TrimSpace(po.stmt.sql) == "" {
		c.out = bodiless(c.out, 'I') // EmptyQueryResponse
		return true
	}
	return c.execStatement(base, po.stmt.kw, po.stmt.sql, po.args, false)
}

func (c *conn) handleClose(p *payloadReader) bool {
	kind := byte(0)
	if len(p.b) > 0 {
		kind = p.b[0]
		p.b = p.b[1:]
	}
	name, err := p.cstr()
	if err != nil {
		c.protoError("malformed Close")
		return false
	}
	switch kind {
	case 'S':
		delete(c.stmts, name)
	case 'P':
		delete(c.portals, name)
	default:
		c.protoError("malformed Close")
		return false
	}
	c.out = bodiless(c.out, '3') // CloseComplete
	return true
}

// --- Parameter decoding ---

func parseInt(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// decodeTextParam converts a text-format parameter to an engine value.
// A declared OID decides the type; OID 0 (unspecified, what most
// drivers send) falls back to affinity inference so integer keys
// compare exactly in the engine and the checker.
func decodeTextParam(s string, oid int32) (any, error) {
	switch oid {
	case oidInt2, oidInt4, oidInt8:
		return parseInt(s)
	case oidFloat4, oidFloat8, oidNumeric:
		return parseFloat(s)
	case oidBool:
		switch strings.ToLower(s) {
		case "t", "true", "1", "on", "yes":
			return true, nil
		case "f", "false", "0", "off", "no":
			return false, nil
		}
		return nil, strconv.ErrSyntax
	case oidText, oidVarchar:
		return s, nil
	}
	return proxy.TypeAttr(s), nil
}
