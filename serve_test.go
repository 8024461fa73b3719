package beyond_test

import (
	"bufio"
	"context"
	"database/sql"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	beyond "repro"
	_ "repro/driver"
	"repro/internal/acerr"
	"repro/internal/apps"
	"repro/internal/proxy"
	"repro/internal/sqlparser"
)

// --- Minimal Postgres wire client (test-only, extended protocol) ---

type pgClient struct {
	c net.Conn
	r *bufio.Reader
}

// pgDial connects and runs the startup with the given parameters
// ("attr.MyUId", "session", ...).
func pgDial(t *testing.T, addr string, params map[string]string) *pgClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	body = binary.BigEndian.AppendUint32(body, 196608)
	body = append(append(body, "user"...), 0)
	body = append(append(body, "parity"...), 0)
	for k, v := range params {
		body = append(append(body, k...), 0)
		body = append(append(body, v...), 0)
	}
	body = append(body, 0)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)+4))
	if _, err := c.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
	p := &pgClient{c: c, r: bufio.NewReader(c)}
	if _, _, errMsg := p.untilReady(t); errMsg != "" {
		t.Fatalf("startup failed: %s", errMsg)
	}
	return p
}

func (p *pgClient) close() { p.c.Close() }

func (p *pgClient) readMsg(t *testing.T) (byte, []byte) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(p.r, hdr[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	body := make([]byte, n-4)
	if _, err := io.ReadFull(p.r, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return hdr[0], body
}

// untilReady drains messages through ReadyForQuery, returning DataRow
// payloads, and the SQLSTATE/message of the first ErrorResponse.
func (p *pgClient) untilReady(t *testing.T) (rows [][]byte, state, msg string) {
	t.Helper()
	for {
		typ, body := p.readMsg(t)
		switch typ {
		case 'Z':
			return rows, state, msg
		case 'D':
			rows = append(rows, body)
		case 'E':
			if state == "" {
				state, msg = parseErrFields(body)
			}
		}
	}
}

func parseErrFields(body []byte) (state, msg string) {
	for len(body) > 0 && body[0] != 0 {
		f := body[0]
		body = body[1:]
		i := 0
		for i < len(body) && body[i] != 0 {
			i++
		}
		v := string(body[:i])
		body = body[i+1:]
		switch f {
		case 'C':
			state = v
		case 'M':
			msg = v
		}
	}
	return state, msg
}

func pgTextArg(v any) (text string, oid int32) {
	switch x := v.(type) {
	case int:
		return fmt.Sprint(x), 20
	case int64:
		return fmt.Sprint(x), 20
	case float64:
		return fmt.Sprint(x), 701
	case bool:
		if x {
			return "t", 16
		}
		return "f", 16
	default:
		return fmt.Sprint(v), 25
	}
}

// extQuery runs sql with args through Parse/Bind/Execute/Sync.
func (p *pgClient) extQuery(t *testing.T, sqlText string, args []any) (nrows int, state, msg string) {
	t.Helper()
	var m []byte
	frame := func(typ byte, body []byte) {
		m = append(m, typ)
		m = binary.BigEndian.AppendUint32(m, uint32(len(body)+4))
		m = append(m, body...)
	}
	var parse []byte
	parse = append(parse, 0) // unnamed statement
	parse = append(append(parse, sqlText...), 0)
	parse = binary.BigEndian.AppendUint16(parse, uint16(len(args)))
	texts := make([]string, len(args))
	for i, a := range args {
		text, oid := pgTextArg(a)
		texts[i] = text
		parse = binary.BigEndian.AppendUint32(parse, uint32(oid))
	}
	frame('P', parse)
	var bind []byte
	bind = append(bind, 0, 0) // unnamed portal, unnamed statement
	bind = binary.BigEndian.AppendUint16(bind, 0)
	bind = binary.BigEndian.AppendUint16(bind, uint16(len(args)))
	for _, text := range texts {
		bind = binary.BigEndian.AppendUint32(bind, uint32(len(text)))
		bind = append(bind, text...)
	}
	bind = binary.BigEndian.AppendUint16(bind, 0)
	frame('B', bind)
	var exec []byte
	exec = append(exec, 0)
	exec = binary.BigEndian.AppendUint32(exec, 0)
	frame('E', exec)
	frame('S', nil)
	if _, err := p.c.Write(m); err != nil {
		t.Fatal(err)
	}
	rows, state, msg := p.untilReady(t)
	return len(rows), state, msg
}

// simpleQuery runs sql as one simple-protocol Query.
func (p *pgClient) simpleQuery(t *testing.T, sqlText string) (rows [][]byte, state, msg string) {
	t.Helper()
	q := binary.BigEndian.AppendUint32([]byte{'Q'}, uint32(len(sqlText)+5))
	if _, err := p.c.Write(append(append(q, sqlText...), 0)); err != nil {
		t.Fatal(err)
	}
	return p.untilReady(t)
}

// --- Facade tests ---

func TestServeRequiresListener(t *testing.T) {
	f := apps.Calendar()
	if _, err := beyond.Serve(f.MustNewDB(8), beyond.NewChecker(f.Policy()), beyond.Enforce); err == nil {
		t.Fatal("Serve with no listeners must fail")
	}
}

// TestServeBothListeners binds both ingress surfaces on one core and
// verifies each serves decisions, with both reporting into the
// checker's registry.
func TestServeBothListeners(t *testing.T) {
	f := apps.Calendar()
	reg := beyond.NewMetrics()
	svc, err := beyond.Serve(f.MustNewDB(8), beyond.NewChecker(f.Policy(), beyond.WithMetrics(reg)), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0"),
		beyond.WithPgListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.V2Addr() == "" || svc.PgAddr() == "" {
		t.Fatalf("unbound listener: v2=%q pg=%q", svc.V2Addr(), svc.PgAddr())
	}
	if svc.Metrics() != reg {
		t.Fatal("Service.Metrics is not the checker's registry")
	}

	ctx := context.Background()
	cl, err := proxy.Dial(svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(ctx, map[string]any{"MyUId": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId = ?", 1); err != nil {
		t.Fatal(err)
	}

	pc := pgDial(t, svc.PgAddr(), map[string]string{"attr.MyUId": "1"})
	defer pc.close()
	n, state, msg := pc.extQuery(t, "SELECT EId FROM Attendance WHERE UId = $1", []any{1})
	if state != "" {
		t.Fatalf("pgwire query failed: %s %s", state, msg)
	}
	if n == 0 {
		t.Fatal("pgwire query returned no rows")
	}

	if got := reg.Counter("proxy.queries").Value(); got < 2 {
		t.Fatalf("shared registry saw %d queries, want >= 2 (one per surface)", got)
	}
}

// TestDeprecatedConstructorsCompatible pins DialProxy at its original
// signature, so existing callers keep compiling, and checks that a
// listener option (WithMaxConns) reaches the core Serve builds.
func TestDeprecatedConstructorsCompatible(t *testing.T) {
	var _ func(string, ...proxy.ClientOption) (*beyond.ProxyClient, error) = beyond.DialProxy

	f := apps.Calendar()
	svc, err := beyond.Serve(f.MustNewDB(8), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0", beyond.WithMaxConns(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Proxy().MaxConns; got != 4 {
		t.Fatalf("WithMaxConns(4) left MaxConns = %d", got)
	}
	cl, err := beyond.DialProxy(svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": int64(1)}); err != nil {
		t.Fatal(err)
	}
}

// --- Ingress decision parity (E-series corpus) ---

// decision is the ingress-independent outcome of one workload query.
type decision struct {
	allowed bool
	reason  string
	rows    int
}

// v2Decision runs one workload query over the native v2 client.
func v2Decision(t *testing.T, addr string, w apps.WorkloadQuery) decision {
	t.Helper()
	ctx := context.Background()
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(ctx, map[string]any{"MyUId": w.UId}); err != nil {
		t.Fatal(err)
	}
	if w.PrimeSQL != "" {
		if _, err := cl.Query(ctx, w.PrimeSQL, w.PrimeArgs...); err != nil {
			t.Fatalf("%s: prime: %v", w.Label, err)
		}
	}
	res, err := cl.Query(ctx, w.SQL, w.Args...)
	if err != nil {
		var be *proxy.BlockedError
		if !errors.As(err, &be) {
			t.Fatalf("%s: v2: %v", w.Label, err)
		}
		return decision{allowed: false, reason: be.Reason}
	}
	return decision{allowed: true, rows: len(res.Rows)}
}

// driverDecision runs the same workload through an unmodified
// database/sql program.
func driverDecision(t *testing.T, addr string, w apps.WorkloadQuery) decision {
	t.Helper()
	ctx := context.Background()
	db, err := sql.Open("beyond", fmt.Sprintf("%s?MyUId=%d", addr, w.UId))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // one conn = one session trace
	if w.PrimeSQL != "" {
		rows, err := db.QueryContext(ctx, w.PrimeSQL, w.PrimeArgs...)
		if err != nil {
			t.Fatalf("%s: prime: %v", w.Label, err)
		}
		for rows.Next() {
		}
		rows.Close()
	}
	rows, err := db.QueryContext(ctx, w.SQL, w.Args...)
	if err != nil {
		var be *proxy.BlockedError
		if !errors.As(err, &be) {
			t.Fatalf("%s: driver: %v", w.Label, err)
		}
		return decision{allowed: false, reason: be.Reason}
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: driver rows: %v", w.Label, err)
	}
	return decision{allowed: true, rows: n}
}

// pgDecision runs the same workload through the raw Postgres wire
// protocol (extended flow), mapping the 42501 refusal back to the
// decision's reason text.
func pgDecision(t *testing.T, addr string, w apps.WorkloadQuery) decision {
	t.Helper()
	pc := pgDial(t, addr, map[string]string{"attr.MyUId": fmt.Sprint(w.UId)})
	defer pc.close()
	if w.PrimeSQL != "" {
		if _, state, msg := pc.extQuery(t, w.PrimeSQL, w.PrimeArgs); state != "" {
			t.Fatalf("%s: prime: %s %s", w.Label, state, msg)
		}
	}
	n, state, msg := pc.extQuery(t, w.SQL, w.Args)
	if state != "" {
		if state != "42501" {
			t.Fatalf("%s: pgwire SQLSTATE = %s (%s), want 42501", w.Label, state, msg)
		}
		reason, ok := strings.CutPrefix(msg, "blocked by policy: ")
		if !ok {
			t.Fatalf("%s: pgwire block message %q lacks canonical prefix", w.Label, msg)
		}
		return decision{allowed: false, reason: reason}
	}
	return decision{allowed: true, rows: n}
}

// TestIngressDecisionParity is the PR's acceptance test: the E-series
// corpus of every fixture, executed through all three ingress
// surfaces — native v2 client, unmodified database/sql program, raw
// Postgres wire client — produces byte-identical decisions, and those
// decisions match the corpus ground truth.
func TestIngressDecisionParity(t *testing.T) {
	for _, f := range apps.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			svc, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(f.Policy()), beyond.Enforce,
				beyond.WithV2Listener("127.0.0.1:0"),
				beyond.WithPgListener("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for _, w := range f.Corpus {
				v2 := v2Decision(t, svc.V2Addr(), w)
				drv := driverDecision(t, svc.V2Addr(), w)
				pg := pgDecision(t, svc.PgAddr(), w)
				if v2.allowed != w.WantAllowed {
					t.Errorf("%s: v2 allowed=%v, ground truth %v", w.Label, v2.allowed, w.WantAllowed)
				}
				if drv != v2 {
					t.Errorf("%s: driver decision %+v != v2 %+v", w.Label, drv, v2)
				}
				if pg != v2 {
					t.Errorf("%s: pgwire decision %+v != v2 %+v", w.Label, pg, v2)
				}
			}
		})
	}
}

// tightenedViews drops the lexicographically last view from a
// fixture's ground-truth policy: a deterministically different
// (strictly tighter) candidate for promote-parity runs.
func tightenedViews(t *testing.T, f *apps.Fixture) map[string]string {
	t.Helper()
	if len(f.PolicySQL) < 2 {
		t.Fatalf("%s: need at least two views to drop one", f.Name)
	}
	drop := ""
	for name := range f.PolicySQL {
		if name > drop {
			drop = name
		}
	}
	views := make(map[string]string, len(f.PolicySQL)-1)
	for name, sql := range f.PolicySQL {
		if name != drop {
			views[name] = sql
		}
	}
	return views
}

// TestIngressDecisionParityAcrossPromote extends the parity test with
// a mid-corpus policy promote: a proxy that staged and promoted a
// candidate while serving must decide the rest of the corpus — through
// all three ingress surfaces — byte-identically to a FRESH proxy
// started directly on the promoted policy. An online lifecycle that
// leaves stale warm state behind fails exactly here.
func TestIngressDecisionParityAcrossPromote(t *testing.T) {
	for _, f := range apps.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			candViews := tightenedViews(t, f)
			candidate := beyond.MustNewPolicy(f.Schema, candViews)
			if candidate.Fingerprint() == f.Policy().Fingerprint() {
				t.Fatal("candidate must differ from the active policy")
			}

			svc, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(f.Policy()), beyond.Enforce,
				beyond.WithV2Listener("127.0.0.1:0"),
				beyond.WithPgListener("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			// First half of the corpus under the incumbent policy: the
			// staged candidate shadows but never enforces.
			mid := len(f.Corpus) / 2
			if _, err := svc.StagePolicy(candViews); err != nil {
				t.Fatal(err)
			}
			for _, w := range f.Corpus[:mid] {
				v2 := v2Decision(t, svc.V2Addr(), w)
				if v2.allowed != w.WantAllowed {
					t.Errorf("%s: pre-promote v2 allowed=%v, ground truth %v", w.Label, v2.allowed, w.WantAllowed)
				}
			}

			pv, err := svc.PromotePolicy()
			if err != nil {
				t.Fatal(err)
			}
			if pv.Fingerprint != candidate.Fingerprint() {
				t.Fatalf("promoted fingerprint %q != candidate %q", pv.Fingerprint, candidate.Fingerprint())
			}

			// Fresh control proxy started directly on the new policy.
			ctrl, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(candidate), beyond.Enforce,
				beyond.WithV2Listener("127.0.0.1:0"),
				beyond.WithPgListener("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()

			for _, w := range f.Corpus[mid:] {
				promoted := v2Decision(t, svc.V2Addr(), w)
				fresh := v2Decision(t, ctrl.V2Addr(), w)
				if promoted != fresh {
					t.Errorf("%s: post-promote v2 %+v != fresh proxy %+v", w.Label, promoted, fresh)
				}
				drv := driverDecision(t, svc.V2Addr(), w)
				if drv != fresh {
					t.Errorf("%s: post-promote driver %+v != fresh proxy %+v", w.Label, drv, fresh)
				}
				pg := pgDecision(t, svc.PgAddr(), w)
				if pg != fresh {
					t.Errorf("%s: post-promote pgwire %+v != fresh proxy %+v", w.Label, pg, fresh)
				}
			}
		})
	}
}

// v2Line sends one request line on a v2 connection and decodes the
// response line.
func v2Line(t *testing.T, r *bufio.Reader, c net.Conn, line string) proxy.Response {
	t.Helper()
	if _, err := io.WriteString(c, line+"\n"); err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp proxy.Response
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("%s: %v", b, err)
	}
	return resp
}

// TestNamedParamsBindFromSession: a named parameter the request leaves
// out is the session attribute of that name when the read runs, as it
// is when the read is decided, over v2 and over pgwire's simple
// protocol, in both spellings; a request's own named value wins over
// the attribute in the decision and in the rows. A read with no value
// for a parameter is a bad request on both wires, answered before any
// decision is made or counted; and a v2 exec carrying a read is decided
// as the read.
func TestNamedParamsBindFromSession(t *testing.T) {
	f := apps.Calendar()
	svc, err := beyond.Serve(f.MustNewDB(8), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0"),
		beyond.WithPgListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const own = "SELECT EId FROM Attendance WHERE UId = 1"
	spellings := []string{"SELECT EId FROM Attendance WHERE UId = ?MyUId", "SELECT EId FROM Attendance WHERE UId = :MyUId"}

	c, err := net.Dial("tcp", svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	// U is user 2 in the session, whose attendance user 1 may not read.
	if resp := v2Line(t, r, c, `{"op":"hello","session":{"MyUId":1,"U":2}}`); !resp.OK {
		t.Fatalf("hello: %+v", resp)
	}
	want := v2Line(t, r, c, `{"op":"query","sql":"`+own+`"}`)
	if !want.OK || want.Blocked || len(want.Rows) == 0 {
		t.Fatalf("v2 %q: %+v, want user 1's rows", own, want)
	}
	rows := func(resp proxy.Response) string { b, _ := json.Marshal(resp.Rows); return string(b) }
	for _, q := range spellings {
		got := v2Line(t, r, c, `{"op":"query","sql":"`+q+`"}`)
		if !got.OK || got.Blocked || rows(got) != rows(want) {
			t.Errorf("v2 %q: %+v, want the rows of %q: %s", q, got, own, rows(want))
		}
	}
	const byU = "SELECT EId FROM Attendance WHERE UId = ?U"
	if got := v2Line(t, r, c, `{"op":"query","sql":"`+byU+`"}`); !got.Blocked {
		t.Errorf("v2 %q with U from the session: %+v, want blocked", byU, got)
	}
	got := v2Line(t, r, c, `{"op":"query","sql":"`+byU+`","named":{"U":1}}`)
	if !got.OK || got.Blocked || rows(got) != rows(want) {
		t.Errorf("v2 %q with the request's U = 1: %+v, want the rows of %q: %s", byU, got, own, rows(want))
	}
	if got := v2Line(t, r, c, `{"op":"exec","sql":"`+byU+`"}`); !got.Blocked {
		t.Errorf("v2 exec %q with U from the session: %+v, want blocked", byU, got)
	}
	if got := v2Line(t, r, c, `{"op":"exec","sql":"`+own+`"}`); !got.OK || got.Blocked || rows(got) != rows(want) {
		t.Errorf("v2 exec %q: %+v, want its rows %s", own, got, rows(want))
	}
	decisions := func() int { return v2Line(t, r, c, `{"op":"stats"}`).Stats.Decisions }
	before := decisions()
	const nobody = "SELECT EId FROM Attendance WHERE UId = ?Nobody"
	if got := v2Line(t, r, c, `{"op":"query","sql":"`+nobody+`"}`); got.OK || got.Blocked || got.Code != acerr.CodeBadRequest {
		t.Errorf("v2 %q: %+v, want code %s", nobody, got, acerr.CodeBadRequest)
	}
	if after := decisions(); after != before {
		t.Errorf("v2 %q: decisions %d before, %d after; want none counted", nobody, before, after)
	}

	pc := pgDial(t, svc.PgAddr(), map[string]string{"attr.MyUId": "1"})
	defer pc.close()
	pgWant, state, msg := pc.simpleQuery(t, own)
	if state != "" || len(pgWant) == 0 {
		t.Fatalf("pgwire %q: %s %s, %d rows", own, state, msg, len(pgWant))
	}
	for _, q := range spellings {
		pgGot, state, msg := pc.simpleQuery(t, q)
		if state != "" || fmt.Sprint(pgGot) != fmt.Sprint(pgWant) {
			t.Errorf("pgwire %q: %s %s, rows %v, want the rows of %q: %v", q, state, msg, pgGot, own, pgWant)
		}
	}
	before = decisions()
	if _, state, msg := pc.simpleQuery(t, nobody); state != acerr.SQLStateBadRequest {
		t.Errorf("pgwire %q: %s %s, want SQLSTATE %s", nobody, state, msg, acerr.SQLStateBadRequest)
	}
	if after := decisions(); after != before {
		t.Errorf("pgwire %q: decisions %d before, %d after; want none counted", nobody, before, after)
	}
}

// TestNamedParamsBindWritesFromSession: a write binds its named
// parameters by the read's rule — a parameter the request leaves out is
// the session attribute, a request's own value wins — over v2 exec,
// exec inside a batch, and pgwire's simple protocol; a value still
// missing is bad_request on a write, as on a read, in every mode.
func TestNamedParamsBindWritesFromSession(t *testing.T) {
	f := apps.Calendar()
	db := f.MustNewDB(8)
	svc, err := beyond.Serve(db, beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0"),
		beyond.WithPgListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	name := func(uid int) string {
		t.Helper()
		res, err := db.QuerySQL(fmt.Sprintf("SELECT Name FROM Users WHERE UId = %d", uid), sqlparser.NoArgs)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("user %d: %v", uid, err)
		}
		return res.Rows[0][0].Text()
	}

	c, err := net.Dial("tcp", svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	if resp := v2Line(t, r, c, `{"op":"hello","session":{"MyUId":1}}`); !resp.OK {
		t.Fatalf("hello: %+v", resp)
	}
	if got := v2Line(t, r, c, `{"op":"exec","sql":"UPDATE Users SET Name = 'v2' WHERE UId = ?MyUId"}`); !got.OK || got.Affected != 1 || name(1) != "v2" {
		t.Errorf("v2 exec with MyUId from the session: %+v, user 1 named %q", got, name(1))
	}
	got := v2Line(t, r, c, `{"op":"batch","batch":[{"op":"exec","sql":"UPDATE Users SET Name = 'batch' WHERE UId = :MyUId"}]}`)
	if !got.OK || len(got.Batch) != 1 || !got.Batch[0].OK || got.Batch[0].Affected != 1 || name(1) != "batch" {
		t.Errorf("v2 batch exec with MyUId from the session: %+v, user 1 named %q", got, name(1))
	}
	if got := v2Line(t, r, c, `{"op":"exec","sql":"UPDATE Users SET Name = 'own' WHERE UId = ?MyUId","named":{"MyUId":2}}`); !got.OK || name(2) != "own" || name(1) != "batch" {
		t.Errorf("v2 exec with the request's MyUId = 2: %+v, users 1 and 2 named %q, %q", got, name(1), name(2))
	}
	if got := v2Line(t, r, c, `{"op":"exec","sql":"UPDATE Users SET Name = 'x' WHERE UId = ?Nobody"}`); got.OK || got.Code != acerr.CodeBadRequest {
		t.Errorf("v2 exec with no value for ?Nobody: %+v, want code %s", got, acerr.CodeBadRequest)
	}

	pc := pgDial(t, svc.PgAddr(), map[string]string{"attr.MyUId": "3"})
	defer pc.close()
	if _, state, msg := pc.simpleQuery(t, "UPDATE Users SET Name = 'pg' WHERE UId = :MyUId"); state != "" || name(3) != "pg" {
		t.Errorf("pgwire UPDATE with MyUId from the session: %s %s, user 3 named %q", state, msg, name(3))
	}
}

// TestCloseRecoversDurablePgwireSession: Service.Close drains a pgwire
// client that stays connected — it returns without waiting for the
// client — and a restart over the same WAL recovers every entry the
// client's durable session had acknowledged.
func TestCloseRecoversDurablePgwireSession(t *testing.T) {
	f := apps.Calendar()
	dir := t.TempDir()
	serve := func() *beyond.Service {
		t.Helper()
		svc, err := beyond.Serve(f.MustNewDB(8), beyond.NewChecker(f.Policy()), beyond.Enforce,
			beyond.WithPgListener("127.0.0.1:0"),
			beyond.WithProxyConfig(beyond.WithDurability(dir)))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := serve()
	pc := pgDial(t, svc.PgAddr(), map[string]string{"attr.MyUId": "1", "session": "s"})
	defer pc.close()
	const acked = 3
	for i := 0; i < acked; i++ {
		if _, state, msg := pc.simpleQuery(t, "SELECT EId FROM Attendance WHERE UId = 1"); state != "" {
			t.Fatalf("read %d: %s %s", i, state, msg)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a pgwire client stayed connected")
	}

	svc = serve()
	defer svc.Close()
	s := svc.Proxy().Durable().Recovery().Sessions["s"]
	if s == nil || s.Base+uint64(len(s.Entries)) != acked {
		t.Fatalf("recovered session %+v, want %d entries", s, acked)
	}
}
