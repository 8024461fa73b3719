package main

import (
	"context"
	"fmt"
	"math/rand"

	beyond "repro"
)

// pg_scan: few principals, the same statements over and over (so the
// front tier answers), and results of hundreds of rows: the engine's
// scan, the trace's row capture and pgwire's DataRow framing do the
// work. It is the large-message end of the size axis v2_warm lacks.
const (
	pgUsers  = 2000 // forum users seeded: 2 posts each, rows >> clients
	pgWindow = 32   // history window: bounds the rows a session retains
	// pgRanges is how many distinct range reads the stream draws from;
	// with nproc principals that is far below the front cache.
	pgRanges = 64
)

// pgPrincipal is session s's user id. The checker reads a constant
// equal to MyUId as the parameter, so no constant a query names may
// equal a principal's id, however many sessions nproc asks for: every
// range bound and point id below is odd, the forged ids are even but at
// least pgUsers, and principals are the even ids below pgUsers.
func pgPrincipal(s int) int64 { return 2 + 2*int64(s%(pgUsers/2-1)) }

const (
	pgRange = iota
	pgPoint
	pgForged
)

// Postgres-style placeholders: what a stock driver's prepared
// statement sends.
var pgStmts = []string{
	pgRange:  "SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= $1 AND PId < $2",
	pgPoint:  "SELECT Body FROM Posts WHERE PId = $1 AND Visibility = 'public'",
	pgForged: "SELECT Body FROM Posts WHERE PId = $1",
}

// pgRangeWidths are the PId spans of a range read. Every second post
// is public, so they return 50, 100, 200 and 500 rows.
var pgRangeWidths = [...]int64{100, 200, 400, 1000}

type pgGen struct {
	rng  *rand.Rand
	sess []int32
}

func (g *pgGen) next() *op {
	s := g.sess[g.rng.Intn(len(g.sess))]
	const posts = 2 * pgUsers
	switch r := g.rng.Intn(10); {
	case r < 6:
		k := int64(g.rng.Intn(pgRanges))
		w := pgRangeWidths[k%int64(len(pgRangeWidths))]
		lo := 1 + k*((posts-1000)/pgRanges)
		return &op{sess: s, stmt: pgRange, rows: int32(w / 2), args: []any{lo, lo + w}}
	case r < 9:
		// seedForum: odd PIds are public posts.
		return &op{sess: s, stmt: pgPoint, rows: 1, args: []any{1 + 2*g.rng.Int63n(pgRanges)}}
	default:
		// A followers-only post of an author the principal does not
		// follow, read without the visibility check: blocked.
		return &op{sess: s, stmt: pgForged, block: true, rows: -1, args: []any{posts/2 + 2*g.rng.Int63n(pgRanges)}}
	}
}

func setupPgScan(ctx context.Context, env *runEnv, mode beyond.ProxyMode) (*instance, error) {
	def := pgScan
	f, err := beyond.FixtureByName("forum")
	if err != nil {
		return nil, err
	}
	db, err := f.NewDB(pgUsers)
	if err != nil {
		return nil, err
	}
	pol := f.Policy()
	if err := checkFingerprint(def, db, pol); err != nil {
		return nil, err
	}
	chk := beyond.NewChecker(pol)
	in := &instance{def: def, db: db, chk: chk}
	in.svc, err = beyond.Serve(db, chk, mode,
		beyond.WithPgListener("127.0.0.1:0"),
		beyond.WithProxyConfig(beyond.WithHistoryWindow(pgWindow), quietLog))
	if err != nil {
		return nil, err
	}
	for s := 0; s < nproc; s++ {
		in.attrs = append(in.attrs, map[string]any{"MyUId": pgPrincipal(s)})
	}
	tgt, err := dialPg(in.svc.PgAddr(), in.attrs, pgStmts)
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	in.tgt = tgt
	in.newGen = func(seed int64, part, parts int) generator {
		return &pgGen{rng: newRand(seed, part), sess: partition(nproc, part, parts)}
	}
	return in, nil
}

var pgScan = &workloadDef{
	name:        "pg_scan",
	rates:       [3]int{1300, 2500, 5000},
	replayOps:   1500,
	fingerprint: "94d9aeecefc371ea",
	ingress:     "pg",
	window:      pgWindow,
	stmts:       pgStmts,
}

func init() {
	pgScan.setup = setupPgScan
	pgScan.regime = func(r regimeInput) error {
		if got := float64(r.rows) / float64(max(r.ops, 1)); got < 50 {
			return fmt.Errorf("pg_scan: %.1f rows per op < 50: the range reads no longer return what they were sized for", got)
		}
		return nil
	}
}
