package main

import (
	"context"
	"fmt"
	"math/rand"

	beyond "repro"
	"repro/internal/checker"
)

// inproc_cold's benchmark-owned schema: a wide policy (the policy-count
// axis of "Scalable Enforcement of Fine-Grained Access Control Policies
// in RDBMS") over which almost every query is one the checker has not
// seen before.
const (
	coldRelations = 16
	coldKinds     = 16 // views per relation: 16 x 16 = 256 views
	coldOwners    = 16 // principals
	coldSessions  = 64
	coldRowsPer   = 2048 // rows per relation: 8 per (owner, kind)
	// coldIDs is the population query constants are drawn from. A
	// decision template keeps the constant, so with far more constants
	// than cache entries (4 x the template cache, 8 x the front cache)
	// a repeat is rare and the decision is cold.
	coldIDs = 4 * checker.DefaultCacheSize
	// coldRekeyAfter bounds a session's history: after this many
	// recorded union queries the session says hello again and re-primes,
	// so live memory does not grow with the run's length.
	coldRekeyAfter = 64
)

// coldOwnerBase keeps principal ids out of the range of every other
// constant a query carries (kinds, row ids). The checker turns any
// constant equal to the session's MyUId into the parameter, so a kind
// or an id that happened to equal the principal's id would be read as
// "my id" and block a query the policy covers.
const coldOwnerBase = 100000

// Row id of relation r: Owner = coldOwnerBase + id mod 16 + 1,
// Kind = (id / 16) mod 16, A = id*16 + r (distinct across relations, so
// UNION never merges rows of two arms).
func coldOwner(id int64) int64 { return coldOwnerBase + id%coldOwners + 1 }
func coldKind(id int64) int64  { return (id / coldOwners) % coldKinds }

// Statement table: one prime scan per relation, then one two-arm union
// per ordered pair of adjacent relations.
func coldStmts() []string {
	var out []string
	for r := 0; r < coldRelations; r++ {
		out = append(out, fmt.Sprintf("SELECT Id, Owner, Kind, A, B FROM R%02d WHERE Owner = ? AND Kind = ?", r))
	}
	for r := 0; r < coldRelations; r++ {
		r2 := (r + 5) % coldRelations
		out = append(out, fmt.Sprintf(
			"SELECT Id, A FROM R%02d WHERE Owner = ? AND Kind = ? AND Id = ? UNION SELECT Id, A FROM R%02d WHERE Owner = ? AND Kind = ? AND Id = ?", r, r2))
	}
	return out
}

// coldSessState is the per-session stream state, shared by every
// generator of an instance.
type coldSessState struct {
	primeLeft int // prime queries still to emit after a hello
	recorded  int // union queries recorded since the last prime
	primed    bool
}

type coldGen struct {
	rng  *rand.Rand
	sess []int32
	st   []coldSessState
}

func (g *coldGen) next() *op {
	s := g.sess[g.rng.Intn(len(g.sess))]
	st := &g.st[s]
	uid := coldOwnerBase + int64(s%coldOwners) + 1
	if !st.primed || st.recorded >= coldRekeyAfter {
		// Fresh history, then 4..8 prime scans of 8 rows each: 32..64
		// facts in the trace the blocked searches run against.
		st.primed, st.recorded = true, 0
		st.primeLeft = 4 + int(s)%5
		return &op{sess: s, kind: opHello, rows: -1}
	}
	if st.primeLeft > 0 {
		st.primeLeft--
		rel := (int(s) + st.primeLeft) % coldRelations
		kind := int64((int(s)/coldOwners + st.primeLeft) % coldKinds)
		return &op{sess: s, stmt: int32(rel), rows: coldRowsPer / coldOwners / coldKinds, args: []any{uid, kind}}
	}
	r1 := g.rng.Intn(coldRelations)
	id1, id2 := g.rng.Int63n(coldIDs)+1, g.rng.Int63n(coldIDs)+1
	o := &op{sess: s, stmt: int32(coldRelations + r1)}
	owner2 := uid
	if g.rng.Intn(5) == 0 {
		// Second arm reads another owner's rows: no view embeds, the
		// candidate search exhausts, the query blocks.
		owner2 = coldOwnerBase + uid%coldOwners + 1
		o.block, o.rows = true, -1
	} else {
		st.recorded++
	}
	k1, k2 := int64(g.rng.Intn(coldKinds)), int64(g.rng.Intn(coldKinds))
	if g.rng.Intn(4) == 0 {
		// One in four first arms names a row that exists and matches.
		id1 = g.rng.Int63n(coldRowsPer/coldOwners)*coldOwners + uid - coldOwnerBase - 1
		if id1 == 0 {
			id1 = coldOwners
		}
		k1 = coldKind(id1)
	}
	if !o.block {
		o.rows = coldArmRows(uid, k1, id1) + coldArmRows(owner2, k2, id2)
	}
	o.args = []any{uid, k1, id1, owner2, k2, id2}
	return o
}

func coldArmRows(owner, kind, id int64) int32 {
	if id >= 1 && id <= coldRowsPer && coldOwner(id) == owner && coldKind(id) == kind {
		return 1
	}
	return 0
}

func setupInprocCold(ctx context.Context, env *runEnv, mode beyond.ProxyMode) (*instance, error) {
	def := inprocCold
	sb := beyond.NewSchema()
	views := map[string]string{}
	for r := 0; r < coldRelations; r++ {
		name := fmt.Sprintf("R%02d", r)
		sb = sb.Table(name).
			NotNullCol("Id", beyond.Int).
			NotNullCol("Owner", beyond.Int).
			NotNullCol("Kind", beyond.Int).
			NotNullCol("A", beyond.Int).
			NotNullCol("B", beyond.Text).
			PK("Id").Done()
		for k := 0; k < coldKinds; k++ {
			views[fmt.Sprintf("V%02d_%02d", r, k)] = fmt.Sprintf(
				"SELECT Id, Owner, Kind, A, B FROM %s WHERE Owner = ?MyUId AND Kind = %d", name, k)
		}
	}
	sch, err := sb.Build()
	if err != nil {
		return nil, err
	}
	db := beyond.NewDB(sch)
	for r := 0; r < coldRelations; r++ {
		name := fmt.Sprintf("R%02d", r)
		for id := int64(1); id <= coldRowsPer; id++ {
			if err := db.InsertRow(name, id, coldOwner(id), coldKind(id), id*coldRelations+int64(r), "b"); err != nil {
				return nil, err
			}
		}
	}
	pol, err := beyond.NewPolicy(sch, views)
	if err != nil {
		return nil, err
	}
	if err := checkFingerprint(def, db, pol); err != nil {
		return nil, err
	}
	chk := beyond.NewChecker(pol)
	in := &instance{def: def, db: db, chk: chk}
	// The listener exists only because a Service needs one; no op of
	// this workload touches a socket.
	in.svc, err = beyond.Serve(db, chk, mode, beyond.WithV2Listener("127.0.0.1:0", quietLog))
	if err != nil {
		return nil, err
	}
	for s := 0; s < coldSessions; s++ {
		in.attrs = append(in.attrs, map[string]any{"MyUId": coldOwnerBase + int64(s%coldOwners) + 1})
	}
	tgt, err := newInprocTarget(ctx, in.svc.Proxy(), in.attrs, nil, def.stmts)
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	in.tgt = tgt
	st := make([]coldSessState, coldSessions)
	in.newGen = func(seed int64, part, parts int) generator {
		return &coldGen{rng: newRand(seed, part),
			sess: partition(coldSessions, part, parts), st: st}
	}
	return in, nil
}

var inprocCold = &workloadDef{
	name:        "inproc_cold",
	rates:       [3]int{2800, 5500, 11000},
	replayOps:   5000,
	fingerprint: "3b2a9112221b001c",
	ingress:     "",
	window:      0,
	stmts:       coldStmts(),
}

func init() {
	inprocCold.setup = setupInprocCold
	inprocCold.regime = func(r regimeInput) error {
		if got := share(r.tiers.cold(), r.tiers.decisions); got < 0.8 {
			return fmt.Errorf("inproc_cold: cold share %.3f < 0.8: constants repeat too often for the caches", got)
		}
		return nil
	}
}
