package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	beyond "repro"
)

// The calendar population v2_warm and durable_mix share: the paper's
// running example (Example 2.1) at a size whose whole working set
// stays inside the checker's 4096-entry front cache.
const (
	calEvents     = 256 // rows seeded per table (users and events)
	calPrincipals = 64  // users that log in; the rest are only written to
	calSessions   = 128 // two sessions per principal
	calWindow     = 32  // history window per session
	// calStrangers is how many events per principal the stream probes
	// or forges without the principal attending them. Keeping it small
	// keeps (statement, principal, args) combinations near 800, well
	// under the front cache.
	calStrangers = 8
)

// Statement table. Handler-shaped: show_event is probe then fetch
// (Listing 1), list_events and profile are one query each.
const (
	calList = iota
	calProfile
	calProbe
	calFetch
	calRename
)

var calStmts = []string{
	calList:    "SELECT EId FROM Attendance WHERE UId = ?",
	calProfile: "SELECT Name FROM Users WHERE UId = ?",
	calProbe:   "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
	calFetch:   "SELECT * FROM Events WHERE EId = ?",
	calRename:  "UPDATE Users SET Name = ? WHERE UId = ?",
}

// calMix is the request mix in percent of draws. A show draw emits two
// requests (probe, then the fetch the probe's answer justifies).
type calMix struct {
	list, profile, probeOwn, probeMiss, show, forged, rename int
}

// v2_warm: blocked decisions never enter the front tier (it holds only
// trace-independent allows), and a legitimate fetch needs the probe's
// fact, so both are template-tier work. Holding them to 9 of 104
// requests keeps front+histfree above 0.9 with both paths exercised.
var v2WarmMix = calMix{list: 30, profile: 25, probeOwn: 27, probeMiss: 9, show: 4, forged: 5}

// durable_mix: 70 % allowed reads (one WAL record each), 10 % blocked
// (no record), 20 % writes to users nobody logs in as.
var durableMixMix = calMix{list: 25, profile: 20, probeOwn: 25, forged: 10, rename: 20}

type calGen struct {
	rng     *rand.Rand
	sess    []int32
	pick    zipfPicker
	mix     calMix
	pending *op // the fetch queued behind its probe
}

func newCalGen(mix calMix, seed int64, part, parts int) *calGen {
	rng := newRand(seed, part)
	sess := partition(calSessions, part, parts)
	return &calGen{rng: rng, sess: sess, pick: newZipfPicker(rng, len(sess)), mix: mix}
}

func (g *calGen) next() *op {
	if o := g.pending; o != nil {
		g.pending = nil
		return o
	}
	s := g.sess[g.pick.pick()]
	uid := int64(s%calPrincipals) + 1
	// seedCalendar: user i attends events i+1 and i+2.
	own := uid + 1 + int64(g.rng.Intn(2))
	stranger := uid + 3 + int64(g.rng.Intn(calStrangers))
	r, m := g.rng.Intn(100), g.mix
	switch {
	case r < m.list:
		return &op{sess: s, stmt: calList, rows: 2, args: []any{uid}}
	case r < m.list+m.profile:
		return &op{sess: s, stmt: calProfile, rows: 1, args: []any{uid}}
	case r < m.list+m.profile+m.probeOwn:
		return &op{sess: s, stmt: calProbe, rows: 1, args: []any{uid, own}}
	case r < m.list+m.profile+m.probeOwn+m.probeMiss:
		return &op{sess: s, stmt: calProbe, rows: 0, args: []any{uid, stranger}}
	case r < m.list+m.profile+m.probeOwn+m.probeMiss+m.show:
		g.pending = &op{sess: s, stmt: calFetch, rows: 1, args: []any{own}}
		return &op{sess: s, stmt: calProbe, rows: 1, args: []any{uid, own}}
	case r < m.list+m.profile+m.probeOwn+m.probeMiss+m.show+m.forged:
		// A fetch with no attendance behind it: Example 2.1's violation.
		return &op{sess: s, stmt: calFetch, block: true, rows: -1, args: []any{stranger}}
	default:
		victim := int64(calPrincipals + 1 + g.rng.Intn(calEvents-calPrincipals))
		return &op{sess: s, kind: opExec, stmt: calRename, rows: 1,
			args: []any{"u" + strconv.Itoa(g.rng.Intn(1<<20)), victim}}
	}
}

// setupCalendar builds the calendar service over v2. With durable set,
// sessions are named and every allowed read is WAL-logged under
// FsyncOff: written to the log file before it is acknowledged, never
// waited on at the device (README "durable_mix" says why not
// FsyncAlways).
func setupCalendar(ctx context.Context, env *runEnv, def *workloadDef, mode beyond.ProxyMode, mix calMix, durable bool) (*instance, error) {
	f, err := beyond.FixtureByName("calendar")
	if err != nil {
		return nil, err
	}
	db, err := f.NewDB(calEvents)
	if err != nil {
		return nil, err
	}
	pol := f.Policy()
	if err := checkFingerprint(def, db, pol); err != nil {
		return nil, err
	}
	chk := beyond.NewChecker(pol)
	in := &instance{def: def, db: db, chk: chk}
	popts := []beyond.ProxyOption{beyond.WithHistoryWindow(calWindow), quietLog}
	if durable {
		env.seq++
		in.walDir = filepath.Join(env.outDir, fmt.Sprintf("wal-%s-%d-%d", def.name, os.Getpid(), env.seq))
		popts = append(popts, beyond.WithDurability(in.walDir,
			beyond.WithFsync(beyond.FsyncOff),
			beyond.WithCheckpointEvery(durableCheckpointEvery)))
	}
	in.svc, err = beyond.Serve(db, chk, mode, beyond.WithV2Listener("127.0.0.1:0", popts...))
	if err != nil {
		return nil, err
	}
	for s := 0; s < calSessions; s++ {
		in.attrs = append(in.attrs, map[string]any{"MyUId": int64(s%calPrincipals) + 1})
		if durable {
			in.names = append(in.names, "bench-s"+strconv.Itoa(s))
		}
	}
	tgt, err := dialV2(ctx, in.svc.V2Addr(), nproc, in.attrs, in.names, calStmts)
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	in.tgt = tgt
	in.newGen = func(seed int64, part, parts int) generator { return newCalGen(mix, seed, part, parts) }
	return in, nil
}

var v2Warm = &workloadDef{
	name:        "v2_warm",
	rates:       [3]int{11600, 23300, 46600},
	replayOps:   20000,
	fingerprint: "655be71a19f04496",
	ingress:     "v2",
	window:      calWindow,
	stmts:       calStmts,
}

// durableCheckpointEvery is sized so a run's appends (about 160 000 at
// the calibrated throughput) cross it at least three times even when the
// machine runs at half speed: the regime durable_mix asserts.
const durableCheckpointEvery = 25000

var durableMix = &workloadDef{
	name:        "durable_mix",
	rates:       [3]int{5900, 11700, 23400},
	replayOps:   1500,
	fingerprint: "655be71a19f04496",
	ingress:     "v2",
	window:      calWindow,
	stmts:       calStmts,
}

func init() {
	v2Warm.setup = func(ctx context.Context, env *runEnv, mode beyond.ProxyMode) (*instance, error) {
		return setupCalendar(ctx, env, v2Warm, mode, v2WarmMix, false)
	}
	v2Warm.regime = func(r regimeInput) error {
		if got := share(r.tiers.front+r.tiers.histfree, r.tiers.decisions); got < 0.9 {
			return fmt.Errorf("v2_warm: front+histfree share %.3f < 0.9: the working set no longer fits the front cache", got)
		}
		return nil
	}
	durableMix.setup = func(ctx context.Context, env *runEnv, mode beyond.ProxyMode) (*instance, error) {
		return setupCalendar(ctx, env, durableMix, mode, durableMixMix, true)
	}
	durableMix.regime = func(r regimeInput) error {
		if !r.smoke && r.checkpoints < 3 {
			return fmt.Errorf("durable_mix: %d checkpoints in the run, want >= 3: lower durableCheckpointEvery", r.checkpoints)
		}
		return nil
	}
}
