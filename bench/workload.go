package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	beyond "repro"
	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
)

// nproc is the size of everything the generator side runs in parallel:
// closed-loop clients, TCP connections, busy generator goroutines.
var nproc = runtime.NumCPU()

// generator yields a workload's op stream for the sessions of one
// partition. Per-session state lives in the instance, so handing a
// session from one phase's generator to the next keeps its history.
type generator interface {
	next() *op
}

// tierCounts is the checker's decision tally, read from the public
// metrics registry.
type tierCounts struct {
	decisions, front, histfree, template int64
	coldKept, coldPruned                 int64
}

func (t tierCounts) sub(o tierCounts) tierCounts {
	return tierCounts{
		decisions: t.decisions - o.decisions, front: t.front - o.front,
		histfree: t.histfree - o.histfree, template: t.template - o.template,
		coldKept: t.coldKept - o.coldKept, coldPruned: t.coldPruned - o.coldPruned,
	}
}

func (t tierCounts) cold() int64 { return t.decisions - t.front - t.histfree - t.template }

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// counter reads one counter out of a registry snapshot.
func counter(snap map[string]any, name string) int64 {
	v, _ := snap[name].(int64)
	return v
}

func readTiers(snap map[string]any) tierCounts {
	return tierCounts{
		decisions:  counter(snap, "checker.decisions"),
		front:      counter(snap, "checker.front.hit"),
		histfree:   counter(snap, "checker.histfree.hit"),
		template:   counter(snap, "checker.template.hit"),
		coldKept:   counter(snap, "checker.cold.views.kept"),
		coldPruned: counter(snap, "checker.cold.views.pruned"),
	}
}

// instance is one set-up workload: a live service, a connected target
// with every session keyed, and the op stream's shared session state.
type instance struct {
	def   *workloadDef
	svc   *beyond.Service
	db    *engine.DB
	chk   *checker.Checker
	tgt   target
	attrs []map[string]any
	// newGen returns the op stream restricted to sessions s with
	// s mod parts == part.
	newGen func(seed int64, part, parts int) generator
	// walDir is the WAL directory of a durable instance ("" otherwise).
	walDir string
	names  []string // durable session names
	closed bool
}

func (in *instance) snapshot() map[string]any { return in.svc.Metrics().Snapshot() }

// close tears the instance down: clients first, then the service (a
// durable service checkpoints and closes its WAL here).
func (in *instance) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	in.tgt.close()
	return in.svc.Close()
}

// quietLog keeps the proxy's connection and recovery diagnostics off
// the benchmark's output.
func quietLog(s *beyond.ProxyServer) { s.Logf = func(string, ...any) {} }

// regimeInput is what a workload's regime assertion may look at.
type regimeInput struct {
	tiers       tierCounts // over the measured phase
	ops         int64
	rows        int64 // result rows returned over the phase
	checkpoints int64
	smoke       bool
}

// workloadDef is one workload: how to set it up, the frozen open-loop
// rates, and the regime it must be in to mean what it claims to.
type workloadDef struct {
	name string
	// rates are r_lo, r_mid, r_hi in ops/s: frozen integers calibrated
	// once from the closed-loop throughput T on the commit that added
	// the benchmark (0.3T, 0.6T, 1.2T; README "Rates").
	rates [3]int
	// replayOps is how many ops of the stream the traced replay walks.
	replayOps int
	// fingerprint is the schema + policy the sizes and rates were
	// calibrated on.
	fingerprint string
	// ingress names the replay's socket ingress ("v2", "pg" or "").
	ingress string
	// window is the per-session history window (0: unbounded) and stmts
	// the statement table ops index; the decomposed replay needs both
	// to stand in for the proxy core.
	window int
	stmts  []string
	setup  func(ctx context.Context, env *runEnv, mode beyond.ProxyMode) (*instance, error)
	regime func(r regimeInput) error
}

// runEnv is the per-process context set-ups share.
type runEnv struct {
	outDir string // bench/out, where WAL directories and traces go
	seq    int    // distinguishes WAL directories of repeated set-ups
	smoke  bool
}

// fingerprintOf hashes what a workload was calibrated on: the schema
// text and every policy view's SQL.
func fingerprintOf(db *engine.DB, pol *policy.Policy) string {
	var b strings.Builder
	b.WriteString(db.Schema().String())
	views := make([]string, 0, len(pol.Views))
	for _, v := range pol.Views {
		views = append(views, v.Name+"="+v.SQL)
	}
	sort.Strings(views)
	b.WriteString(strings.Join(views, "\n"))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func checkFingerprint(def *workloadDef, db *engine.DB, pol *policy.Policy) error {
	if got := fingerprintOf(db, pol); got != def.fingerprint {
		return fmt.Errorf("%s: schema/policy fingerprint %s, calibrated on %s: the fixture drifted, recalibrate the workload", def.name, got, def.fingerprint)
	}
	return nil
}

// newRand is the op stream's random source for one partition of one
// seed.
func newRand(seed int64, part int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(part)))
}

// zipfPicker draws indexes in [0, n) with a Zipf skew: a few hot
// sessions carry most of the traffic, as a few active users do.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(rng *rand.Rand, n int) zipfPicker {
	return zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

func (p zipfPicker) pick() int { return int(p.z.Uint64()) }

// partition lists the sessions s in [0, n) with s mod parts == part.
func partition(n, part, parts int) []int32 {
	var out []int32
	for s := part; s < n; s += parts {
		out = append(out, int32(s))
	}
	return out
}

var workloads = []*workloadDef{v2Warm, inprocCold, durableMix, pgScan}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
