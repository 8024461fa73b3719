package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	beyond "repro"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// measured is everything one workload run observed before it is turned
// into named metrics.
type measured struct {
	setups   []float64    // seconds per set-up
	closed   closedSlices // Enforce
	closedRT runtimeDelta
	tiers    tierCounts   // over the closed loop
	off      closedSlices // Off, interleaved with closed
	overhead []float64    // per pair: Enforce p50 / Off p50
	ladder   []rung
	memMB    cell             // live heap, sampled after each open-loop trial
	snapDiff map[string]int64 // registry counter deltas over the closed loop
	wal      walDelta
	recov    recovery
	replay   *replayResult
	fails    *failures
	attempt  int64
	notes    []string
}

// walDelta is what the WAL did over the closed loop, where nproc
// clients give group commit something to group.
type walDelta struct {
	appends, batches, fsyncs, bytes, checkpoints int64
	checkpointMs                                 float64
}

// recovery is durable_mix's crash and restart check.
type recovery struct {
	recoverMs        float64
	recoveredEntries int64
	lost             int64 // acknowledged before the copy, absent after recovery
	checked          int64
}

// A run sets up at least three times (one throwaway, the Enforce
// instance, the Off instance), and setupsPerTrial more times before
// each open-loop trial while those fit in setupBudget: spread over the
// run like every other metric's samples, so a slow minute of the
// machine at the start does not decide setup_s alone.
const (
	setupsPerTrial = 4
	setupBudget    = 2 * time.Second
)

// runWorkload runs every phase of one workload.
func runWorkload(ctx context.Context, env *runEnv, def *workloadDef, seed int64, seconds float64, traced bool) (*workloadResult, error) {
	pl := planFor(seconds)
	m := &measured{fails: &failures{}}

	// Set-up is timed every time it happens: the first, throwaway one
	// takes the process's one-off costs (page faults, parse cache,
	// listener warm-up); the median of all of them is what setup_s
	// reports.
	setup := func(mode beyond.ProxyMode) (*instance, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := def.setup(ctx, env, mode)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		return in, nil
	}
	spent := time.Duration(0)
	throwaway := func(k int) error {
		for ; k > 0 && spent < setupBudget; k-- {
			t0 := time.Now()
			in, err := setup(beyond.Enforce)
			if err != nil {
				return err
			}
			if err := in.close(); err != nil {
				return err
			}
			spent += time.Since(t0)
		}
		return nil
	}
	if err := throwaway(1); err != nil {
		return nil, err
	}
	in, err := setup(beyond.Enforce)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if err := closedPhase(ctx, in, setup, seed, pl, m); err != nil {
		return nil, err
	}

	// Open loop: the ladder, lowest rate first. Live memory is sampled
	// after every trial: caches that reset wholesale when full (the
	// checker's intern table) make the heap a sawtooth, and one sample
	// would land at a random tooth.
	mem := []float64{liveHeapMB()}
	for r, rate := range def.rates {
		rg := rung{Rate: float64(rate)}
		for t := 0; t < pl.openTrials; t++ {
			if err := throwaway(setupsPerTrial); err != nil {
				return nil, err
			}
			tr := openTrialRun(ctx, in, float64(rate), pl.openTrial[r], seed*100+int64(10*r+t), m.fails)
			m.attempt += tr.N
			rg.Trials = append(rg.Trials, tr)
			mem = append(mem, liveHeapMB())
		}
		m.ladder = append(m.ladder, rg)
	}
	m.memMB = cellOf(mem...)

	// Regime: the workload must be in the state its name claims.
	totalCkpt := readWAL(in).checkpoints
	if err := def.regime(regimeInput{tiers: m.tiers, ops: m.closed.ops, rows: m.closed.rows,
		checkpoints: totalCkpt, smoke: env.smoke}); err != nil {
		m.fails.add(&op{}, err.Error())
		m.notes = append(m.notes, "REGIME: "+err.Error())
	}

	if in.walDir != "" {
		if err := checkRecovery(ctx, env, in, seed, m); err != nil {
			return nil, err
		}
	} else if err := in.close(); err != nil {
		return nil, err
	}

	if traced {
		log := newSpanLog(def.replayOps * 16)
		m.replay, err = tracedReplay(ctx, env, def, seed, log)
		if err != nil {
			return nil, err
		}
		m.attempt += int64(m.replay.n) * 2
		if err := log.write(filepath.Join(env.outDir, "trace-"+def.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return assemble(def, seed, seconds, m), nil
}

// closedPhase is warm-up, closed loop and Off pass. The Off instance
// (the same service shape with enforcement off) lives only inside this
// function, so nothing of it is left in the heap mem_live_mb measures.
func closedPhase(ctx context.Context, in *instance, setup func(beyond.ProxyMode) (*instance, error), seed int64, pl plan, m *measured) error {
	off, err := setup(beyond.Off)
	if err != nil {
		return err
	}
	defer off.close()

	// Warm-up: untimed, caches fill, lazy set-up finishes.
	warm := closedLoop(ctx, in, seed+1, pl.warm, true, m.fails)
	offWarm := closedLoop(ctx, off, seed+1, pl.warm/2, false, m.fails)
	m.attempt += warm.ops + offWarm.ops

	// Closed loop. Enforce and Off slices alternate, so a slow stretch of
	// the machine lands on both sides of enforce_overhead_x, which is the
	// median of the per-pair ratios.
	snap0 := in.snapshot()
	wal0 := readWAL(in)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i := 0; i < pl.closedN; i++ {
		on := closedLoop(ctx, in, seed+10+int64(i), pl.closedSlice, true, m.fails)
		m.closed.add(on)
		o := closedLoop(ctx, off, seed+10+int64(i), pl.offSlice, false, m.fails)
		m.off.add(o)
		m.attempt += o.ops
		if o.p50Us > 0 {
			m.overhead = append(m.overhead, on.p50Us/o.p50Us)
		}
	}
	m.closedRT = runtimeSince(&ms)
	snap1 := in.snapshot()
	m.tiers = readTiers(snap1).sub(readTiers(snap0))
	m.snapDiff = map[string]int64{}
	for _, k := range []string{"proxy.write.frames", "proxy.write.flushes", "proxy.inline.hits", "proxy.queries"} {
		m.snapDiff[k] = counter(snap1, k) - counter(snap0, k)
	}
	m.wal = readWAL(in).sub(wal0)
	if h, ok := snap1["durable.checkpoint.micros"].(obsv.HistogramSnapshot); ok {
		m.wal.checkpointMs = float64(h.P50) / 1e3
	}
	m.attempt += m.closed.ops
	return off.close()
}

func readWAL(in *instance) walDelta {
	wal := in.svc.Proxy().Durable()
	if wal == nil {
		return walDelta{}
	}
	st := wal.Stats()
	return walDelta{appends: st.Appends, batches: st.Batches, fsyncs: st.Fsyncs, bytes: st.AppendedBytes, checkpoints: st.Checkpoints}
}

func (w walDelta) sub(o walDelta) walDelta {
	return walDelta{appends: w.appends - o.appends, batches: w.batches - o.batches, fsyncs: w.fsyncs - o.fsyncs,
		bytes: w.bytes - o.bytes, checkpoints: w.checkpoints - o.checkpoints}
}

// checkRecovery is durable_mix's last phase. While a closed loop keeps
// appending, it notes how many history entries each session has had
// acknowledged, copies the WAL directory (a crash image: the copy may
// end in a torn record), and recovers a fresh service from the copy.
// Then it closes the live service gracefully and recovers from the
// real directory. An entry acknowledged before the copy began and
// absent after either recovery is a lost acknowledged write.
func checkRecovery(ctx context.Context, env *runEnv, in *instance, seed int64, m *measured) error {
	wal := in.svc.Proxy().Durable()
	traces := make([]*trace.Trace, len(in.names))
	for s, name := range in.names {
		tr, _, err := wal.Session(name, beyond.Session(in.attrs[s]))
		if err != nil {
			return err
		}
		traces[s] = tr
	}
	// NextIndex counts entries whose Append has returned, and Append
	// returns after the WAL acknowledged the record.
	nextIndex := func() map[string]uint64 {
		out := make(map[string]uint64, len(in.names))
		for s, name := range in.names {
			out[name] = traces[s].NextIndex()
		}
		return out
	}

	// Crash image, taken mid-traffic.
	crashDir := in.walDir + "-crash"
	var acked map[string]uint64
	var copyErr error
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		time.Sleep(50 * time.Millisecond)
		for attempt := 0; attempt < 5; attempt++ {
			acked = nextIndex()
			var whole bool
			if whole, copyErr = copyDir(in.walDir, crashDir); whole || copyErr != nil {
				return
			}
			// A checkpoint compacted a segment away between the listing
			// and its copy. A crash cannot do that to a directory, so
			// this is not an image of one: take another.
			os.RemoveAll(crashDir)
		}
		copyErr = fmt.Errorf("no consistent copy of %s in 5 attempts", in.walDir)
	}()
	span := 300 * time.Millisecond
	if env.smoke {
		span = 100 * time.Millisecond
	}
	burst := closedLoop(ctx, in, seed+5, span, true, m.fails)
	m.attempt += burst.ops
	<-copied
	if copyErr != nil {
		return fmt.Errorf("copy WAL: %w", copyErr)
	}
	lost, _, _, err := recoverAndCompare(crashDir, acked, false)
	if err != nil {
		return fmt.Errorf("recover crash image: %w", err)
	}
	m.recov.lost += lost
	m.recov.checked += int64(len(acked))
	os.RemoveAll(crashDir)

	// Graceful close, then restart on the same directory.
	final := nextIndex()
	if err := in.close(); err != nil {
		return fmt.Errorf("graceful close: %w", err)
	}
	lost, entries, took, err := recoverAndCompare(in.walDir, final, true)
	if err != nil {
		return fmt.Errorf("recover after close: %w", err)
	}
	m.recov.lost += lost
	m.recov.checked += int64(len(final))
	m.recov.recoverMs = took.Seconds() * 1e3
	m.recov.recoveredEntries = entries
	if m.recov.lost > 0 {
		m.fails.n.Add(m.recov.lost)
		m.notes = append(m.notes, fmt.Sprintf("RECOVERY: %d sessions came back short of their acknowledged history", m.recov.lost))
	}
	return nil
}

// recoverAndCompare starts a service on dir and compares each
// session's recovered next-entry index with what was acknowledged.
// After a graceful close the two must be equal; after a crash image
// recovery may hold more (appends acknowledged while the copy ran).
func recoverAndCompare(dir string, acked map[string]uint64, exact bool) (lost, entries int64, took time.Duration, err error) {
	f, err := beyond.FixtureByName("calendar")
	if err != nil {
		return 0, 0, 0, err
	}
	db, err := f.NewDB(calEvents)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	svc, err := beyond.Serve(db, beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0", beyond.WithHistoryWindow(calWindow), quietLog,
			beyond.WithDurability(dir, beyond.WithFsync(beyond.FsyncAlways))))
	if err != nil {
		return 0, 0, 0, err
	}
	took = time.Since(t0)
	rec := svc.Proxy().Durable().Recovery()
	for name, want := range acked {
		var got uint64
		if s := rec.Sessions[name]; s != nil {
			got = s.Base + uint64(len(s.Entries))
			entries += int64(len(s.Entries))
		}
		if got < want || (exact && got != want) {
			lost++
		}
	}
	return lost, entries, took, svc.Close()
}

// copyDir copies the files src held when it was listed. whole is false
// when one of them had been deleted by the time its turn came.
func copyDir(src, dst string) (whole bool, err error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return false, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			if os.IsNotExist(err) {
				return false, nil
			}
			return false, err
		}
	}
	return true, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
