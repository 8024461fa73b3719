package durable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Manager is the enforcement-state durability layer the proxy talks
// to: it recovers session traces on open, hands out live traces whose
// appends are WAL-logged through the trace hook, checkpoints
// periodically, and compacts covered segments.
type Manager struct {
	log  *Log
	opts Options

	mu sync.Mutex
	// live maps durable session name -> the one shared trace. Two
	// connections declaring the same name share history (and therefore
	// decisions); the trace's own locking keeps that safe.
	live map[string]*liveSession
	// recovered holds replayed sessions not yet re-claimed by a hello.
	recovered map[string]*RecoveredSession
	policy    *PolicyID
	// Policy lifecycle state (version.go): the promoted active version
	// (nil when the active policy predates versioning), the staged
	// candidate awaiting promote/rollback, and the monotone version-id
	// counter, resumed past the highest id recovery replayed.
	active    *PolicyVersion
	candidate *PolicyVersion
	nextVerID uint64

	// newTrace builds a live session's trace (UseTraces).
	newTrace func() *trace.Trace
	// readSeq is the ReadSeq restored entries get (SetPolicy): the
	// startup state, or 0, which retires their facts under a clock
	// (counted in durable.recover.retired_entries).
	readSeq uint64

	recovery RecoveryResult

	appendsSinceCkpt atomic.Int64
	// ckptMu is the checkpoint slot, so no two checkpoints overlap: a
	// background checkpoint starts only if it is free, Checkpoint and
	// Close wait for it.
	ckptMu sync.Mutex

	mCheckpointMicros *obsv.Histogram
	mRecoveryMicros   *obsv.Histogram
	mCheckpoints      *obsv.Counter
	mRecoveredSess    *obsv.Counter
	mRecoveredEntries *obsv.Counter
	mTornTruncated    *obsv.Counter
	mRetired          *obsv.Counter
}

type liveSession struct {
	attrs map[string]sqlvalue.Value
	tr    *trace.Trace
}

// Open recovers state from dir and starts a WAL for new appends.
func Open(dir string, opts Options) (*Manager, error) {
	opts.normalize()
	start := time.Now()
	rec, err := Recover(dir)
	if err != nil {
		return nil, err
	}
	l, err := OpenLog(dir, opts)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		log:       l,
		opts:      opts,
		newTrace:  func() *trace.Trace { return &trace.Trace{} },
		live:      make(map[string]*liveSession),
		recovered: rec.Sessions,
		policy:    rec.Policy,
		active:    rec.ActiveVersion,
		candidate: rec.Candidate,
		nextVerID: rec.LastVersionID,
		recovery:  *rec,
	}
	reg := opts.Metrics
	m.mCheckpointMicros = reg.Histogram("durable.checkpoint.micros")
	m.mRecoveryMicros = reg.Histogram("durable.recovery.micros")
	m.mCheckpoints = reg.Counter("durable.checkpoints")
	m.mRecoveredSess = reg.Counter("durable.recovered.sessions")
	m.mRecoveredEntries = reg.Counter("durable.recovered.entries")
	m.mTornTruncated = reg.Counter("durable.tail.truncated")
	m.mRetired = reg.Counter("durable.recover.retired_entries")
	m.mRecoveryMicros.ObserveSince(start)
	m.mRecoveredSess.Add(int64(len(rec.Sessions)))
	for _, s := range rec.Sessions {
		m.mRecoveredEntries.Add(int64(len(s.Entries)))
	}
	if rec.TornTailBytes > 0 {
		m.mTornTruncated.Inc()
		m.logf("durable: truncated %d-byte torn tail after crash", rec.TornTailBytes)
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// UseTraces installs the constructor of live session traces, in place
// of a plain unbounded trace. The proxy passes its own, so a durable
// session's trace has the same history window and fact-cache counters
// as an ephemeral one. Call it before the manager is shared.
func (m *Manager) UseTraces(newTrace func() *trace.Trace) {
	m.newTrace = newTrace
}

// Recovery reports what Open replayed.
func (m *Manager) Recovery() RecoveryResult { return m.recovery }

// Log exposes the underlying WAL (stats, direct sync).
func (m *Manager) Log() *Log { return m.log }

// SetPolicy records the policy identity the proxy now enforces. It is
// WAL-logged when it differs from the recovered snapshot. It also fixes
// the database state restored entries describe. A fact is true only of
// the state its read saw, and a stale fact can allow a read it should
// block. So when the database's content hash differs from the recovered
// one, or none was recovered, restored entries contribute no facts
// (ReadSeq 0). Otherwise they read as of p.Seq, the startup state, and
// a write after startup retires them as it retires any fact. A previous
// run's writes are not logged, so with equal hashes a restored fact
// read after such a write can still be stale (DESIGN.md §11).
func (m *Manager) SetPolicy(p PolicyID) error {
	m.mu.Lock()
	prev := m.policy
	m.policy = &p
	m.readSeq = 0
	if rp := m.recovery.Policy; rp != nil && rp.DBHash == p.DBHash {
		m.readSeq = p.Seq
	}
	// An unversioned override of a promoted policy orphans the version:
	// the active policy is no longer the one the promote produced.
	if m.active != nil && m.active.Fingerprint != p.Fingerprint {
		m.active = nil
	}
	m.mu.Unlock()
	if prev != nil {
		if prev.Fingerprint != p.Fingerprint {
			m.logf("durable: policy changed across restart (recovered sessions decided under a different policy)")
		} else if prev.DBHash != p.DBHash {
			m.logf("durable: database contents changed across restart (recovered histories observed a different database)")
		}
		if prev.Fingerprint == p.Fingerprint && prev.DBHash == p.DBHash {
			return nil // identical: no need to re-log
		}
	}
	return m.log.Append(recPolicy, encodePolicy(&policySnapshot{
		Fingerprint: p.Fingerprint, Views: p.Views, DBHash: p.DBHash,
	}))
}

// Session declares (or re-claims) a durable session and returns its
// trace. A recovered session's history is restored into the trace —
// bounded by its window (UseTraces) — and further appends are
// WAL-logged before the append returns (per the fsync policy). The
// session record itself is durable before Session returns, so an
// append can never precede its session in the log. Restored reports
// how many history entries the trace came back with.
func (m *Manager) Session(name string, attrs map[string]sqlvalue.Value) (tr *trace.Trace, restored int, err error) {
	if name == "" {
		return nil, 0, fmt.Errorf("durable: empty session name")
	}
	m.mu.Lock()
	ls := m.live[name]
	if ls == nil {
		ls = &liveSession{tr: m.newTrace()}
		if rec := m.recovered[name]; rec != nil {
			for i := range rec.Entries {
				rec.Entries[i].ReadSeq = m.readSeq
			}
			if m.readSeq == 0 {
				m.mRetired.Add(int64(len(rec.Entries)))
			}
			ls.tr.Restore(rec.Entries, rec.Base)
			restored = ls.tr.Len()
			delete(m.recovered, name)
		}
		ls.tr.SetHook(func(idx uint64, e *trace.Entry) {
			if err := m.appendEntry(name, idx, e); err != nil {
				m.logf("durable: append for session %q lost: %v", name, err)
			}
		})
		m.live[name] = ls
	} else {
		restored = ls.tr.Len()
	}
	ls.attrs = attrs
	m.mu.Unlock()
	if err := m.log.Append(recSession, encodeSession(name, attrs)); err != nil {
		return nil, 0, err
	}
	return ls.tr, restored, nil
}

// appendEntry logs one trace append and drives auto-checkpointing.
func (m *Manager) appendEntry(name string, idx uint64, e *trace.Entry) error {
	if err := m.log.Append(recAppend, encodeAppend(name, idx, e)); err != nil {
		return err
	}
	if n := m.opts.CheckpointEvery; n > 0 {
		if m.appendsSinceCkpt.Add(1) >= int64(n) {
			m.maybeCheckpointAsync()
		}
	}
	return nil
}

// maybeCheckpointAsync starts one background checkpoint if none is
// running. One that finds the log closed does nothing.
func (m *Manager) maybeCheckpointAsync() {
	if !m.ckptMu.TryLock() {
		return
	}
	go func() {
		defer m.ckptMu.Unlock()
		if err := m.checkpoint(); err != nil && !errors.Is(err, errLogClosed) {
			m.logf("durable: background checkpoint failed: %v", err)
		}
	}()
}

// Checkpoint serializes every live session trace and the policy
// snapshot into a new checkpoint file, then compacts segments it
// covers. Appends keep flowing while the snapshot is written; the
// overlap (records both in the checkpoint and in post-cut segments)
// is deduplicated on replay by absolute entry index. It waits for a
// running background checkpoint rather than overlap it.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.checkpoint()
}

// checkpoint is Checkpoint's body; the caller holds ckptMu.
func (m *Manager) checkpoint() error {
	start := time.Now()
	cut, err := m.log.RotateForCheckpoint()
	if err != nil {
		return err
	}

	m.mu.Lock()
	type sessSnap struct {
		name    string
		attrs   map[string]sqlvalue.Value
		entries []trace.Entry
		base    uint64
	}
	snaps := make([]sessSnap, 0, len(m.live)+len(m.recovered))
	for name, ls := range m.live {
		entries, base := ls.tr.SnapshotState()
		snaps = append(snaps, sessSnap{name: name, attrs: ls.attrs, entries: entries, base: base})
	}
	// Recovered-but-unclaimed sessions must survive the checkpoint too
	// (their pre-crash segments are about to be compacted away).
	for name, rec := range m.recovered {
		snaps = append(snaps, sessSnap{name: name, attrs: rec.Attrs, entries: rec.Entries, base: rec.Base})
	}
	pol := m.policy
	var aVer, cVer *PolicyVersion
	if m.active != nil {
		v := *m.active
		aVer = &v
	}
	if m.candidate != nil {
		v := *m.candidate
		cVer = &v
	}
	m.mu.Unlock()

	// Deterministic order keeps checkpoint bytes reproducible.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	var records [][]byte
	if pol != nil {
		records = append(records, appendRecord(nil, recPolicy, encodePolicy(&policySnapshot{
			Fingerprint: pol.Fingerprint, Views: pol.Views, DBHash: pol.DBHash,
		})))
	}
	// The policy lifecycle survives compaction: the active version's
	// stage+promote pair, then the staged candidate (version.go).
	records = lifecycleRecords(records, aVer, cVer)
	for _, s := range snaps {
		records = append(records, appendRecord(nil, recSession, encodeSession(s.name, s.attrs)))
		for i := range s.entries {
			records = append(records, appendRecord(nil, recAppend, encodeAppend(s.name, s.base+uint64(i), &s.entries[i])))
		}
	}
	if err := writeCheckpointFile(m.log.dir, cut, uint64(len(snaps)), records); err != nil {
		return err
	}
	m.appendsSinceCkpt.Store(0)
	m.log.checkpoints.Add(1)
	m.mCheckpoints.Inc()
	m.mCheckpointMicros.ObserveSince(start)
	m.log.compact(cut)
	return nil
}

// Close checkpoints (so restart replays one small file instead of the
// whole tail), flushes, and closes the WAL. It waits for any in-flight
// background checkpoint and holds the checkpoint slot until the log is
// closed, so the final checkpoint overlaps no other and a checkpoint
// that asks afterwards finds the log closed before it touches a file.
func (m *Manager) Close() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if err := m.checkpoint(); err != nil && !errors.Is(err, errLogClosed) {
		m.logf("durable: final checkpoint failed: %v", err)
	}
	return m.log.Close()
}

// Stats returns the WAL counters.
func (m *Manager) Stats() Stats { return m.log.Stats() }

// RecoveredSessionCount reports sessions replayed at open (claimed or
// not).
func (m *Manager) RecoveredSessionCount() int { return len(m.recovery.Sessions) }

// RecoveredEntryCount reports history entries replayed at open.
func (m *Manager) RecoveredEntryCount() int {
	n := 0
	for _, s := range m.recovery.Sessions {
		n += len(s.Entries)
	}
	return n
}
