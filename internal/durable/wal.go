package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// FsyncPolicy selects when appended records become crash-durable.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs every commit batch before acknowledging its
	// appends: an acknowledged append survives any crash. Group commit
	// amortizes the fsync across every append that arrived while the
	// previous one was in flight.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval acknowledges after the OS write and fsyncs on a
	// timer: a crash may lose the last interval's appends, never more.
	FsyncInterval
	// FsyncOff never fsyncs: durability is whatever the OS page cache
	// gives you. For benchmarking the write path and for tests.
	FsyncOff
)

// String names the policy (flag-parseable; see ParseFsyncPolicy).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|off)", s)
}

// Options configure a WAL.
type Options struct {
	// SegmentBytes rotates the active segment past this size; 0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync selects the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval; 0 means
	// DefaultFsyncInterval.
	FsyncInterval time.Duration
	// CheckpointEvery, when positive, checkpoints automatically after
	// that many appended records (Manager only).
	CheckpointEvery int
	// Metrics is the observability registry the WAL reports into (nil
	// or disabled: instruments are no-ops; the plain Stats counters
	// still work).
	Metrics *obsv.Registry
	// Logf receives recovery warnings and background-checkpoint
	// failures; nil discards them.
	Logf func(format string, args ...any)
}

// Default knobs.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultFsyncInterval = 5 * time.Millisecond
)

// groupWindow is how long a commit holds its batch open for
// stragglers under FsyncAlways once it has evidence of concurrent
// appenders (the previous batch coalesced, or others queued behind the
// appender that commits). A solo appender never pays it.
const groupWindow = 50 * time.Microsecond

// DefaultOptions returns the production configuration: group commit
// with fsync on every batch.
func DefaultOptions() Options {
	return Options{SegmentBytes: DefaultSegmentBytes, Fsync: FsyncAlways, FsyncInterval: DefaultFsyncInterval}
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
}

// Stats are the WAL's plain counters, readable regardless of the
// metrics registry.
type Stats struct {
	// Appends counts acknowledged record appends; Batches the commit
	// batches they coalesced into; Fsyncs the fsync calls issued.
	Appends int64
	Batches int64
	Fsyncs  int64
	// AppendedBytes counts framed record bytes written to segments.
	AppendedBytes int64
	// Rotations counts segment rotations; Checkpoints completed
	// checkpoints; CompactedSegments prefix segments deleted.
	Rotations         int64
	Checkpoints       int64
	CompactedSegments int64
}

var errLogClosed = errors.New("durable: log closed")

// Log is the write-ahead log proper: a directory of segment files that
// concurrent appends share. Appends commit themselves: an appender that
// finds no commit running commits every record queued so far in one
// batch. Manager builds the session semantics on top.
type Log struct {
	dir  string
	opts Options

	// The commit queue (qmu). Records framed into pending form batch seq;
	// committed is the last batch finished by the one appender that
	// commits at a time, and qcond wakes the others. spare is the last
	// batch's buffer and lastBatch its record count (the group window's
	// evidence). failedSeq is the first batch that failed, with
	// failedErr: failures are sticky, so every later batch shares it.
	qmu                       sync.Mutex
	qcond                     sync.Cond
	pending, spare            []byte
	npending, lastBatch       int
	seq, committed, failedSeq uint64
	failedErr                 error
	committing, closed        bool

	mu    sync.Mutex // guards the active segment file
	f     *os.File
	idx   uint64 // active segment index
	size  int64
	dirty bool // written since the last fsync (interval mode)
	// failed is the first write, rotation or fsync error. It is sticky:
	// a failed write may leave a torn record, a failed fsync may drop
	// dirty pages no later fsync writes, and a batch acknowledged after
	// either would be lost behind the hole, so the log fails closed.
	failed error
	// writeBatch and syncSegment are seams for injecting faults in tests.
	writeBatch  func(f *os.File, b []byte) (int, error)
	syncSegment func(f *os.File) error

	appends, batches, fsyncs   atomic.Int64
	appendedBytes              atomic.Int64
	rotations                  atomic.Int64
	checkpoints, compactedSegs atomic.Int64

	mAppendMicros *obsv.Histogram
	mFsyncMicros  *obsv.Histogram
	mBatchRecords *obsv.Histogram
	mAppends      *obsv.Counter
	mFsyncs       *obsv.Counter
}

// segment / checkpoint file naming.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

func segName(idx uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }
func ckptName(idx uint64) string { return fmt.Sprintf("%s%08d%s", ckptPrefix, idx, ckptSuffix) }

func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listIndexed returns the sorted indices of files matching
// prefix/suffix in dir.
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if n, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// OpenLog opens (creating if needed) the WAL directory and starts a
// fresh segment: existing segments are recovery inputs, never append
// targets, so a torn tail from a crash is never appended over.
func OpenLog(dir string, opts Options) (*Log, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	// Checkpoints also advance the cut; never reuse an index at or
	// below the newest checkpoint.
	if cks, err := listIndexed(dir, ckptPrefix, ckptSuffix); err == nil && len(cks) > 0 {
		if last := cks[len(cks)-1]; next <= last {
			next = last + 1
		}
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		idx:  next - 1, // rotate() increments
		seq:  1,

		writeBatch:  (*os.File).Write,
		syncSegment: (*os.File).Sync,
	}
	l.qcond.L = &l.qmu
	reg := opts.Metrics
	l.mAppendMicros = reg.Histogram("durable.append.micros")
	l.mFsyncMicros = reg.Histogram("durable.fsync.micros")
	l.mBatchRecords = reg.Histogram("durable.batch.records")
	l.mAppends = reg.Counter("durable.appends")
	l.mFsyncs = reg.Counter("durable.fsyncs")
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Stats returns the plain counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:           l.appends.Load(),
		Batches:           l.batches.Load(),
		Fsyncs:            l.fsyncs.Load(),
		AppendedBytes:     l.appendedBytes.Load(),
		Rotations:         l.rotations.Load(),
		Checkpoints:       l.checkpoints.Load(),
		CompactedSegments: l.compactedSegs.Load(),
	}
}

// rotateLocked closes the active segment (if any) and starts the
// next. Callers hold l.mu or are in single-threaded setup.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if l.opts.Fsync != FsyncOff {
			if err := l.syncSegment(l.f); err != nil {
				return err
			}
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.rotations.Add(1)
	}
	l.idx++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.idx)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := writeFileHeader(f, segMagic); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = headerSize
	// Make the new name durable: without the directory fsync a crash
	// could forget the file while keeping later ones.
	syncDir(l.dir)
	return nil
}

// syncDir fsyncs a directory, best-effort (some filesystems refuse).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Append frames one record into the pending batch and blocks until
// that batch is acknowledged per the fsync policy (written and fsynced
// under FsyncAlways; written under FsyncInterval/FsyncOff). An appender
// that finds no commit running commits the batch itself.
func (l *Log) Append(typ byte, payload []byte) error {
	start := time.Now()
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.closed {
		return errLogClosed
	}
	l.pending = appendRecord(l.pending, typ, payload)
	l.npending++
	my := l.seq
	for l.committed < my {
		switch {
		case l.committing:
			l.qcond.Wait()
		case l.closed:
			return errLogClosed
		default:
			l.commitPending()
		}
	}
	l.mAppendMicros.ObserveSince(start)
	if l.failedSeq != 0 && my >= l.failedSeq {
		return l.failedErr
	}
	return nil
}

// commitPending commits the pending batch: one write, plus one fsync
// under FsyncAlways. The caller holds qmu, found no commit running, and
// has its record in the batch, as batches commit in order. qmu is
// released around the file I/O, so later appenders queue the next batch.
func (l *Log) commitPending() {
	l.committing = true
	// With fsync-per-batch and evidence of concurrent appenders (others
	// queued behind this one, or the previous batch coalesced), hold the
	// batch open until the previous batch's cohort has re-arrived or
	// groupWindow has passed, so they share one fsync. The window is a
	// yield-spin: Go rounds a 50µs timer up to about a millisecond.
	if l.opts.Fsync == FsyncAlways && (l.npending > 1 || l.lastBatch > 1) {
		deadline := time.Now().Add(groupWindow)
		for l.npending < l.lastBatch && time.Now().Before(deadline) {
			l.qmu.Unlock()
			runtime.Gosched()
			l.qmu.Lock()
		}
	}
	batch, n, seq := l.pending, l.npending, l.seq
	l.pending, l.spare, l.npending, l.lastBatch = l.spare, nil, 0, n
	l.seq++
	l.qmu.Unlock()

	err := l.commit(batch)
	// Count the batch before releasing its appenders, so Stats read
	// after an acknowledgement include it.
	l.batches.Add(1)
	l.mBatchRecords.Observe(int64(n))
	l.appends.Add(int64(n))
	l.mAppends.Add(int64(n))

	l.qmu.Lock()
	if err != nil && l.failedSeq == 0 {
		l.failedSeq, l.failedErr = seq, err
	}
	l.spare, l.committed, l.committing = batch[:0], seq, false
	l.qcond.Broadcast()
}

// commit writes one batch to the active segment, rotating first when
// it would overflow, and fsyncs per policy. Its first failure fails
// every later commit (Log.failed).
func (l *Log) commit(buf []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.size > headerSize && l.size+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return l.fail(err)
		}
	}
	if _, err := l.writeBatch(l.f, buf); err != nil {
		return l.fail(err)
	}
	l.size += int64(len(buf))
	l.appendedBytes.Add(int64(len(buf)))
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		if !l.dirty {
			l.dirty = true
			time.AfterFunc(l.opts.FsyncInterval, l.syncDirty)
		}
	}
	return nil
}

// fail records err as the log's sticky failure unless an earlier one
// is recorded, and returns the recorded one. Callers hold l.mu.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("durable: log failed closed: %w", err)
	}
	return l.failed
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.syncSegment(l.f)
	l.fsyncs.Add(1)
	l.mFsyncs.Inc()
	l.mFsyncMicros.ObserveSince(start)
	l.dirty = false
	if err != nil {
		return l.fail(err)
	}
	return nil
}

// syncDirty is the FsyncInterval timer a commit arms when it dirties
// the segment: it fsyncs unless Close got there first. A failure
// reaches the next append through l.failed.
func (l *Log) syncDirty() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty && l.f != nil {
		_ = l.syncLocked()
	}
}

// Close waits out a running commit, fsyncs, and closes the active
// segment. Appends racing Close, and any queued behind the last
// commit, fail with a closed error.
func (l *Log) Close() error {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return nil
	}
	l.closed = true
	for l.committing {
		l.qcond.Wait()
	}
	l.qmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Fsync != FsyncOff {
		_ = l.syncLocked()
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// writeCheckpointFile atomically writes a checkpoint covering
// segments < cut: records are streamed to a temp file, fsynced, and
// renamed to the final name, so a crash mid-checkpoint leaves only a
// ignorable .tmp. records must NOT include the meta/end framing —
// this function adds it.
func writeCheckpointFile(dir string, cut uint64, sessions uint64, records [][]byte) error {
	tmp := filepath.Join(dir, ckptName(cut)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after successful rename
	if err := writeFileHeader(f, ckptMagic); err != nil {
		f.Close()
		return err
	}
	buf := appendRecord(nil, recCkptMeta, encodeCkptMeta(&ckptMeta{Cut: cut, Sessions: sessions}))
	for _, r := range records {
		buf = append(buf, r...)
	}
	// The end record carries the file's total record count (meta and
	// end included), so an incomplete checkpoint is detectable even if
	// its tail happens to frame correctly.
	buf = appendRecord(buf, recCkptEnd, encodeCkptEnd(uint64(len(records))+2))
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName(cut))); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// compact removes segments fully covered by the checkpoint at cut
// (index < cut) and checkpoints older than it. Failures are
// non-fatal: a leftover segment only costs replay time.
func (l *Log) compact(cut uint64) {
	segs, err := listIndexed(l.dir, segPrefix, segSuffix)
	if err != nil {
		return
	}
	for _, idx := range segs {
		if idx < cut {
			if os.Remove(filepath.Join(l.dir, segName(idx))) == nil {
				l.compactedSegs.Add(1)
			}
		}
	}
	cks, _ := listIndexed(l.dir, ckptPrefix, ckptSuffix)
	for _, idx := range cks {
		if idx < cut {
			_ = os.Remove(filepath.Join(l.dir, ckptName(idx)))
		}
	}
	syncDir(l.dir)
}

// RotateForCheckpoint rotates to a fresh segment and returns its
// index — the checkpoint's cut. Every record acknowledged before the
// call is in a segment below the cut; records after land at or above
// it and replay on top of the checkpoint (replay dedups by absolute
// entry index, so the overlap window is harmless).
func (l *Log) RotateForCheckpoint() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A closed log must not grow a stray post-shutdown segment (l.f is
	// nil once Close ran).
	if l.f == nil {
		return 0, errLogClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, l.fail(err)
	}
	return l.idx, nil
}
