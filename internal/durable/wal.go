package durable

import (
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

// groupWindow is how long the committer holds a batch open for
// stragglers under FsyncAlways once it has evidence of concurrent
// appenders (the previous batch coalesced, or the drain caught
// extras). A solo appender never pays it.
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

// commitReq is one append waiting for the committer: the framed
// record bytes and the channel its durability (or error) is signaled
// on.
type commitReq struct {
	buf  []byte
	done chan error
}

// Log is the write-ahead log proper: a directory of segment files and
// one committer goroutine that batches concurrent appends into shared
// writes and fsyncs. Manager builds the session semantics on top.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex // guards the active segment file
	f    *os.File
	idx  uint64 // active segment index
	size int64
	// failed is the first write or rotation error a batch commit met.
	// It is sticky: a failed write may have left a torn record in the
	// segment, and a batch written after it would be acknowledged yet
	// dropped by recovery's scan, so the log fails closed instead.
	failed error
	// writeBatch writes one batch to the active segment (a seam for
	// injecting write faults in tests).
	writeBatch func(f *os.File, b []byte) (int, error)

	reqs   chan commitReq
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// dirty marks bytes written since the last fsync (interval mode).
	dirty atomic.Bool

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

// OpenLog opens (creating if needed) the WAL directory and starts the
// committer. A fresh segment is always started: existing segments are
// recovery inputs, never append targets, so a torn tail from a crash
// is never appended over.
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
		reqs: make(chan commitReq, 1024),
		quit: make(chan struct{}),

		writeBatch: (*os.File).Write,
	}
	reg := opts.Metrics
	l.mAppendMicros = reg.Histogram("durable.append.micros")
	l.mFsyncMicros = reg.Histogram("durable.fsync.micros")
	l.mBatchRecords = reg.Histogram("durable.batch.records")
	l.mAppends = reg.Counter("durable.appends")
	l.mFsyncs = reg.Counter("durable.fsyncs")
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.runCommitter()
	if opts.Fsync == FsyncInterval {
		l.wg.Add(1)
		go l.runIntervalSync()
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
			_ = l.f.Sync()
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

// Append frames one record, hands it to the committer, and blocks
// until the record is acknowledged per the fsync policy (written and
// fsynced under FsyncAlways; written under FsyncInterval/FsyncOff).
func (l *Log) Append(typ byte, payload []byte) error {
	if l.closed.Load() {
		return fmt.Errorf("durable: log closed")
	}
	start := time.Now()
	req := commitReq{buf: appendRecord(nil, typ, payload), done: make(chan error, 1)}
	select {
	case l.reqs <- req:
	case <-l.quit:
		return fmt.Errorf("durable: log closed")
	}
	var err error
	select {
	case err = <-req.done:
	case <-l.quit:
		// Closing. Wait for the committer to exit: it finishes its
		// in-flight batch and drains the queue first, signaling done
		// (buffered) for every request it saw. A request it did NOT
		// see won the send race against the drain's exit and is
		// stranded in the queue with no committer left to serve it —
		// report closed rather than block forever.
		l.wg.Wait()
		select {
		case err = <-req.done:
		default:
			err = fmt.Errorf("durable: log closed")
		}
	}
	l.mAppendMicros.ObserveSince(start)
	return err
}

// runCommitter is the group-commit loop: it sleeps until an append
// arrives, drains every append already queued into one batch, writes
// the batch with a single WriteV-ish write, fsyncs once per policy,
// and acknowledges the whole batch. Under
// load, every append that arrives during an fsync joins the next
// batch, so durability cost amortizes across concurrent sessions.
func (l *Log) runCommitter() {
	defer l.wg.Done()
	var batch []commitReq
	var buf []byte
	lastBatch := 1
	for {
		var first commitReq
		select {
		case first = <-l.reqs:
		case <-l.quit:
			// Drain stragglers that won the send race with Close.
			for {
				select {
				case r := <-l.reqs:
					r.done <- fmt.Errorf("durable: log closed")
				default:
					return
				}
			}
		}
		batch = append(batch[:0], first)
		buf = append(buf[:0], first.buf...)
	fill:
		for {
			select {
			case r := <-l.reqs:
				batch = append(batch, r)
				buf = append(buf, r.buf...)
			default:
				break fill
			}
		}
		// With fsync-per-batch and evidence of concurrent appenders —
		// the drain above caught extras, or the previous batch
		// coalesced — hold the batch open for one short window. The
		// appenders we just acknowledged are re-encoding their next
		// entries right now; the window lets them join this batch
		// instead of forcing one fsync each. A solo appender never
		// leaves evidence, so it commits immediately.
		// The window is a yield-spin, not a timer: Go timers round a
		// 50µs sleep up to roughly a millisecond, which would cost more
		// than the fsyncs it saves.
		if l.opts.Fsync == FsyncAlways && (len(batch) > 1 || lastBatch > 1) {
			// Once as many appends have joined as the previous batch
			// held, the whole cohort has re-arrived — commit now
			// rather than spinning out the deadline.
			deadline := time.Now().Add(groupWindow)
		window:
			for len(batch) < lastBatch {
				select {
				case r := <-l.reqs:
					batch = append(batch, r)
					buf = append(buf, r.buf...)
				default:
					if !time.Now().Before(deadline) {
						break window
					}
					runtime.Gosched()
				}
			}
		}
		lastBatch = len(batch)
		err := l.commit(buf)
		// Count the batch before releasing its appenders, so Stats read
		// after an acknowledgement include it.
		l.batches.Add(1)
		l.mBatchRecords.Observe(int64(len(batch)))
		l.appends.Add(int64(len(batch)))
		l.mAppends.Add(int64(len(batch)))
		for _, r := range batch {
			r.done <- err
		}
	}
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
			l.failed = fmt.Errorf("durable: log failed closed: %w", err)
			return l.failed
		}
	}
	if _, err := l.writeBatch(l.f, buf); err != nil {
		l.failed = fmt.Errorf("durable: log failed closed: %w", err)
		return l.failed
	}
	l.size += int64(len(buf))
	l.appendedBytes.Add(int64(len(buf)))
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		l.dirty.Store(true)
	}
	return nil
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.fsyncs.Add(1)
	l.mFsyncs.Inc()
	l.mFsyncMicros.ObserveSince(start)
	l.dirty.Store(false)
	return err
}

// runIntervalSync fsyncs dirty segments on the configured period.
func (l *Log) runIntervalSync() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if l.dirty.Load() {
				l.mu.Lock()
				_ = l.syncLocked()
				l.mu.Unlock()
			}
		case <-l.quit:
			return
		}
	}
}

// Sync forces an fsync of the active segment regardless of policy
// (the drain path: nothing acknowledged may be lost to a clean
// shutdown).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.syncLocked()
}

// Close stops the committer, fsyncs, and closes the active segment.
// Appends racing Close fail with a closed error.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.quit)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
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
	// nil once Close ran; closed flips first, so check both).
	if l.closed.Load() || l.f == nil {
		return 0, fmt.Errorf("durable: log closed")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.idx, nil
}
