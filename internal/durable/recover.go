package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// RecoveredSession is one session's state rebuilt from checkpoint +
// WAL replay.
type RecoveredSession struct {
	Name  string
	Attrs map[string]sqlvalue.Value
	// Entries are the surviving history entries; Base is the absolute
	// index of Entries[0] (earlier entries were evicted or compacted
	// away before the last checkpoint).
	Entries []trace.Entry
	Base    uint64
}

// next returns the absolute index the session's next entry must have.
func (s *RecoveredSession) next() uint64 { return s.Base + uint64(len(s.Entries)) }

// RecoveryResult is everything Recover rebuilt, plus how it went.
type RecoveryResult struct {
	Sessions map[string]*RecoveredSession
	// Policy is the last persisted policy snapshot (nil when none was
	// ever logged).
	Policy *PolicyID
	// ActiveVersion identifies the promoted policy version Policy
	// corresponds to; nil when the active policy was only ever set
	// through the unversioned SetPolicy path.
	ActiveVersion *PolicyVersion
	// Candidate is the staged-but-undecided candidate policy version
	// (nil when no shadow trial was in flight). A crash mid-trial
	// restores it so the trial resumes instead of evaporating.
	Candidate *PolicyVersion
	// LastVersionID is the highest policy-version id seen during
	// replay; the manager's id counter resumes past it.
	LastVersionID uint64
	// CheckpointCut is the cut of the checkpoint replayed (0: none).
	CheckpointCut uint64
	// SegmentsReplayed counts segment files scanned; RecordsReplayed
	// intact records applied (checkpoint and segments).
	SegmentsReplayed int
	RecordsReplayed  int
	// TornTailBytes counts bytes truncated off the final segment (0:
	// clean shutdown). DuplicatesSkipped counts append records dropped
	// because the checkpoint already covered them.
	TornTailBytes     int64
	DuplicatesSkipped int
}

// PolicyID is the persisted policy identity: the checker fingerprint
// decisions were made under, the view SQL for inspection, and the
// engine content hash of the database served.
type PolicyID struct {
	Fingerprint string
	Views       map[string]string
	DBHash      uint64
	// Seq is the database's write sequence (engine.DB.Seq) when DBHash
	// was taken; it is not logged. Restored entries read as of it.
	Seq uint64
}

// Recover rebuilds session state from a WAL directory: it replays the
// newest complete checkpoint, then every segment at or above its cut,
// in index order. A torn tail on the FINAL segment is truncated in
// place (the crash happened mid-append; nothing after it was ever
// acknowledged under FsyncAlways); torn records anywhere else are
// corruption and fail loudly. An empty or missing directory recovers
// to an empty state.
func Recover(dir string) (*RecoveryResult, error) {
	res := &RecoveryResult{Sessions: make(map[string]*RecoveredSession)}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return res, nil
	}
	// Leftover temp checkpoints are crash debris; clear them so they
	// are never mistaken for data.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".tmp" {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}

	cks, err := listIndexed(dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return nil, err
	}
	// Newest complete checkpoint wins; a torn or incomplete one (should
	// be impossible given atomic rename, but disks happen) falls back to
	// the next older.
	for i := len(cks) - 1; i >= 0; i-- {
		ok, err := res.replayCheckpoint(filepath.Join(dir, ckptName(cks[i])))
		if err != nil {
			return nil, fmt.Errorf("durable: replay %s: %w", ckptName(cks[i]), err)
		}
		if ok {
			res.CheckpointCut = cks[i]
			break
		}
		res.Sessions = make(map[string]*RecoveredSession)
		res.Policy = nil
		res.ActiveVersion, res.Candidate, res.LastVersionID = nil, nil, 0
	}

	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	for i, idx := range segs {
		if idx < res.CheckpointCut {
			continue // covered by the checkpoint; compaction just hasn't run
		}
		path := filepath.Join(dir, segName(idx))
		sr, err := readSegmentFile(path, segMagic, func(typ byte, payload []byte) error {
			return res.apply(typ, payload)
		})
		if err != nil {
			return nil, fmt.Errorf("durable: replay %s: %w", segName(idx), err)
		}
		res.SegmentsReplayed++
		res.RecordsReplayed += sr.records
		if sr.torn {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("durable: %s: torn record in a non-final segment (corruption)", segName(idx))
			}
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			res.TornTailBytes = fi.Size() - sr.goodOff
			if err := os.Truncate(path, sr.goodOff); err != nil {
				return nil, fmt.Errorf("durable: truncate torn tail of %s: %w", segName(idx), err)
			}
		}
	}
	return res, nil
}

// replayCheckpoint applies one checkpoint file. ok=false (without
// error) means the file is torn or incomplete and the caller should fall
// back to an older one. A file or an intact record this reader cannot
// read fails recovery, as in a segment: falling back past it would
// drop the state it carries without a word, when no older checkpoint
// or compacted segment still holds that state.
func (res *RecoveryResult) replayCheckpoint(path string) (ok bool, err error) {
	var (
		sawMeta bool
		sawEnd  bool
		count   int
		wantEnd uint64
	)
	sr, err := readSegmentFile(path, ckptMagic, func(typ byte, payload []byte) error {
		count++
		if !sawMeta {
			if typ != recCkptMeta {
				return fmt.Errorf("checkpoint does not open with meta")
			}
			if _, err := decodeCkptMeta(payload); err != nil {
				return err
			}
			sawMeta = true
			return nil
		}
		if sawEnd {
			return fmt.Errorf("records after checkpoint end")
		}
		if typ == recCkptEnd {
			n, err := decodeCkptEnd(payload)
			if err != nil {
				return err
			}
			sawEnd, wantEnd = true, n
			return nil
		}
		return res.apply(typ, payload)
	})
	if err != nil {
		return false, err
	}
	if sr.torn || !sawMeta || !sawEnd || uint64(count) != wantEnd {
		return false, nil
	}
	res.RecordsReplayed += count
	return true, nil
}

// apply folds one intact record into the state. Append records dedup
// by absolute index: a record the checkpoint already covers is
// skipped; a gap (an index beyond the session's next) is corruption.
func (res *RecoveryResult) apply(typ byte, payload []byte) error {
	switch typ {
	case recSession:
		name, attrs, err := decodeSession(payload)
		if err != nil {
			return err
		}
		s := res.Sessions[name]
		if s == nil {
			s = &RecoveredSession{Name: name}
			res.Sessions[name] = s
		}
		s.Attrs = attrs
	case recAppend:
		name, idx, e, err := decodeAppend(payload)
		if err != nil {
			return err
		}
		s := res.Sessions[name]
		if s == nil {
			// An append for an undeclared session: the session record
			// is always written (and acknowledged) first, so this is
			// corruption, not reordering.
			return fmt.Errorf("append for undeclared session %q", name)
		}
		next := s.next()
		switch {
		case idx < next:
			// Already covered by the checkpoint (the rotate-then-
			// snapshot overlap window) or by an earlier duplicate.
			res.DuplicatesSkipped++
		case idx == next, len(s.Entries) == 0:
			// An empty session accepts any starting index: a window
			// checkpoint legitimately begins a session's surviving
			// history at its eviction base.
			if len(s.Entries) == 0 {
				s.Base = idx
			}
			s.Entries = append(s.Entries, e)
		default:
			return fmt.Errorf("session %q: append index %d skips ahead of %d", name, idx, next)
		}
	case recPolicy:
		p, err := decodePolicy(payload)
		if err != nil {
			return err
		}
		res.Policy = &PolicyID{Fingerprint: p.Fingerprint, Views: p.Views, DBHash: p.DBHash}
	case recPolicyStage, recPolicyPromote, recPolicyRollback:
		return res.applyPolicyVersion(typ, payload)
	case recLease, recShipped:
		// A reserved type: recovery fails rather than drop the state
		// the record carried.
		return fmt.Errorf("reserved record type %d: written by cluster mode, which was removed", typ)
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return nil
}
