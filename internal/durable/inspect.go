package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// This file is the read-only inspection surface behind cmd/acwal. It
// walks a WAL directory without mutating it — no truncation, no
// compaction — so an operator can examine a live or crashed log.

// FileInfo describes one WAL file as Inspect saw it, in replay order.
type FileInfo struct {
	Name      string // base name (wal-00000003.seg, ckpt-00000002.ck)
	Kind      string // "segment" or "checkpoint"
	Index     uint64
	Bytes     int64  // file size on disk
	Records   int    // intact records scanned
	Torn      bool   // trailing bytes past the last intact record
	TornBytes int64  // how many
	Err       string // header or read failure; empty when scannable
}

// Record is one decoded WAL record, rendered for tooling. Fields are
// populated per type: Session for session/append records, Index for
// append (absolute entry index), ckpt-meta (covered cut), and
// ckpt-end (record count), SQL and Rows for append records.
type Record struct {
	File    string
	Seq     int    // ordinal within the file, 0-based
	Type    string // session | append | policy | ckpt-meta | ckpt-end
	Session string
	Index   uint64
	SQL     string
	Rows    int
	Detail  string // human-oriented extras (attrs, fingerprint, hash)
	Err     string // decode failure for this record; framing was intact
}

func recordTypeName(typ byte) string {
	switch typ {
	case recSession:
		return "session"
	case recAppend:
		return "append"
	case recPolicy:
		return "policy"
	case recCkptMeta:
		return "ckpt-meta"
	case recCkptEnd:
		return "ckpt-end"
	case recPolicyStage:
		return "policy-stage"
	case recPolicyPromote:
		return "policy-promote"
	case recPolicyRollback:
		return "policy-rollback"
	}
	return fmt.Sprintf("unknown(%d)", typ)
}

// shortFP abbreviates a policy fingerprint for display: fingerprints
// are canonical-key joins that grow with the policy, so the dump shows
// a prefix plus the length instead of pages of CQ text.
func shortFP(fp string) string {
	const keep = 24
	if len(fp) <= keep {
		return fp
	}
	return fmt.Sprintf("%s…(%dB)", fp[:keep], len(fp))
}

// decodeForInspection renders one record without trusting it: decode
// errors land in rec.Err instead of failing the walk, because the
// whole point of the tool is examining damaged logs.
func decodeForInspection(file string, seq int, typ byte, payload []byte) Record {
	rec := Record{File: file, Seq: seq, Type: recordTypeName(typ)}
	switch typ {
	case recSession:
		name, attrs, err := decodeSession(payload)
		rec.Session = name
		if err != nil {
			rec.Err = err.Error()
			break
		}
		if len(attrs) > 0 {
			d := ""
			for _, k := range sortedKeys(attrs) {
				if d != "" {
					d += " "
				}
				d += fmt.Sprintf("%s=%s", k, attrs[k])
			}
			rec.Detail = d
		}
	case recAppend:
		name, idx, e, err := decodeAppend(payload)
		rec.Session, rec.Index = name, idx
		rec.SQL, rec.Rows = e.SQL, e.RowCount()
		if err != nil {
			rec.Err = err.Error()
		}
	case recPolicy:
		p, err := decodePolicy(payload)
		if err != nil {
			rec.Err = err.Error()
			break
		}
		rec.Detail = fmt.Sprintf("fingerprint=%s views=%d db=%016x", p.Fingerprint, len(p.Views), p.DBHash)
	case recCkptMeta:
		m, err := decodeCkptMeta(payload)
		if err != nil {
			rec.Err = err.Error()
			break
		}
		rec.Index = m.Cut
		rec.Detail = fmt.Sprintf("cut=%d sessions=%d", m.Cut, m.Sessions)
	case recCkptEnd:
		n, err := decodeCkptEnd(payload)
		if err != nil {
			rec.Err = err.Error()
			break
		}
		rec.Index = n
		rec.Detail = fmt.Sprintf("records=%d", n)
	case recPolicyStage:
		v, err := decodePolicyVersion(payload)
		if err != nil {
			rec.Err = err.Error()
			break
		}
		rec.Index = v.ID
		rec.Detail = fmt.Sprintf("id=%d parent=%d fingerprint=%s views=%d db=%016x",
			v.ID, v.Parent, shortFP(v.Fingerprint), len(v.Views), v.DBHash)
	case recPolicyPromote, recPolicyRollback:
		id, fp, err := decodePolicyMark(payload)
		if err != nil {
			rec.Err = err.Error()
			break
		}
		rec.Index = id
		rec.Detail = fmt.Sprintf("id=%d fingerprint=%s", id, shortFP(fp))
	default:
		rec.Err = "unknown record type"
	}
	return rec
}

// Inspect walks every checkpoint and segment file under dir in replay
// order (checkpoints by index, then segments by index), reporting each
// file via onFile and, when onRecord is non-nil, each intact record
// via onRecord. It never mutates the directory. Either callback may be
// nil. The error return covers directory-level failures only; per-file
// and per-record damage is reported through the callbacks.
func Inspect(dir string, onFile func(FileInfo), onRecord func(Record)) error {
	ckpts, err := listIndexed(dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return err
	}
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	walk := func(indices []uint64, kind string, nameOf func(uint64) string, magic [4]byte) {
		sorted := append([]uint64(nil), indices...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, idx := range sorted {
			name := nameOf(idx)
			path := filepath.Join(dir, name)
			fi := FileInfo{Name: name, Kind: kind, Index: idx}
			if st, err := os.Stat(path); err == nil {
				fi.Bytes = st.Size()
			}
			seq := 0
			res, err := readSegmentFile(path, magic, func(typ byte, payload []byte) error {
				if onRecord != nil {
					onRecord(decodeForInspection(name, seq, typ, payload))
				}
				seq++
				return nil
			})
			if err != nil {
				fi.Err = err.Error()
			} else {
				fi.Records = res.records
				fi.Torn = res.torn
				if res.torn {
					fi.TornBytes = fi.Bytes - res.goodOff
				}
			}
			if onFile != nil {
				onFile(fi)
			}
		}
	}
	walk(ckpts, "checkpoint", ckptName, ckptMagic)
	walk(segs, "segment", segName, segMagic)
	return nil
}
