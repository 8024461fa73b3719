// Package durable persists the enforcement state that the paper's
// security model is defined over: the per-session query history (the
// trace IS the security state — decisions are "compliant given the
// history", §2.2) and the policy snapshot it was decided under. It is
// a dependency-free write-ahead log with group commit, periodic
// checkpoints with prefix compaction, and crash recovery that replays
// checkpoint plus tail segments and truncates a torn tail record
// instead of failing.
//
// Layout of a WAL directory:
//
//	wal-00000001.seg   segment files: fixed header, then framed records
//	wal-00000002.seg
//	ckpt-00000002.ck   checkpoint: sessions + policy snapshot covering
//	                   every segment with index < 2
//
// Record framing (segment and checkpoint files alike):
//
//	[length u32 LE][crc32 u32 LE][type byte][payload ...]
//
// length counts type byte plus payload; crc32 (IEEE) guards the same
// bytes. A record that fails its length or CRC check terminates the
// scan: in the final segment that is a torn tail (the crash happened
// mid-write) and recovery truncates it; in an earlier segment it is
// corruption and recovery fails loudly. See DESIGN.md §11 for the
// crash-consistency argument.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment and checkpoint file headers: 4-byte magic, format version,
// three reserved bytes.
var (
	segMagic  = [4]byte{'A', 'C', 'W', 'L'}
	ckptMagic = [4]byte{'A', 'C', 'C', 'K'}
)

// FormatVersion is the on-disk format version stamped into every
// segment and checkpoint header. Readers reject files from a newer
// format rather than misparse them. Version 2 appends the count of
// omitted result rows to an append record (trace.Entry.Omitted); a
// version-1 record reads as having kept every row.
const FormatVersion = 2

const headerSize = 8

// Record types. Session and append records appear in segments;
// checkpoint files open with a meta record, carry the same session and
// append records, and close with an end record (so a checkpoint that
// was only partially written is detectably incomplete even after an
// atomic-rename filesystem reorders writes).
const (
	recSession  byte = 1 // durable session declared / attrs updated
	recAppend   byte = 2 // one trace entry appended to a session
	recPolicy   byte = 3 // policy snapshot (fingerprint + view SQL)
	recCkptMeta byte = 4 // checkpoint meta: covered cut, policy, db hash
	recCkptEnd  byte = 5 // checkpoint terminator (record count)

	// Policy lifecycle records (version.go): a candidate policy staged
	// for shadow trial is an addressable version (id, parent,
	// snapshot); promote/rollback markers reference it by id. Recovery
	// restores both the active AND the staged candidate policy, so a
	// crash mid-trial resumes the trial.
	recPolicyStage    byte = 6 // candidate policy version staged
	recPolicyPromote  byte = 7 // staged candidate promoted to active
	recPolicyRollback byte = 8 // staged candidate discarded

	// Reserved: cluster mode's lease and shipped records. Cluster mode
	// was removed; no later record may reuse these bytes, and recovery
	// refuses a log that holds either (recover.go).
	recLease   byte = 9
	recShipped byte = 10
)

// recHeaderSize frames every record: u32 length + u32 crc.
const recHeaderSize = 8

// maxRecordBytes bounds one record; a length field beyond it is
// treated as corruption, not an allocation request.
const maxRecordBytes = 64 << 20

func writeFileHeader(w io.Writer, magic [4]byte) error {
	var h [headerSize]byte
	copy(h[:4], magic[:])
	h[4] = FormatVersion
	_, err := w.Write(h[:])
	return err
}

func checkFileHeader(h []byte, magic [4]byte) error {
	if len(h) < headerSize || h[0] != magic[0] || h[1] != magic[1] || h[2] != magic[2] || h[3] != magic[3] {
		return fmt.Errorf("durable: bad file magic")
	}
	if h[4] > FormatVersion {
		// Recovery fails rather than misread a file this reader
		// predates or, for a checkpoint, fall back past its state.
		return fmt.Errorf("durable: format version %d newer than supported %d", h[4], FormatVersion)
	}
	return nil
}

// appendRecord frames one record (type+payload) onto buf. It allocates
// nothing beyond growing buf: the WAL frames under its queue lock.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(append(buf, 0, 0, 0, 0, typ), payload...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+8:]))
	return buf
}

// scanResult reports how a segment scan ended.
type scanResult struct {
	// goodOff is the file offset just past the last intact record.
	goodOff int64
	// torn is true when trailing bytes exist past goodOff that do not
	// form an intact record (short header, short payload, bad CRC, or
	// an absurd length).
	torn bool
	// records counts intact records scanned.
	records int
}

// scanRecords reads framed records from data (the file contents past
// the header), calling fn for each intact one. It never fails on a
// torn tail: it stops and reports it. fn returning an error aborts the
// scan with that error.
func scanRecords(data []byte, baseOff int64, fn func(typ byte, payload []byte) error) (scanResult, error) {
	res := scanResult{goodOff: baseOff}
	off := 0
	for {
		if len(data)-off < recHeaderSize {
			res.torn = off < len(data)
			return res, nil
		}
		n := binary.LittleEndian.Uint32(data[off:])
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordBytes || len(data)-off-recHeaderSize < int(n) {
			res.torn = true
			return res, nil
		}
		body := data[off+recHeaderSize : off+recHeaderSize+int(n)]
		if crc32.ChecksumIEEE(body) != want {
			res.torn = true
			return res, nil
		}
		if err := fn(body[0], body[1:]); err != nil {
			return res, err
		}
		off += recHeaderSize + int(n)
		res.goodOff = baseOff + int64(off)
		res.records++
	}
}

// readSegmentFile loads one segment (or checkpoint) file, verifies the
// header, and scans its records. magic selects the expected header.
func readSegmentFile(path string, magic [4]byte, fn func(typ byte, payload []byte) error) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, err
	}
	if len(data) < headerSize {
		// A file created but not yet fully through its header write is
		// itself a torn artifact: no intact prefix at all, so the
		// good offset is zero.
		return scanResult{torn: true}, nil
	}
	if err := checkFileHeader(data, magic); err != nil {
		return scanResult{}, fmt.Errorf("%s: %w", path, err)
	}
	return scanRecords(data[headerSize:], headerSize, fn)
}
