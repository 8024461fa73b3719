package durable

import (
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// fuzzSeedSegment builds a well-formed segment image to mutate from.
func fuzzSeedSegment(tb testing.TB) []byte {
	e := testEntry(tb, "SELECT id FROM events WHERE uid = ?",
		sqlparser.Args{Positional: []sqlvalue.Value{sqlvalue.NewInt(7)}},
		[][]sqlvalue.Value{{sqlvalue.NewInt(1)}, {sqlvalue.NewNull()}})
	buf := make([]byte, 0, 256)
	buf = append(buf, segMagic[0], segMagic[1], segMagic[2], segMagic[3], FormatVersion, 0, 0, 0)
	buf = appendRecord(buf, recSession, encodeSession("alice", map[string]sqlvalue.Value{
		"uid": sqlvalue.NewInt(7), "who": sqlvalue.NewText("alice"),
	}))
	buf = appendRecord(buf, recAppend, encodeAppend("alice", 0, &e))
	buf = appendRecord(buf, recPolicy, encodePolicy(&policySnapshot{
		Fingerprint: "fp", Views: map[string]string{"v": "SELECT id FROM events"}, DBHash: 3,
	}))
	return buf
}

// FuzzWALDecode feeds arbitrary bytes through the same scan + decode
// path recovery uses. The invariant is total robustness: torn writes,
// bit flips, and truncation may fail the scan or a record decode, but
// must never panic and never drive an unbounded allocation.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:headerSize])                      // header only
	f.Add(seed[:len(seed)-3])                     // torn tail (truncated final record)
	f.Add(seed[:headerSize+5])                    // torn record header
	f.Add(append([]byte{}, seed[headerSize:]...)) // records without header

	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x40 // bit flip in a payload: CRC must catch it
	f.Add(flip)

	flipLen := append([]byte(nil), seed...)
	flipLen[headerSize] = 0xff // absurd length prefix
	flipLen[headerSize+1] = 0xff
	flipLen[headerSize+2] = 0xff
	f.Add(flipLen)

	// Version 2: an append record that omitted its rows, with the
	// trailing count, and the same entry in the version-1 layout.
	short := testEntry(f, "SELECT id FROM events WHERE id = ?", sqlparser.PositionalArgs(int64(3)), nil)
	short.Omitted = 140
	v2 := appendRecord(append([]byte(nil), seed[:headerSize]...), recAppend, encodeAppend("alice", 1, &short))
	f.Add(v2)
	v1 := append([]byte(nil), seed[:headerSize]...)
	v1[4] = 1
	short.Omitted = 0
	rec := encodeAppend("alice", 1, &short)
	f.Add(appendRecord(v1, recAppend, rec[:len(rec)-1]))

	// Regression: record claiming maxRecordBytes+ length.
	huge := append([]byte(nil), seed[:headerSize]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, recAppend)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Whole-file path: header check, then scan + apply, exactly as
		// Recover does for a segment.
		if len(data) >= headerSize && checkFileHeader(data, segMagic) == nil {
			res := &RecoveryResult{Sessions: make(map[string]*RecoveredSession)}
			_, _ = scanRecords(data[headerSize:], headerSize, func(typ byte, payload []byte) error {
				_ = res.apply(typ, payload) // decode errors are fine; panics are not
				return nil
			})
		}
		// Raw payload decoders on the same bytes: recovery never calls
		// them on unframed input, but acwal dump can be pointed at
		// arbitrary files.
		_, _, _ = decodeSession(data)
		_, _, _, _ = decodeAppend(data)
		_, _ = decodePolicy(data)
		_, _ = decodeCkptMeta(data)
		_, _ = decodeCkptEnd(data)
	})
}
