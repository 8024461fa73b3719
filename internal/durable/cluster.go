package durable

import (
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// Cluster-mode durability: WAL shipping and lease terms.
//
// In cluster mode (internal/cluster, DESIGN.md §16) the node that owns
// a session streams that session's WAL records to the session's ring
// successor. The follower persists each one wrapped in a recShipped
// record — so its own log distinguishes replicated state from local
// state — and folds the decoded session history into its
// recovered-session table. Takeover is then nothing new: the first
// hello for an adopted session walks the exact same restore path crash
// recovery uses, which is why handover parity is testable the same way
// `make killrecover` is.
//
// Lease terms are tiny monotone counters persisted as recLease records
// (origin node id → highest term granted). They order ownership
// generations across restarts: a follower rejects shipped batches
// carrying a term lower than one it has already durably granted.

// --- record codecs ---

func encodeLease(origin string, term uint64) []byte {
	buf := appendLenString(nil, origin)
	return appendUvarint(buf, term)
}

func decodeLease(payload []byte) (origin string, term uint64, err error) {
	r := payloadReader{b: payload}
	origin = r.str("lease origin")
	term = r.uvarint("lease term")
	return origin, term, r.err
}

func encodeShipped(origin string, innerType byte, innerPayload []byte) []byte {
	buf := appendLenString(nil, origin)
	buf = append(buf, innerType)
	return append(buf, innerPayload...)
}

func decodeShipped(payload []byte) (origin string, innerType byte, inner []byte, err error) {
	r := payloadReader{b: payload}
	origin = r.str("shipped origin")
	t := r.bytes(1, "shipped inner type")
	if r.err != nil {
		return origin, 0, nil, r.err
	}
	return origin, t[0], r.b, nil
}

// --- recovery ---

// applyCluster folds one cluster record into recovered state; called
// from apply for recLease / recShipped.
func (res *RecoveryResult) applyCluster(typ byte, payload []byte) error {
	switch typ {
	case recLease:
		origin, term, err := decodeLease(payload)
		if err != nil {
			return err
		}
		if res.LeaseTerms == nil {
			res.LeaseTerms = make(map[string]uint64)
		}
		if term > res.LeaseTerms[origin] {
			res.LeaseTerms[origin] = term
		}
	case recShipped:
		origin, innerTyp, inner, err := decodeShipped(payload)
		if err != nil {
			return err
		}
		switch innerTyp {
		case recSession:
			return res.apply(recSession, inner)
		case recAppend:
			name, idx, e, err := decodeAppend(inner)
			if err != nil {
				return err
			}
			dup, gap := recoveredIn(res.Sessions, name).foldShipped(idx, e)
			if dup {
				res.DuplicatesSkipped++
			}
			if gap {
				res.ShippedGaps++
			}
		default:
			return fmt.Errorf("shipped record from %q wraps unsupported type %d", origin, innerTyp)
		}
	}
	return nil
}

// recoveredIn returns sessions[name], creating it when absent: a
// shipped record may be the first this node hears of a session.
func recoveredIn(sessions map[string]*RecoveredSession, name string) *RecoveredSession {
	s := sessions[name]
	if s == nil {
		s = &RecoveredSession{Name: name}
		sessions[name] = s
	}
	return s
}

// foldShipped appends one shipped entry at absolute index idx, both
// at runtime (ApplyShipped) and in recovery. Shipped appends tolerate
// what local appends may not: a session with no prior session record
// (the ship stream can begin mid-life when followership changes —
// attrs arrive with the adopting hello), a duplicate (the owner
// re-shipped after a retry; dropped), and an index gap (the owner's
// shipper dropped records under backpressure). A gap restarts the
// history at idx: serving a history with a hole would be unsound.
func (s *RecoveredSession) foldShipped(idx uint64, e trace.Entry) (dup, gap bool) {
	switch next := s.next(); {
	case len(s.Entries) == 0:
		s.Base = idx
	case idx == next:
	case idx < next:
		return true, false
	default:
		s.Base, s.Entries = idx, s.Entries[:0]
		gap = true
	}
	s.Entries = append(s.Entries, e)
	return false, gap
}

// --- manager runtime ---

// ShipHook observes every session/append record the manager logs, with
// the exact payload bytes that went to the WAL. The cluster shipper
// installs one to replicate them; it must not block (it runs on the
// append path, after the local WAL accepted the record).
type ShipHook func(name string, typ byte, payload []byte)

// SetShipHook installs (or clears, with nil) the ship hook.
func (m *Manager) SetShipHook(fn ShipHook) {
	if fn == nil {
		m.shipFn.Store(nil)
		return
	}
	m.shipFn.Store(&fn)
}

func (m *Manager) ship(name string, typ byte, payload []byte) {
	if p := m.shipFn.Load(); p != nil {
		(*p)(name, typ, payload)
	}
}

// ApplyShipped persists one record shipped from origin — wrapped as a
// recShipped WAL record — and folds the decoded state into the
// recovered-session table so a later hello (the takeover path)
// restores it exactly like crash recovery would. Sessions already live
// on this node are not folded (their history is being written locally;
// recovery dedups the overlap by absolute index).
func (m *Manager) ApplyShipped(origin string, typ byte, payload []byte) error {
	switch typ {
	case recSession:
		name, attrs, err := decodeSession(payload)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if m.live[name] == nil {
			recoveredIn(m.recovered, name).Attrs = attrs
		}
		m.mu.Unlock()
	case recAppend:
		name, idx, e, err := decodeAppend(payload)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if m.live[name] == nil {
			rec := recoveredIn(m.recovered, name)
			rec.foldShipped(idx, e)
			if w := m.window; w > 0 && len(rec.Entries) > w {
				drop := len(rec.Entries) - w
				rec.Base += uint64(drop)
				rec.Entries = append(rec.Entries[:0], rec.Entries[drop:]...)
			}
		}
		m.mu.Unlock()
	default:
		return fmt.Errorf("durable: cannot apply shipped record type %d", typ)
	}
	return m.log.Append(recShipped, encodeShipped(origin, typ, payload))
}

// RecordLease durably advances the lease term granted to origin. Terms
// only move forward; re-granting an already-persisted term is a no-op.
func (m *Manager) RecordLease(origin string, term uint64) error {
	m.mu.Lock()
	if m.leaseTerms == nil {
		m.leaseTerms = make(map[string]uint64)
	}
	if term <= m.leaseTerms[origin] {
		m.mu.Unlock()
		return nil
	}
	m.leaseTerms[origin] = term
	m.mu.Unlock()
	return m.log.Append(recLease, encodeLease(origin, term))
}

// LeaseTerm reports the highest durably granted term for origin (0:
// never granted).
func (m *Manager) LeaseTerm(origin string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leaseTerms[origin]
}

// shipPtr is the atomic ship-hook cell type (a named field initializer
// keeps Manager's zero value usable).
type shipPtr = atomic.Pointer[ShipHook]

func sortedUintKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}
