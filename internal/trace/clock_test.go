package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cq"
)

// testClock is a write clock a test moves by hand: write(table) is one
// write to that table.
type testClock struct {
	seq    uint64
	tables map[string]uint64
	loads  int
}

func (c *testClock) Seq() uint64 { c.loads++; return c.seq }

func (c *testClock) TableSeq(table string) uint64 { return c.tables[table] }

func (c *testClock) write(table string) {
	c.seq++
	c.tables[table] = c.seq
}

// at appends e as read at the clock's current state.
func at(c *testClock, e Entry) Entry {
	e.ReadSeq = c.seq
	return e
}

func factKeys(tr *Trace, tl *cq.Translator) string {
	_, keys := tr.FactsKeyed(tl)
	return strings.Join(keys, "; ")
}

// TestClockRetiresFacts: under a write clock a fact leaves the list
// once its table is written after the newest read that yielded it, a
// fresher read of it brings it back, a write to another table retires
// nothing, an entry read at state 0 yields nothing usable, and a
// snapshot handed out before stays as it was. With nothing written and
// nothing appended since, a call reads the clock once.
func TestClockRetiresFacts(t *testing.T) {
	s := calSchema(t)
	tl := &cq.Translator{Schema: s}
	c := &testClock{seq: 1, tables: map[string]uint64{"events": 1, "attendance": 1}}
	tr := &Trace{}
	tr.SetClock(c)
	attend := entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1))
	event := entry("SELECT EId, Title FROM Events WHERE EId=2", iv(2))
	event.Rows[0] = append(event.Rows[0], iv(0)[0])
	tr.Append(at(c, attend))
	tr.Append(at(c, event))
	before, beforeKeys := tr.FactsKeyed(tl)
	if len(before) != 2 {
		t.Fatalf("facts %q, want 2", beforeKeys)
	}
	snapshot := fmt.Sprint(beforeKeys)

	c.write("attendance")
	if got := factKeys(tr, tl); strings.Contains(got, "attendance") || !strings.Contains(got, "events") {
		t.Fatalf("after a write to Attendance: %q, want the Events fact alone", got)
	}
	if fmt.Sprint(beforeKeys) != snapshot {
		t.Fatalf("an earlier snapshot changed: %v, was %s", beforeKeys, snapshot)
	}
	loads := c.loads
	_, _ = tr.FactsKeyed(tl)
	if c.loads != loads+1 {
		t.Fatalf("a call with nothing new read the clock %d times, want 1", c.loads-loads)
	}

	tr.Append(at(c, attend)) // a fresher read of the retired fact
	if got := factKeys(tr, tl); !strings.Contains(got, "attendance") {
		t.Fatalf("after reading Attendance again: %q, want its fact back", got)
	}
	c.write("users")
	if got := factKeys(tr, tl); len(strings.Split(got, "; ")) != 2 {
		t.Fatalf("after a write to another table: %q, want both facts", got)
	}

	stale := attend
	stale.SQL, stale.Stmt = "SELECT 1 FROM Attendance WHERE UId=3 AND EId=4", entry("SELECT 1 FROM Attendance WHERE UId=3 AND EId=4").Stmt
	tr.Append(stale) // ReadSeq 0: no state
	if got := factKeys(tr, tl); strings.Contains(got, "3, 4") {
		t.Fatalf("an entry read at state 0 yields %q", got)
	}
}
