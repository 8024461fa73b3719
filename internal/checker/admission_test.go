package checker

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The decision cache's admission rule (cache.go): while a shard has
// room it stores every decision; once full it stores a key it does not
// hold only at the key's second sighting.

const admitSQL = "SELECT EId FROM Attendance WHERE UId = ? AND EId = ?"

// admitChecker returns a checker whose decision cache holds size
// entries, and the statement the tests decide.
func admitChecker(t *testing.T, size int) (*Checker, *sqlparser.SelectStmt) {
	t.Helper()
	var opts Options
	opts.CacheSize = size
	return NewWithOptions(calendarPolicy(t), opts), sqlparser.MustParseSelect(admitSQL)
}

// decideEId decides admitSQL for principal 1 and event eid: an allow
// (V1 covers it) whose template keeps eid, so each eid is its own key.
func decideEId(t *testing.T, c *Checker, sel *sqlparser.SelectStmt, eid int64, tr *trace.Trace) Decision {
	t.Helper()
	d := c.Check(context.Background(), sel, sqlparser.PositionalArgs(int64(1), eid), session(1), tr)
	if !d.Allowed {
		t.Fatalf("EId %d: %s", eid, d.Reason)
	}
	return d
}

// fillCache decides one-off keys from eid 1_000_000 up until every shard
// is full, then clears the doorkeepers, so what the caller offers next
// meets a full cache and a doorkeeper that has seen nothing (no false
// positive to account for).
func fillCache(t *testing.T, c *Checker, sel *sqlparser.SelectStmt) {
	t.Helper()
	capacity := cacheShards * c.cache.perShard
	for eid := int64(1_000_000); c.cache.Len() < capacity; eid++ {
		if eid > 1_000_000+int64(100*capacity) {
			t.Fatalf("cache never filled: %d of %d", c.cache.Len(), capacity)
		}
		decideEId(t, c, sel, eid, nil)
	}
	for i := range c.cache.shards {
		clear(c.cache.shards[i].door)
		c.cache.shards[i].recorded = 0
	}
}

// cachedKeys returns the decision cache's keys, sorted.
func cachedKeys(c *Checker) []string {
	var out []string
	for i := range c.cache.shards {
		for k := range c.cache.shards[i].m {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

func TestAdmissionDeclinesOneOffAtCapacity(t *testing.T) {
	c, sel := admitChecker(t, 32)
	fillCache(t, c, sel)
	keys := cachedKeys(c)
	declined := c.mDeclined.Value()

	// A trace-carrying check goes through the history-free tier.
	d := decideEId(t, c, sel, 7, &trace.Trace{})
	if d.Tier != "" {
		t.Fatalf("a key never seen answered from cache: %+v", d)
	}
	if got := cachedKeys(c); !slices.Equal(got, keys) {
		t.Fatalf("a one-off key changed the stored keys: %d before, %d after", len(keys), len(got))
	}
	if got := c.mDeclined.Value(); got != declined+1 {
		t.Fatalf("checker.cache.declined = %d, want %d", got, declined+1)
	}
}

func TestAdmissionStoresSecondSighting(t *testing.T) {
	c, sel := admitChecker(t, 32)
	fillCache(t, c, sel)
	tr := &trace.Trace{}
	if d := decideEId(t, c, sel, 7, tr); d.Tier != "" {
		t.Fatalf("first sighting answered from cache: %+v", d)
	}
	if d := decideEId(t, c, sel, 7, tr); d.Tier != "" {
		t.Fatalf("second sighting answered from cache: %+v", d)
	}
	if n := c.cache.Len(); n != 32 {
		t.Fatalf("a stored key must evict one: %d entries, want 32", n)
	}
	entriesCounted(t, c)
	if d := decideEId(t, c, sel, 7, tr); d.Tier != TierHistFree {
		t.Fatalf("third sighting: tier %q; want a histfree hit", d.Tier)
	}
}

func TestAdmissionKeepsHotEntry(t *testing.T) {
	c, sel := admitChecker(t, 256)
	fillCache(t, c, sel)
	// Make a hot key resident: two sightings store it, the third hits.
	decideEId(t, c, sel, 7, nil)
	decideEId(t, c, sel, 7, nil)
	if d := decideEId(t, c, sel, 7, nil); d.Tier == "" {
		t.Fatal("hot key not resident after its second sighting")
	}
	// Four capacities of one-off keys, the hot key untouched. Storing
	// them all would cycle every shard several times over.
	for eid := int64(2_000_000); eid < 2_000_000+4*256; eid++ {
		decideEId(t, c, sel, eid, nil)
	}
	if d := decideEId(t, c, sel, 7, nil); d.Tier == "" {
		t.Fatal("a stream of one-off keys evicted the hot entry")
	}
}

func TestAdmissionUnconditionalAfterResetCache(t *testing.T) {
	p := calendarPolicy(t)
	var opts Options
	opts.CacheSize = 32
	c := NewWithOptions(p, opts)
	sel := sqlparser.MustParseSelect(admitSQL)
	fillCache(t, c, sel)
	if err := p.Add("VAllEvents", "SELECT * FROM Events"); err != nil {
		t.Fatal(err)
	}
	entriesCounted(t, c)
	c.ResetCache()
	if n := c.cache.Len(); n != 0 {
		t.Fatalf("%d entries of the dead epoch still held after ResetCache", n)
	}
	entriesCounted(t, c)
	declined := c.mDeclined.Value()
	decideEId(t, c, sel, 7, nil)
	if d := decideEId(t, c, sel, 7, nil); d.Tier == "" {
		t.Fatal("after ResetCache a first sighting must be stored")
	}
	if c.mDeclined.Value() != declined {
		t.Fatal("admission declined a store into a cache with room")
	}
	entriesCounted(t, c)
}

// entriesCounted fails unless checker.cache.entries counts the entries
// the decision cache holds.
func entriesCounted(t *testing.T, c *Checker) {
	t.Helper()
	if got, want := c.Metrics().Counter("checker.cache.entries").Value(), int64(c.cache.Len()); got != want {
		t.Fatalf("checker.cache.entries = %d, the cache holds %d", got, want)
	}
}

// TestAdmissionDecisionParity: admission only chooses what is kept.
// A generated stream of repeats and one-offs — allows, history-free
// denials, and denials that facts lift — is decided through a small
// full cache, through one it never fills, and by CheckCold. The two
// caches must agree in full. CheckCold must agree in Allowed: it has
// no history-free tier, so an allow that facts cover as well reads
// "reveals no database content" there, and "covered by V1" through a
// cache, full or not.
func TestAdmissionDecisionParity(t *testing.T) {
	p := calendarPolicy(t)
	var opts Options
	opts.CacheSize = 32
	small := NewWithOptions(p, opts)
	opts.CacheSize = 1 << 16
	big := NewWithOptions(p, opts)

	own := sqlparser.MustParseSelect(admitSQL) // allowed for the principal's own rows
	event := sqlparser.MustParseSelect("SELECT Title FROM Events WHERE EId = ?")
	probe := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?")
	rng := rand.New(rand.NewSource(29))
	traces := map[int64]*trace.Trace{1: {}, 2: {}}
	ctx := context.Background()
	for i := 0; i < 4000; i++ {
		uid := int64(1 + rng.Intn(2))
		eid := int64(rng.Intn(24)) // repeats
		if rng.Intn(2) == 0 {
			eid = 100_000 + int64(i) // one-offs
		}
		if rng.Intn(40) == 0 {
			// uid attends eid: a fact the Events read can rest on.
			traces[uid].Append(trace.Entry{
				SQL: probe.SQL(), Stmt: probe, Args: sqlparser.PositionalArgs(uid, eid),
				Columns: []string{"1"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
			})
		}
		tr := traces[uid]
		if rng.Intn(8) == 0 {
			tr = nil
		}
		sel, args := event, sqlparser.PositionalArgs(eid)
		if rng.Intn(2) == 0 {
			// Another principal's row a quarter of the time: blocked.
			quid := uid
			if rng.Intn(4) == 0 {
				quid = 3 - uid
			}
			sel, args = own, sqlparser.PositionalArgs(quid, eid)
		}
		got := small.Check(ctx, sel, args, session(uid), tr)
		want := big.Check(ctx, sel, args, session(uid), tr)
		cold := big.CheckCold(ctx, sel, args, session(uid), tr)
		if got.Allowed != want.Allowed || got.Reason != want.Reason || fmt.Sprint(got.Views) != fmt.Sprint(want.Views) ||
			got.Allowed != cold.Allowed {
			t.Fatalf("op %d (%s, %v, uid %d):\nfull cache:   %+v\nroomy cache:  %+v\nCheckCold:    %+v",
				i, sel.SQL(), args.Positional, uid, got, want, cold)
		}
	}
	if small.mDeclined.Value() == 0 || big.mDeclined.Value() != 0 {
		t.Fatalf("admission declined %d stores in the full cache and %d in the roomy one; want some and none",
			small.mDeclined.Value(), big.mDeclined.Value())
	}
}

// TestAdmissionConcurrent drives a full small cache from several
// goroutines at once — repeats, one-offs, and policy swaps that drop
// dead epochs — for the race detector; every decision must still be the
// allow V1 gives under both policies.
func TestAdmissionConcurrent(t *testing.T) {
	wide := calendarPolicy(t)
	narrow := narrowCalendarPolicy(t, wide)
	var opts Options
	opts.CacheSize = 32
	c, sel := NewWithOptions(wide, opts), sqlparser.MustParseSelect(admitSQL)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &trace.Trace{}
			for i := 0; i < 2000; i++ {
				eid := int64(i % 40)
				if i%2 == 0 {
					eid = int64(1_000_000*(g+1) + i)
				}
				d := c.Check(context.Background(), sel, sqlparser.PositionalArgs(int64(1), eid), session(1), tr)
				if !d.Allowed {
					t.Errorf("goroutine %d, EId %d: %s", g, eid, d.Reason)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		p := wide
		if i%2 == 0 {
			p = narrow
		}
		if _, _, err := c.SetActivePolicy(p); err != nil {
			t.Fatal(err)
		}
	}
}
