package main

import (
	"reflect"
	"testing"
)

func drawCal(mix calMix, seed int64, n int) []*op {
	g := newCalGen(mix, seed, 0, 1)
	out := make([]*op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestCalendarStreamDeterministicAndLabelled(t *testing.T) {
	a, b := drawCal(v2WarmMix, 3, 5000), drawCal(v2WarmMix, 3, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if reflect.DeepEqual(a, drawCal(v2WarmMix, 4, 5000)) {
		t.Fatal("different seeds gave the same op stream")
	}
	var fetches, blocked int
	for i, o := range a {
		uid := int64(o.sess%calPrincipals) + 1
		if o.stmt != calFetch {
			continue
		}
		fetches++
		e := o.args[0].(int64)
		attends := e == uid+1 || e == uid+2
		if o.block == attends {
			t.Fatalf("op %d: fetch of event %d by user %d labelled block=%v", i, e, uid, o.block)
		}
		if o.block {
			blocked++
			continue
		}
		// A legitimate fetch rides directly behind its probe, in the
		// same session, so the probe's fact is inside any history window.
		p := a[i-1]
		if p.sess != o.sess || p.stmt != calProbe || p.args[1].(int64) != e {
			t.Fatalf("op %d: fetch of event %d is not preceded by its probe", i, e)
		}
	}
	// Fetches are the only decisions the front tier cannot answer; the
	// regime needs them under 10 % of requests.
	if share := float64(fetches) / float64(len(a)); share > 0.095 || blocked == 0 || blocked == fetches {
		t.Errorf("fetch share %.3f (blocked %d of %d)", share, blocked, fetches)
	}
}

func TestPartitionCoversEverySessionOnce(t *testing.T) {
	seen := map[int32]int{}
	for part := 0; part < 3; part++ {
		for _, s := range partition(10, part, 3) {
			seen[s]++
			if int(s)%3 != part {
				t.Errorf("session %d in partition %d", s, part)
			}
		}
	}
	if len(seen) != 10 {
		t.Errorf("covered %d of 10 sessions", len(seen))
	}
}

func TestColdStreamLabels(t *testing.T) {
	st := make([]coldSessState, coldSessions)
	g := &coldGen{rng: newRand(5, 0), sess: partition(coldSessions, 0, 1), st: st}
	var unions, blocked int
	for i := 0; i < 20000; i++ {
		o := g.next()
		if o.kind != opQuery || int(o.stmt) < coldRelations {
			continue
		}
		unions++
		uid := o.args[0].(int64)
		if other := o.args[3].(int64); o.block != (other != uid) {
			t.Fatalf("union with arm owners %d/%d labelled block=%v", uid, other, o.block)
		}
		if o.block {
			blocked++
		}
		for _, a := range o.args[1:3] {
			if a.(int64) >= coldOwnerBase {
				t.Fatalf("constant %d collides with the principal id range", a)
			}
		}
	}
	if share := float64(blocked) / float64(unions); share < 0.17 || share > 0.23 {
		t.Errorf("blocked share of unions = %.3f, want about 0.2", share)
	}
}

// The checker reads a constant equal to MyUId as the parameter, so no
// constant pg_scan's queries name may be a principal's id, whatever
// nproc is.
func TestPgScanConstantsAvoidPrincipals(t *testing.T) {
	principals := map[int64]bool{}
	for s := 0; s < 4096; s++ {
		id := pgPrincipal(s)
		if id < 1 || id > pgUsers {
			t.Fatalf("session %d: principal %d is not a seeded user", s, id)
		}
		principals[id] = true
	}
	g := &pgGen{rng: newRand(7, 0), sess: []int32{0}}
	for i := 0; i < 20000; i++ {
		for _, a := range g.next().args {
			if principals[a.(int64)] {
				t.Fatalf("op %d names constant %d, which is a principal's id", i, a)
			}
		}
	}
}
