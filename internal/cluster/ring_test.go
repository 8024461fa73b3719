package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("session-%04d", i)
	}
	return out
}

// TestRingDeterminism: placement is a pure function of the member set —
// member order, ring rebuild count, and process identity must not
// matter, because every node computes its own ring independently.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"a", "b", "c"})
	b := NewRing([]string{"c", "a", "b", "a"}) // shuffled + duplicate
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner(%q) differs across equivalent rings: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
		if a.Follower(k) != b.Follower(k) {
			t.Fatalf("follower(%q) differs: %q vs %q", k, a.Follower(k), b.Follower(k))
		}
	}
}

// TestRingCoversAllMembers: with enough keys every member owns some,
// and the distribution is not pathologically skewed (no member owns
// more than half the keyspace at N=4).
func TestRingCoversAllMembers(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r := NewRing(members)
	counts := map[string]int{}
	ks := keys(4000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns no keys: %v", m, counts)
		}
		if counts[m] > len(ks)/2 {
			t.Fatalf("member %s owns %d of %d keys — distribution collapsed: %v", m, counts[m], len(ks), counts)
		}
	}
}

// TestRingBoundedMovement: removing one of N members must move only
// the removed member's keys; keys owned by survivors stay put. That
// bound is what makes failover targeted — only the dead node's
// sessions change owner.
func TestRingBoundedMovement(t *testing.T) {
	before := NewRing([]string{"a", "b", "c", "d"})
	after := NewRing([]string{"a", "b", "d"})
	moved := 0
	for _, k := range keys(4000) {
		was, is := before.Owner(k), after.Owner(k)
		if was != "c" && was != is {
			t.Fatalf("key %q moved %s→%s though its owner survived", k, was, is)
		}
		if was == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; movement test is vacuous")
	}
}

// TestRingAddMovesOnlyToNewMember: the dual bound for joins — a key
// either keeps its owner or moves to the joining member.
func TestRingAddMovesOnlyToNewMember(t *testing.T) {
	before := NewRing([]string{"a", "b", "c"})
	after := NewRing([]string{"a", "b", "c", "d"})
	gained := 0
	for _, k := range keys(4000) {
		was, is := before.Owner(k), after.Owner(k)
		if was != is {
			if is != "d" {
				t.Fatalf("key %q moved %s→%s on a join of d", k, was, is)
			}
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("joining member gained no keys")
	}
}

// TestFollowerIsFailoverOwner is the invariant WAL shipping leans on:
// the node a key's records ship to (its follower) is exactly the node
// that owns the key once the original owner leaves the ring.
func TestFollowerIsFailoverOwner(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	full := NewRing(members)
	for _, k := range keys(1000) {
		owner := full.Owner(k)
		follower := full.Follower(k)
		if follower == owner {
			t.Fatalf("key %q: follower == owner (%s)", k, owner)
		}
		survivors := make([]string, 0, len(members)-1)
		for _, m := range members {
			if m != owner {
				survivors = append(survivors, m)
			}
		}
		if got := NewRing(survivors).Owner(k); got != follower {
			t.Fatalf("key %q: shipped to %s but failover owner is %s", k, follower, got)
		}
	}
}

// TestRingEdgeCases: empty and single-member rings degrade safely.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	if got := empty.Follower("x"); got != "" {
		t.Fatalf("empty ring follower = %q", got)
	}
	solo := NewRing([]string{"a"})
	if got := solo.Owner("x"); got != "a" {
		t.Fatalf("solo owner = %q", got)
	}
	if got := solo.Follower("x"); got != "" {
		t.Fatalf("solo follower = %q (no one to ship to)", got)
	}
}
