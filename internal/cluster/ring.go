// Package cluster turns N proxy replicas into one enforcement
// cluster (DESIGN.md §16): a membership layer with periodic health
// probes over the v2 cluster.* op set, consistent-hash routing of
// durable sessions so each session's history accrues on exactly one
// node, and lease-based ownership with WAL shipping so a follower can
// adopt an owner's sessions byte-identically after it dies.
//
// The package implements proxy.ClusterHandler; the dependency points
// cluster → proxy only.
package cluster

import "sort"

// vnodesPerMember is the virtual-node count per member. More vnodes
// smooth the key distribution and shrink the movement bound on
// membership change; 64 keeps ring rebuilds cheap at small N.
const vnodesPerMember = 64

// Ring is an immutable consistent-hash ring: members are expanded
// into virtual nodes, and a key belongs to the member owning the
// first vnode at or clockwise past the key's hash. Replacing the ring
// wholesale on membership change (rather than mutating it) lets the
// routing hot path read it through one atomic pointer.
type Ring struct {
	vnodes  []vnode
	members []string
}

type vnode struct {
	hash   uint64
	member string
}

// fnv64a is FNV-1a; inlined so the ring owes nothing to hash/maphash
// seeding (placement must be identical on every node).
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 finalizes a hash with an avalanche pass (the 64-bit
// murmur-style fmix). Raw FNV leaves the high bits — the bits ring
// position sorts on — barely touched by an input's trailing bytes, so
// suffix-structured names ("node1".."node4", "session-0042") cluster
// and the key distribution collapses. The finalizer spreads every
// input bit across the word.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash positions a session name on the ring.
func keyHash(key string) uint64 { return mix64(fnv64a(key)) }

// vnodeHash salts the member id with the vnode ordinal. The '#' joint
// keeps "node1"+vnode 11 distinct from "node11"+vnode 1.
func vnodeHash(member string, i int) uint64 {
	var buf [20]byte
	n := 0
	for ; i > 0 || n == 0; i /= 10 {
		buf[n] = byte('0' + i%10)
		n++
	}
	h := fnv64a(member + "#")
	const prime = 1099511628211
	for j := n - 1; j >= 0; j-- {
		h ^= uint64(buf[j])
		h *= prime
	}
	return mix64(h)
}

// NewRing builds a ring over members (order-insensitive; duplicates
// collapse). A nil/empty member set yields an empty ring, whose Owner
// always answers "".
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, vnodes: make([]vnode, 0, len(uniq)*vnodesPerMember)}
	for _, m := range uniq {
		for i := 0; i < vnodesPerMember; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: vnodeHash(m, i), member: m})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		// Hash ties (vanishingly rare) break on member id so every
		// node sorts identically.
		return r.vnodes[i].member < r.vnodes[j].member
	})
	return r
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// firstAt returns the index of the first vnode at or past h, wrapping.
func (r *Ring) firstAt(h uint64) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	return r.vnodes[r.firstAt(keyHash(key))].member
}

// Follower returns the member the key's owner ships this key's WAL
// records to ("" when the ring has fewer than two members): the first
// member other than the owner on the key's clockwise walk. The walk
// order is what makes WAL shipping line up with failover: when the
// owner leaves the ring, Owner(key) over the survivors is exactly
// this member.
func (r *Ring) Follower(key string) string {
	if len(r.members) < 2 {
		return ""
	}
	start := r.firstAt(keyHash(key))
	owner := r.vnodes[start].member
	for i := 1; ; i++ {
		if m := r.vnodes[(start+i)%len(r.vnodes)].member; m != owner {
			return m
		}
	}
}
