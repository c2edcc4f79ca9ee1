// Package fabric is the self-assembling broker fabric: trace topics are
// partitioned across broker shards by a consistent-hash ring with
// virtual nodes, membership is learned from the §3.2 broker directory
// and maintained by anti-entropy gossip over a constrained system
// topic, and topic ownership rebalances under an epoch-numbered table
// when brokers join, leave or fail (PROTOCOL.md §3.9).
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVNodes is the virtual-node count per member, fabric-wide: every
// member must build the same ring to agree on owners, and no member
// gossips its count, so it is a constant rather than a setting. 512
// points per broker keeps every member's share of a 10k-topic keyspace
// within the ±15% balance bound the ring tests enforce up to 16-broker
// fabrics (arc-length relative deviation scales as 1/sqrt(vnodes)), at
// ~8KB of ring state per member. Rings rebuild only on membership
// change, so the build cost is off the hot path.
const DefaultVNodes = 512

// point is one virtual node: a position on the 64-bit hash circle owned
// by a member (indexed into the sorted member list).
type point struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring over a member set. Built
// once per membership epoch and shared read-only, so lookups never
// lock. Two rings built from the same member set are identical on every
// node regardless of join order: members are sorted and vnode placement
// is pure SHA-256.
type Ring struct {
	members []string
	points  []point
}

// NewRing builds a ring over members (deduplicated, sorted) with vnodes
// virtual nodes each (<= 0 selects DefaultVNodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	uniq := ms[:0]
	for i, m := range ms {
		if m == "" || (i > 0 && m == ms[i-1]) {
			continue
		}
		uniq = append(uniq, m)
	}
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for i, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{pointHash(m, v), int32(i)})
		}
	}
	// Hash collisions between distinct members' vnodes are broken by
	// member rank so the order — and therefore ownership — is still
	// deterministic across nodes.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// pointHash places virtual node v of a member on the circle.
func pointHash(member string, v int) uint64 {
	var suffix [5]byte
	suffix[0] = '#'
	binary.BigEndian.PutUint32(suffix[1:], uint32(v))
	h := sha256.New()
	h.Write([]byte(member))
	h.Write(suffix[:])
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// keyHash places a shard key on the circle.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Members returns the sorted member set the ring was built over.
func (r *Ring) Members() []string { return r.members }

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// ownedPerMille reports what fraction of the hash circle the named
// member owns, in per-mille — the compact balance figure surfaced on
// broker health snapshots. Arc lengths, not vnode counts: this is the
// expected share of a uniformly hashed keyspace.
func (r *Ring) ownedPerMille(member string) int {
	if len(r.points) == 0 {
		return 0
	}
	idx := -1
	for i, m := range r.members {
		if m == member {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	var owned uint64
	for i, p := range r.points {
		if p.member != int32(idx) {
			continue
		}
		var arc uint64
		if i == 0 {
			arc = p.hash + (^uint64(0) - r.points[len(r.points)-1].hash)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		// Scaled down so the per-mille multiply below cannot overflow.
		owned += arc >> 16
	}
	total := ^uint64(0) >> 16
	return int(owned * 1000 / total)
}
