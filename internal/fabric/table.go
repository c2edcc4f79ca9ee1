package fabric

import (
	"sync"
	"sync/atomic"
)

// ShardFunc decides whether a topic is sharded and, if so, its shard
// key. The default (TraceShard) shards the per-trace-topic derivative
// class topics by their trace-topic UUID, so every derivative class of
// one entity co-locates on the same owner.
type ShardFunc func(ts string) (key string, sharded bool)

// Table is one epoch of the ownership map: an immutable ring plus a
// bounded per-topic route memo. Swapped atomically on membership
// change, so the publish hot path reads it without locks and in-flight
// messages route against a consistent epoch.
type Table struct {
	// Epoch numbers this ownership generation; it increments on every
	// live-set change and is carried in gossip, directory registrations
	// and health snapshots.
	Epoch uint64
	// Self is the local broker's name ("local" ownership).
	Self string

	ring  *Ring
	shard ShardFunc

	// memo caches Route per topic string. Topic strings are
	// publisher-controlled, so the memo is bounded like the broker's
	// propagation cache: past the cap answers are computed uncached.
	memo  sync.Map // string -> routeMemo
	memoN atomic.Int64
}

// routeMemoMax bounds the per-table route memo.
const routeMemoMax = 8192

type routeMemo struct {
	owner   string
	local   bool
	sharded bool
}

// NewTable builds the ownership table for one membership epoch.
func NewTable(epoch uint64, self string, members []string, vnodes int, shard ShardFunc) *Table {
	if shard == nil {
		shard = TraceShard
	}
	return &Table{
		Epoch: epoch,
		Self:  self,
		ring:  NewRing(members, vnodes),
		shard: shard,
	}
}

// Route maps a topic to its owner under this epoch. sharded=false means
// the topic is outside the partitioned space (system topics,
// unconstrained app topics) and routes by ordinary subscription flood.
func (t *Table) Route(ts string) (owner string, local, sharded bool) {
	if v, ok := t.memo.Load(ts); ok {
		m := v.(routeMemo)
		return m.owner, m.local, m.sharded
	}
	var m routeMemo
	if key, ok := t.shard(ts); ok && t.ring.Size() > 0 {
		m = routeMemo{owner: t.ring.Owner(key), sharded: true}
		m.local = m.owner == t.Self
	}
	if t.memoN.Load() < routeMemoMax {
		if _, loaded := t.memo.LoadOrStore(ts, m); !loaded {
			t.memoN.Add(1)
		}
	}
	return m.owner, m.local, m.sharded
}

// Members returns the sorted live member set this table was built over.
func (t *Table) Members() []string { return t.ring.Members() }

// OwnedPerMille reports the local broker's share of the hash circle.
func (t *Table) OwnedPerMille() int { return t.ring.ownedPerMille(t.Self) }
