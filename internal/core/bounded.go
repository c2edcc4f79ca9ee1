package core

import "container/list"

// bounded is a map that holds at most max entries. A put into a full
// table evicts the live entry put longest ago, so hostile churn cannot
// grow a verifier's per-token or per-session state (§5.2). Only live
// entries count toward the bound: remove unlinks its entry at once. get
// never reorders, so callers may look up under a read lock. It is not
// safe for concurrent use; every table built on one holds its own
// lock.
type bounded[K comparable, V any] struct {
	max   int
	order *list.List // of *boundedEntry[K, V], oldest put at the front
	index map[K]*list.Element
}

type boundedEntry[K comparable, V any] struct {
	key K
	val V
}

func newBounded[K comparable, V any](max int) *bounded[K, V] {
	return &bounded[K, V]{max: max, order: list.New(), index: make(map[K]*list.Element)}
}

func (b *bounded[K, V]) get(k K) (V, bool) {
	if el, ok := b.index[k]; ok {
		return el.Value.(*boundedEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores v under k as the newest entry; a present key is replaced
// and moves to the newest position. It reports whether it evicted the
// oldest entry to make room.
func (b *bounded[K, V]) put(k K, v V) (evicted bool) {
	if el, ok := b.index[k]; ok {
		el.Value.(*boundedEntry[K, V]).val = v
		b.order.MoveToBack(el)
		return false
	}
	if b.order.Len() >= b.max {
		oldest := b.order.Remove(b.order.Front()).(*boundedEntry[K, V])
		delete(b.index, oldest.key)
		evicted = true
	}
	b.index[k] = b.order.PushBack(&boundedEntry[K, V]{key: k, val: v})
	return evicted
}

// remove deletes k and reports whether it was present.
func (b *bounded[K, V]) remove(k K) bool {
	el, ok := b.index[k]
	if ok {
		b.order.Remove(el)
		delete(b.index, k)
	}
	return ok
}

func (b *bounded[K, V]) len() int { return b.order.Len() }

func (b *bounded[K, V]) clear() {
	b.order.Init()
	clear(b.index)
}

// each calls fn for every entry, oldest put first.
func (b *bounded[K, V]) each(fn func(K, V)) {
	for el := b.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*boundedEntry[K, V])
		fn(e.key, e.val)
	}
}
