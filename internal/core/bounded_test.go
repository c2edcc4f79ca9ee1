package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBoundedMatchesModel runs seeded random sequences of put, get,
// remove and clear against a slice holding the live keys in put order.
// After every step the table must hold exactly the model's entries in
// the same order, never more than max; a put may evict only when the
// live entries fill the table, and then exactly the one put longest
// ago — so a removed key never evicts anything later.
func TestBoundedMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(6)
		b := newBounded[int, int](max)
		var keys []int // live keys, oldest put first
		vals := map[int]int{}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (max %d): "+format, append([]any{seed, step, max}, args...)...)
		}
		for step := 0; step < 2000; step++ {
			k := rng.Intn(2 * max)
			switch op := rng.Intn(20); {
			case op < 10: // put
				v := rng.Int()
				var want int
				wantEvict := false
				if i := slices.Index(keys, k); i >= 0 {
					keys = slices.Delete(keys, i, i+1)
				} else if len(keys) == max {
					want, wantEvict = keys[0], true
					keys = keys[1:]
					delete(vals, want)
				}
				keys = append(keys, k)
				vals[k] = v
				if got := b.put(k, v); got != wantEvict {
					fail(step, "put(%d) evicted = %v, want %v (live %d)", k, got, wantEvict, len(keys))
				}
				if _, ok := b.get(want); wantEvict && ok {
					fail(step, "put(%d) kept %d, the oldest live key", k, want)
				}
			case op < 16: // get
				v, ok := b.get(k)
				wv, wok := vals[k]
				if ok != wok || v != wv {
					fail(step, "get(%d) = %d, %v; want %d, %v", k, v, ok, wv, wok)
				}
			case op < 19: // remove
				i := slices.Index(keys, k)
				if i >= 0 {
					keys = slices.Delete(keys, i, i+1)
					delete(vals, k)
				}
				if got := b.remove(k); got != (i >= 0) {
					fail(step, "remove(%d) = %v, want %v", k, got, i >= 0)
				}
			default:
				b.clear()
				keys = keys[:0]
				clear(vals)
			}
			if n := b.len(); n != len(keys) || n > max {
				fail(step, "len = %d, model %d", n, len(keys))
			}
			var got []int
			b.each(func(k, v int) {
				if v != vals[k] {
					fail(step, "each: %d = %d, want %d", k, v, vals[k])
				}
				got = append(got, k)
			})
			if !slices.Equal(got, keys) {
				fail(step, "order %v, want %v", got, keys)
			}
		}
	}
}
