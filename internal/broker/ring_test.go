package broker

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"entitytrace/internal/ident"
)

// TestUUIDRingEviction drives the dedupe ring through fill, wrap and
// steady-state overwrite, checking FIFO order of the displaced IDs.
func TestUUIDRingEviction(t *testing.T) {
	const capacity = 4
	r := newUUIDRing(capacity)
	if r.cap() != capacity {
		t.Fatalf("cap = %d, want %d", r.cap(), capacity)
	}
	ids := make([]ident.UUID, 3*capacity)
	for i := range ids {
		ids[i] = ident.NewUUID()
	}
	// Filling must not evict.
	for i := 0; i < capacity; i++ {
		if old, evicted := r.push(ids[i]); evicted {
			t.Fatalf("push %d evicted %v before ring was full", i, old)
		}
		if r.len() != i+1 {
			t.Fatalf("len = %d after %d pushes", r.len(), i+1)
		}
	}
	// Every further push displaces the oldest ID, in insertion order.
	for i := capacity; i < len(ids); i++ {
		old, evicted := r.push(ids[i])
		if !evicted {
			t.Fatalf("push %d did not evict with a full ring", i)
		}
		if want := ids[i-capacity]; old != want {
			t.Fatalf("push %d evicted %v, want %v (FIFO order)", i, old, want)
		}
		if r.len() != capacity {
			t.Fatalf("len = %d, want %d (fixed at capacity)", r.len(), capacity)
		}
	}
}

// TestUUIDRingMinCapacity verifies the degenerate capacity is clamped so
// a misconfigured window cannot panic the dedupe path.
func TestUUIDRingMinCapacity(t *testing.T) {
	r := newUUIDRing(0)
	if r.cap() != 1 {
		t.Fatalf("cap = %d, want clamp to 1", r.cap())
	}
	a, b := ident.NewUUID(), ident.NewUUID()
	if _, evicted := r.push(a); evicted {
		t.Fatal("first push evicted")
	}
	old, evicted := r.push(b)
	if !evicted || old != a {
		t.Fatalf("second push: evicted=%v old=%v, want eviction of %v", evicted, old, a)
	}
}

// TestFirstSightingWindow exercises the broker-level dedupe semantics on
// the ring: IDs inside the window are duplicates, IDs displaced out of
// the window are forgotten and admitted again.
func TestFirstSightingWindow(t *testing.T) {
	b := New(Config{Name: "ring-test"})
	defer b.Close()
	ids := make([]ident.UUID, DefaultDedupeWindow+1)
	for i := range ids {
		ids[i] = ident.NewUUID()
	}
	window := ids[:DefaultDedupeWindow]
	for i, id := range window {
		if !b.firstSighting(id) {
			t.Fatalf("id %d reported as duplicate on first sighting", i)
		}
	}
	for i, id := range window {
		if b.firstSighting(id) {
			t.Fatalf("id %d not recognized as duplicate inside window", i)
		}
	}
	// One ID past the window displaces ids[0]; the displaced ID is new
	// again (and its re-admission displaces ids[1], leaving ids[2] in the
	// window).
	if !b.firstSighting(ids[DefaultDedupeWindow]) {
		t.Fatal("fresh id reported as duplicate")
	}
	if !b.firstSighting(ids[0]) {
		t.Fatal("displaced id still reported as duplicate")
	}
	if b.firstSighting(ids[2]) {
		t.Fatal("id still inside window admitted twice")
	}
}

// TestSeenSetMatchesReferenceWindow holds the probe table to the
// definition of the window — an ID is a duplicate iff it is among the
// last cap first sightings — kept as the plain ring-plus-map it
// replaced, over random streams drawn from a pool small enough that IDs
// recur inside, at and just past the window's edge, and over windows
// whose tables wrap and shift entries back on every eviction.
func TestSeenSetMatchesReferenceWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, window := range []int{1, 2, 3, 7, 8, 64} {
		pool := make([]ident.UUID, 3*window+1)
		for i := range pool {
			pool[i] = ident.NewUUID()
		}
		s := newSeenSet(window)
		ref := make(map[ident.UUID]bool)
		order := newUUIDRing(window)
		for step := 0; step < 20000; step++ {
			id := pool[rng.Intn(len(pool))]
			want := !ref[id]
			if want {
				ref[id] = true
				if old, evicted := order.push(id); evicted {
					delete(ref, old)
				}
			}
			if got := s.add(id); got != want {
				t.Fatalf("window %d, step %d: first sighting = %v, want %v", window, step, got, want)
			}
		}
	}
}

// TestSeenSetConcurrentFirstSightings races goroutines over one shared
// set of IDs: each ID is a first sighting exactly once, whoever sees it.
func TestSeenSetConcurrentFirstSightings(t *testing.T) {
	const ids, readers = 2000, 4
	s := newSeenSet(DefaultDedupeWindow)
	pool := make([]ident.UUID, ids)
	for i := range pool {
		pool[i] = ident.NewUUID()
	}
	var firsts atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range pool {
				if s.add(pool[(i+r*ids/readers)%ids]) {
					firsts.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if firsts.Load() != ids {
		t.Fatalf("%d first sightings of %d IDs", firsts.Load(), ids)
	}
}
