package broker

import (
	"hash/maphash"
	"sync"

	"entitytrace/internal/ident"
)

// uuidRing is a fixed-capacity FIFO of message IDs backing the dedupe
// window. The seed kept this FIFO as a slice advanced with s = s[1:],
// which pins the backing array's consumed prefix and forces append to
// reallocate forever; the ring reuses one allocation for the broker's
// lifetime.
type uuidRing struct {
	buf  []ident.UUID
	head int // index of the oldest element
	n    int // populated count
}

// newUUIDRing allocates a ring holding up to capacity IDs.
func newUUIDRing(capacity int) *uuidRing {
	if capacity < 1 {
		capacity = 1
	}
	return &uuidRing{buf: make([]ident.UUID, capacity)}
}

// push appends id; when the ring is full it overwrites and returns the
// displaced oldest entry with evicted=true.
func (r *uuidRing) push(id ident.UUID) (old ident.UUID, evicted bool) {
	if r.n == len(r.buf) {
		old = r.buf[r.head]
		r.buf[r.head] = id
		r.head = (r.head + 1) % len(r.buf)
		return old, true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = id
	r.n++
	return ident.UUID{}, false
}

// next returns the index the next push writes.
func (r *uuidRing) next() int { return (r.head + r.n) % len(r.buf) }

// len reports the populated count.
func (r *uuidRing) len() int { return r.n }

// cap reports the ring's fixed capacity.
func (r *uuidRing) cap() int { return len(r.buf) }

// seenSet is the dedupe window: the ring holds the last cap first
// sightings in arrival order, and an open-addressed, linearly probed
// table indexes them by a per-broker seeded hash (message IDs are
// publisher-chosen, so the probe sequences must not be). A sighting is
// one probe of the table — no map, no allocation — and an ID is a
// duplicate exactly when it is among the ring's entries.
type seenSet struct {
	mu   sync.Mutex
	ring *uuidRing
	// slots holds 1 + the ring index of the ID homed there, 0 when
	// empty; there are at least twice as many as ring entries, so probe
	// runs stay short.
	slots []int32
	seed  maphash.Seed
}

func newSeenSet(window int) *seenSet {
	ring := newUUIDRing(window)
	n := 2
	for n < 2*ring.cap() {
		n <<= 1
	}
	return &seenSet{ring: ring, slots: make([]int32, n), seed: maphash.MakeSeed()}
}

func (s *seenSet) home(id ident.UUID) int {
	return int(maphash.Bytes(s.seed, id[:]) & uint64(len(s.slots)-1))
}

// find returns the slot holding id and true, or the empty slot that ends
// id's probe run and false.
func (s *seenSet) find(id ident.UUID) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == 0 {
			return i, false
		}
		if s.ring.buf[v-1] == id {
			return i, true
		}
	}
}

// remove empties slot hole, shifting later entries of its probe run back
// so that every remaining ID stays reachable from its home slot.
func (s *seenSet) remove(hole int) {
	mask := len(s.slots) - 1
	for i := (hole + 1) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		// The entry at i may fill the hole iff the hole lies on its probe
		// run, i.e. no further from i than its home is.
		if home := s.home(s.ring.buf[s.slots[i]-1]); (i-home)&mask >= (i-hole)&mask {
			s.slots[hole] = s.slots[i]
			hole = i
		}
	}
	s.slots[hole] = 0
}

// contains reports whether id is among the window's entries, recording
// nothing.
func (s *seenSet) contains(id ident.UUID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.find(id)
	return ok
}

// add records a sighting of id and reports whether it is a first one:
// false when id is among the window's last cap first sightings. A full
// window forgets its oldest entry to admit the new one.
func (s *seenSet) add(id ident.UUID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, dup := s.find(id)
	if dup {
		return false
	}
	if s.ring.len() == s.ring.cap() {
		oldest, _ := s.find(s.ring.buf[s.ring.head])
		s.remove(oldest)
		// The removal may have emptied a slot earlier on id's run.
		i, _ = s.find(id)
	}
	s.slots[i] = int32(s.ring.next()) + 1
	s.ring.push(id)
	return true
}
