package message

import (
	"hash/maphash"

	"entitytrace/internal/topic"
)

// Decoder parses the envelopes one receive loop reads, decoding each
// string that repeats from envelope to envelope only once: topics are
// parsed (and their §3.1 reading taken) on first sight, and sources and
// span hop names are shared, from bounded intern tables the Decoder
// owns. A broker peer or a client connection holds one; it is not safe
// for concurrent use. The nil *Decoder is valid and interns nothing.
type Decoder struct {
	seed   maphash.Seed
	topics internTable[topic.Topic]
	names  internTable[string]
}

// Intern table shape. Each table is internSlots entries in two-way sets,
// allocated on first use: a string hashes to one set, and a miss moves
// the set's newer entry over its older one and takes the newer slot —
// a fixed bound, with no growth and no emptying. A string over
// internMaxLen bytes is not retained, so a peer cannot pin large
// buffers. A table that misses internGiveUp lookups in a row is
// bypassed for its next internBypass lookups: on traffic that does not
// repeat a string (a topic per entity, each publishing once), a table
// costs a hash and a store per miss for nothing, and bypassed it costs
// nothing (BenchmarkDecode).
const (
	internSlots  = 256
	internMaxLen = 256
	internGiveUp = 64
	internBypass = 1024
)

// internTable is one bounded intern table, from strings to V.
type internTable[V any] struct {
	slots        []internSlot[V]
	misses, skip int // lookups missed in a row; lookups left to bypass
}

type internSlot[V any] struct {
	hash uint64
	key  string
	v    V
}

// internRef is where a lookup that missed files its result; set < 0
// means the table keeps nothing this time.
type internRef struct {
	set  int
	hash uint64
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder {
	return &Decoder{seed: maphash.MakeSeed()}
}

// Decode parses a wire-format envelope like UnmarshalShared: Payload,
// Token and Signature alias b, which the caller must not modify
// afterwards.
func (d *Decoder) Decode(b []byte) (*Envelope, error) {
	return unmarshal(b, true, d)
}

// find looks raw up; on a miss it returns where add files the value.
func (t *internTable[V]) find(seed maphash.Seed, raw []byte) (v V, ok bool, ref internRef) {
	if t.skip > 0 {
		t.skip--
		return v, false, internRef{set: -1}
	}
	if len(raw) > internMaxLen {
		return v, false, internRef{set: -1}
	}
	if t.slots == nil {
		t.slots = make([]internSlot[V], internSlots)
	}
	h := maphash.Bytes(seed, raw)
	set := int(h) & (internSlots - 1) &^ 1
	for _, s := range t.slots[set : set+2] {
		if s.hash == h && s.key == string(raw) {
			t.misses = 0
			return s.v, true, internRef{}
		}
	}
	if t.misses++; t.misses == internGiveUp {
		t.misses, t.skip = 0, internBypass
	}
	return v, false, internRef{set: set, hash: h}
}

// add files v under key where find said to.
func (t *internTable[V]) add(ref internRef, key string, v V) {
	if ref.set < 0 {
		return
	}
	t.slots[ref.set+1] = t.slots[ref.set]
	t.slots[ref.set] = internSlot[V]{hash: ref.hash, key: key, v: v}
}

// topic parses a topic field, interned.
func (d *Decoder) topic(raw []byte) (topic.Topic, error) {
	if d == nil {
		return topic.Parse(string(raw))
	}
	tp, ok, ref := d.topics.find(d.seed, raw)
	if ok {
		return tp, nil
	}
	tp, err := topic.Parse(string(raw))
	if err == nil {
		d.topics.add(ref, tp.String(), tp)
	}
	return tp, err
}

// name decodes a source or hop-name field, interned.
func (d *Decoder) name(raw []byte) string {
	if d == nil || len(raw) == 0 {
		return string(raw)
	}
	s, ok, ref := d.names.find(d.seed, raw)
	if !ok {
		s = string(raw)
		d.names.add(ref, s, s)
	}
	return s
}
