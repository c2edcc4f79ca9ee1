package message

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"entitytrace/internal/ident"
	"entitytrace/internal/secure"
	"entitytrace/internal/topic"
)

// The forwarding hop works on the bytes it received: SpliceForward
// copies them with the TTL byte decremented and a hop appended, and a
// session tag is checked over them where they lie. These tests hold both
// to the re-encoding they replace.

// forwardSeeds are encodings covering each shape the splice treats
// differently: no span, a span with room, an empty span, a span at
// MaxHops, the last TTL, and — last — a tag under k.
func forwardSeeds(t testing.TB, k *secure.SessionKey) [][]byte {
	e := New(TraceAllsWell, topic.MustParse("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates"),
		"entity", []byte("payload"))
	e.Token = []byte("token")
	e.Signature = []byte("signature")
	seeds := [][]byte{e.Marshal()}
	spanned := e.Clone()
	spanned.StartSpan()
	spanned.AddHop("entity", time.Unix(0, 1))
	spanned.AddHop("broker-1", time.Unix(0, 2))
	seeds = append(seeds, spanned.Marshal())
	empty := e.Clone()
	empty.StartSpan()
	seeds = append(seeds, empty.Marshal())
	full := e.Clone()
	full.StartSpan()
	for i := 0; i < MaxHops; i++ {
		full.AddHop("n", time.Unix(0, int64(i)))
	}
	seeds = append(seeds, full.Marshal())
	last := spanned.Clone()
	last.TTL = 1
	seeds = append(seeds, last.Marshal())
	tagged := spanned.Clone()
	tagged.Token, tagged.Signature = nil, nil
	if err := tagged.SignSession(k); err != nil {
		t.Fatal(err)
	}
	return append(seeds, tagged.Marshal())
}

func testSessionKey(t testing.TB) *secure.SessionKey {
	params, err := secure.NewSessionParams(sha256.Sum256([]byte("token")), 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	k, err := params.Derive("tt", "entity")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzSpliceForward: for every encoding the decoder accepts, the spliced
// forward frame is byte for byte the frame the broker used to build —
// Clone, AddHop, AppendWire with the TTL decremented — and so is
// AppendForward's; a hop refused at MaxHops is counted once by each.
func FuzzSpliceForward(f *testing.F) {
	for _, s := range forwardSeeds(f, testSessionKey(f)) {
		f.Add(s)
	}
	at := time.Unix(0, 1_700_000_000_123_456_789)
	f.Fuzz(func(t *testing.T, data []byte) {
		wire := append([]byte(nil), data...)
		env, err := UnmarshalShared(wire)
		if err != nil {
			return
		}
		refused := uint64(0)
		if env.Span != nil && len(env.Span.Hops) >= MaxHops {
			refused = 1
		}

		before := mSpanTruncated.Value()
		ref := env.Clone()
		ref.AddHop("forwarder", at)
		want := ref.AppendWire([]byte{0xEE}, env.TTL-1)
		if got := mSpanTruncated.Value() - before; got != refused {
			t.Fatalf("AddHop counted %d refused hops, want %d", got, refused)
		}

		before = mSpanTruncated.Value()
		got, err := SpliceForward([]byte{0xEE}, wire, "forwarder", at)
		if err != nil {
			t.Fatalf("splice of an accepted encoding: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spliced frame differs from the re-encoded one:\n got %x\nwant %x", got, want)
		}
		if n := mSpanTruncated.Value() - before; n != refused {
			t.Fatalf("splice counted %d refused hops, want %d", n, refused)
		}
		if !bytes.Equal(wire, data) {
			t.Fatal("splice modified the received bytes")
		}

		before = mSpanTruncated.Value()
		if got := env.AppendForward([]byte{0xEE}, "forwarder", at); !bytes.Equal(got, want) {
			t.Fatalf("AppendForward differs from the re-encoded frame:\n got %x\nwant %x", got, want)
		}
		if n := mSpanTruncated.Value() - before; n != refused {
			t.Fatalf("AppendForward counted %d refused hops, want %d", n, refused)
		}
	})
}

// TestInPlaceTagMatchesReencode flips every bit of every byte of a
// session-tagged encoding: wherever the mutant still decodes, the tag
// check over the received bytes must reach the verdict of the check over
// the re-serialized signing bytes. Flips in the TTL byte and the span
// trailer — outside the signed bytes — are accepted by both.
func TestInPlaceTagMatchesReencode(t *testing.T) {
	k := testSessionKey(t)
	seeds := forwardSeeds(t, k)
	pristine := seeds[len(seeds)-1]
	ttlOff := len(pristine) - 1
	if env, err := UnmarshalShared(append([]byte(nil), pristine...)); err != nil {
		t.Fatal(err)
	} else {
		ttlOff = int(env.rx.ttlOff)
	}
	var decoded, accepted int
	for i := range pristine {
		for bit := 0; bit < 8; bit++ {
			wire := append([]byte(nil), pristine...)
			wire[i] ^= 1 << bit
			env, err := UnmarshalShared(wire)
			if err != nil {
				continue
			}
			decoded++
			if _, _, ok := env.signedInPlace(); !ok {
				t.Fatalf("byte %d bit %d: a decoded envelope is not checked in place", i, bit)
			}
			inPlace := env.VerifySessionTag(k)
			reencoded := env.Clone().VerifySessionTag(k)
			if (inPlace == nil) != (reencoded == nil) {
				t.Fatalf("byte %d bit %d: in place %v, re-encoded %v", i, bit, inPlace, reencoded)
			}
			if inPlace == nil {
				accepted++
			}
			if i == ttlOff && inPlace != nil {
				t.Fatalf("a TTL flip broke the tag: %v", inPlace)
			}
		}
	}
	if decoded == 0 || accepted == 0 || accepted == decoded {
		t.Fatalf("vacuous: %d mutants decoded, %d accepted", decoded, accepted)
	}
}

// TestInPlaceTagRefusesModifiedEnvelope: once a decoded envelope's
// signed fields change in memory, its received bytes no longer are its
// signing bytes, so the check serializes — and rejects, exactly like
// the same edit on an envelope that never was received.
func TestInPlaceTagRefusesModifiedEnvelope(t *testing.T) {
	k := testSessionKey(t)
	seeds := forwardSeeds(t, k)
	pristine := seeds[len(seeds)-1]
	for _, tc := range []struct {
		name string
		edit func(*Envelope)
	}{
		{"payload replaced", func(e *Envelope) { e.Payload = []byte("forged") }},
		{"flags", func(e *Envelope) { e.Flags |= FlagSecured }},
		{"topic", func(e *Envelope) { e.Topic = topic.MustParse("/Constrained/Traces/Broker/Publish-Only/tt/Load") }},
		{"source", func(e *Envelope) { e.Source = "mallory" }},
		{"sequence", func(e *Envelope) { e.SeqNum++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := UnmarshalShared(append([]byte(nil), pristine...))
			if err != nil {
				t.Fatal(err)
			}
			if err := env.VerifySessionTag(k); err != nil {
				t.Fatalf("pristine envelope: %v", err)
			}
			tc.edit(env)
			if _, _, ok := env.signedInPlace(); ok {
				t.Fatal("a modified envelope is still checked against its received bytes")
			}
			if err := env.VerifySessionTag(k); !errors.Is(err, secure.ErrBadSessionTag) {
				t.Fatalf("modified envelope verified: %v", err)
			}
		})
	}
}

// TestDecoderInterns checks that a Decoder hands out one string per
// distinct source, hop name and topic, and parses each topic once.
func TestDecoderInterns(t *testing.T) {
	d := NewDecoder()
	seeds := forwardSeeds(t, testSessionKey(t))
	a, err := d.Decode(append([]byte(nil), seeds[1]...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Decode(append([]byte(nil), seeds[1]...))
	if err != nil {
		t.Fatal(err)
	}
	if !same(string(a.Source), string(b.Source)) || !same(a.Topic.String(), b.Topic.String()) ||
		!same(a.Span.Hops[1].Node, b.Span.Hops[1].Node) {
		t.Fatal("a repeated string was decoded twice")
	}
	if !same(string(a.Source), a.Span.Hops[0].Node) {
		t.Fatal("source and hop name tables differ for the same name")
	}
	if a.Span == b.Span || &a.Span.Hops[0] == &b.Span.Hops[0] {
		t.Fatal("envelopes share mutable span state")
	}
}

// same reports whether x and y are one non-empty string in memory.
func same(x, y string) bool { return x != "" && x == y && unsafe.StringData(x) == unsafe.StringData(y) }

// TestDecoderBypassesTableThatNeverHits: on traffic where no topic
// repeats, the topic table gives up after internGiveUp misses in a row,
// keeps nothing for internBypass lookups, then interns again — while
// the name table, still hitting on broker hop names, never stops.
func TestDecoderBypassesTableThatNeverHits(t *testing.T) {
	d := NewDecoder()
	n := 0
	decode := func(w []byte) *Envelope {
		t.Helper()
		env, err := d.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	// twice decodes a fresh envelope twice: two topic lookups.
	twice := func() (a, b *Envelope) {
		w := traceWire(n, true)
		n++
		return decode(w), decode(w)
	}
	distinct := func(k int) {
		for ; k > 0; k-- {
			decode(traceWire(n, true))
			n++
		}
	}
	if a, b := twice(); !same(a.Topic.String(), b.Topic.String()) {
		t.Fatal("a fresh decoder did not intern a repeated topic")
	}
	distinct(internGiveUp)
	a, b := twice()
	if same(a.Topic.String(), b.Topic.String()) {
		t.Fatalf("the topic table still interns after %d misses in a row", internGiveUp)
	}
	if !same(a.Span.Hops[2].Node, b.Span.Hops[2].Node) {
		t.Fatal("the name table stopped interning while it was hitting")
	}
	distinct(internBypass - 2)
	if a, b := twice(); !same(a.Topic.String(), b.Topic.String()) {
		t.Fatalf("the topic table did not resume after %d bypassed lookups", internBypass)
	}
}

// traceWire encodes envelope i of a stream shaped like session traces
// crossing a broker link: an entity's trace topic, the entity as source
// and first hop, two broker hops. With distinct, no topic, source or
// entity name repeats across the stream; otherwise four entities
// publish in turn.
func traceWire(i int, distinct bool) []byte {
	entity := i % 4
	if distinct {
		entity = i
	}
	var tt ident.UUID
	binary.BigEndian.PutUint64(tt[8:], uint64(entity))
	name := fmt.Sprintf("entity-%d", entity)
	e := New(TraceAllsWell, topic.AllUpdates(tt), ident.EntityID(name), make([]byte, 64))
	e.Flags = FlagSessionTag
	e.Signature = make([]byte, secure.SessionIDLen+secure.SessionTagLen)
	e.StartSpan()
	e.AddHop(name, time.Unix(0, 1))
	e.AddHop("broker-0", time.Unix(0, 2))
	e.AddHop("broker-1", time.Unix(0, 3))
	return e.Marshal()
}

// BenchmarkDecode prices the intern tables on the two kinds of traffic
// a connection can carry: "repeated", a few topics and names over and
// over (each benchmark workload has four entities), and "distinct",
// where no topic, source or entity name ever repeats (a link across
// which each of 100k entities publishes once), so those lookups all
// miss. "shared" is the same decode without a Decoder (UnmarshalShared).
func BenchmarkDecode(b *testing.B) {
	const n = 4096
	for _, traffic := range []string{"repeated", "distinct"} {
		wires := make([][]byte, n)
		for i := range wires {
			wires[i] = traceWire(i, traffic == "distinct")
		}
		for _, dec := range []string{"decoder", "shared"} {
			b.Run(traffic+"/"+dec, func(b *testing.B) {
				var d *Decoder
				if dec == "decoder" {
					d = NewDecoder()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.Decode(wires[i%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
