package message

import (
	"bytes"
	"testing"
	"time"

	"entitytrace/internal/secure"
)

func TestSpanRoundTrip(t *testing.T) {
	e := sampleEnvelope()
	sp := e.StartSpan()
	if sp.TraceID != e.ID {
		t.Fatalf("span trace ID %v, want envelope ID %v", sp.TraceID, e.ID)
	}
	t0 := time.Unix(0, 1_000_000_000)
	e.AddHop("svc-1", t0)
	e.AddHop("broker-1", t0.Add(2*time.Millisecond))
	e.AddHop("broker-2", t0.Add(5*time.Millisecond))

	back, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Span == nil {
		t.Fatal("span lost in round trip")
	}
	if back.Span.TraceID != e.ID {
		t.Fatalf("trace ID %v, want %v", back.Span.TraceID, e.ID)
	}
	if len(back.Span.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(back.Span.Hops))
	}
	for i, want := range []Hop{
		{Node: "svc-1", AtNanos: t0.UnixNano()},
		{Node: "broker-1", AtNanos: t0.Add(2 * time.Millisecond).UnixNano()},
		{Node: "broker-2", AtNanos: t0.Add(5 * time.Millisecond).UnixNano()},
	} {
		if back.Span.Hops[i] != want {
			t.Fatalf("hop %d = %+v, want %+v", i, back.Span.Hops[i], want)
		}
	}
}

// TestSeedFormatCompatibility pins the wire contract: an envelope without
// a span marshals to exactly the seed byte layout (the span'd form is a
// strict extension), and seed-format bytes decode to a nil span.
func TestSeedFormatCompatibility(t *testing.T) {
	e := sampleEnvelope()
	seedWire := e.Marshal()

	back, err := Unmarshal(seedWire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Span != nil {
		t.Fatal("seed-format envelope decoded with a span")
	}

	e.StartSpan()
	e.AddHop("svc-1", time.Unix(0, 42))
	spanWire := e.Marshal()
	if !bytes.HasPrefix(spanWire, seedWire) {
		t.Fatal("span'd wire form is not a strict extension of the seed form")
	}
	if len(spanWire) == len(seedWire) {
		t.Fatal("span added zero bytes")
	}
}

// TestSignatureSurvivesHopStamping mirrors TestSignatureSurvivesTTLDecrement:
// the span is mutable routing state outside the signed byte range, so
// brokers stamping hops must not invalidate the publisher's signature.
func TestSignatureSurvivesHopStamping(t *testing.T) {
	e := sampleEnvelope()
	signer, _ := secure.NewSigner(testPair.Private, secure.SHA1)
	if err := e.Sign(signer); err != nil {
		t.Fatal(err)
	}
	e.StartSpan()
	e.AddHop("broker-1", time.Now())
	e.AddHop("broker-2", time.Now())
	back, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.VerifySignature(testPair.Public, secure.SHA1); err != nil {
		t.Fatalf("hop stamping broke the signature: %v", err)
	}
}

func TestSpanRejectsBadTrailer(t *testing.T) {
	e := sampleEnvelope()
	e.StartSpan()
	e.AddHop("svc-1", time.Unix(0, 1))
	wire := e.Marshal()

	// Corrupt the trailer marker.
	seedLen := len(sampleEnvelopeSeedWire(e))
	bad := append([]byte(nil), wire...)
	bad[seedLen] = 0x7f
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted unknown trailer marker")
	}

	// Truncate mid-span.
	if _, err := Unmarshal(wire[:len(wire)-3]); err == nil {
		t.Fatal("accepted truncated span")
	}

	// Trailing bytes after a valid span.
	if _, err := Unmarshal(append(append([]byte(nil), wire...), 0xff)); err == nil {
		t.Fatal("accepted trailing bytes after span")
	}
}

// sampleEnvelopeSeedWire returns e's wire form without its span.
func sampleEnvelopeSeedWire(e *Envelope) []byte {
	cp := e.Clone()
	cp.Span = nil
	return cp.Marshal()
}

func TestSpanHopBound(t *testing.T) {
	e := sampleEnvelope()
	e.StartSpan()
	before := mSpanTruncated.Value()
	for i := 0; i < MaxHops+10; i++ {
		e.AddHop("n", time.Unix(0, int64(i)))
	}
	if got := len(e.Span.Hops); got != MaxHops {
		t.Fatalf("hops = %d, want capped at %d", got, MaxHops)
	}
	// Refused hops are not silent: each increments the truncation
	// counter on /metrics, so invisible flow tails are detectable.
	if got := mSpanTruncated.Value() - before; got != 10 {
		t.Fatalf("span_hops_truncated_total advanced by %d, want 10", got)
	}
	back, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Span.Hops) != MaxHops {
		t.Fatalf("round-tripped hops = %d", len(back.Span.Hops))
	}
}

func TestAddHopWithoutSpanIsNoop(t *testing.T) {
	e := sampleEnvelope()
	e.AddHop("broker-1", time.Now())
	if e.Span != nil {
		t.Fatal("AddHop created a span on an envelope that never opted in")
	}
}

func TestStartSpanIdempotent(t *testing.T) {
	e := sampleEnvelope()
	sp := e.StartSpan()
	e.AddHop("a", time.Unix(0, 1))
	if e.StartSpan() != sp {
		t.Fatal("StartSpan replaced an existing span")
	}
	if len(e.Span.Hops) != 1 {
		t.Fatal("StartSpan cleared existing hops")
	}
}

func TestHopLatencies(t *testing.T) {
	var nilSpan *Span
	if nilSpan.HopLatencies() != nil {
		t.Fatal("nil span latencies")
	}
	s := &Span{Hops: []Hop{
		{Node: "a", AtNanos: 100},
		{Node: "b", AtNanos: 350},
		{Node: "c", AtNanos: 250}, // clock skew: negative delta preserved
	}}
	got := s.HopLatencies()
	want := []time.Duration{250, -100}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
}

func TestCloneDeepCopiesSpan(t *testing.T) {
	e := sampleEnvelope()
	e.StartSpan()
	e.AddHop("a", time.Unix(0, 1))
	cp := e.Clone()
	cp.AddHop("b", time.Unix(0, 2))
	if len(e.Span.Hops) != 1 {
		t.Fatalf("mutating the clone changed the original (hops=%d)", len(e.Span.Hops))
	}
	if cp.Span.TraceID != e.Span.TraceID {
		t.Fatal("clone lost the trace ID")
	}
}
