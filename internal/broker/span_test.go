package broker

import (
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// TestSpanAccumulatesAcrossLinks publishes a span'd envelope through a
// three-broker chain and checks that each forwarding broker stamped a
// hop, so the full path publisher→b2→b1→subscriber reconstructs at the
// receiving end.
func TestSpanAccumulatesAcrossLinks(t *testing.T) {
	tr := transport.NewInproc()
	_, addrs := chain(t, tr, 3)

	sub, err := Connect(tr, addrs[0], "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Connect(tr, addrs[2], "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	got := make(chan *message.Envelope, 1)
	tp := topic.MustParse("/span/path")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	// Subscription propagation across both links.
	waitFor(t, "subscription propagation", func() bool {
		env := message.New(message.TypeData, tp, "publisher", []byte("probe"))
		env.StartSpan()
		env.AddHop("publisher", time.Now())
		if err := pub.Publish(env); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-got:
			got <- e
			return true
		case <-time.After(50 * time.Millisecond):
			return false
		}
	})

	e := recvEnvelope(t, got, "span'd envelope")
	if e.Span == nil {
		t.Fatal("span lost crossing broker links")
	}
	hops := make([]string, 0, len(e.Span.Hops))
	for _, h := range e.Span.Hops {
		hops = append(hops, h.Node)
	}
	// Originator hop plus one stamp per broker on the path: b2 and b1
	// stamp when forwarding across links, and b0 stamps when forwarding
	// to the subscribing client connection.
	want := []string{"publisher", "b2", "b1", "b0"}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
	for i := 1; i < len(e.Span.Hops); i++ {
		if e.Span.Hops[i].AtNanos < e.Span.Hops[i-1].AtNanos {
			t.Fatalf("hop timestamps not monotonic under one clock: %v", e.Span.Hops)
		}
	}
	if lat := e.Span.HopLatencies(); len(lat) != 3 {
		t.Fatalf("latencies = %v, want 3 deltas", lat)
	}
}

// TestPlainEnvelopeForwardsWithoutSpan checks the pay-as-you-go contract:
// envelopes that never opted in cross links without growing a span.
func TestPlainEnvelopeForwardsWithoutSpan(t *testing.T) {
	tr := transport.NewInproc()
	_, addrs := chain(t, tr, 2)

	sub, err := Connect(tr, addrs[0], "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Connect(tr, addrs[1], "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	got := make(chan *message.Envelope, 1)
	tp := topic.MustParse("/span/plain")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription propagation", func() bool {
		if err := pub.Publish(message.New(message.TypeData, tp, "publisher", []byte("x"))); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-got:
			got <- e
			return true
		case <-time.After(50 * time.Millisecond):
			return false
		}
	})
	e := recvEnvelope(t, got, "plain envelope")
	if e.Span != nil {
		t.Fatalf("plain envelope grew a span in transit: %+v", e.Span)
	}
}

// TestHopStampFollowsBrokerClock pins the hop stamp to the broker's
// clock: a forwarded frame's new last hop is the broker clock's reading
// when the envelope left its pipeline — on a fake clock, exactly the
// fake time — whether the envelope arrived as bytes from a link (and is
// spliced) or was published locally (and is serialized).
func TestHopStampFollowsBrokerClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	b := New(Config{Name: "stamper", Clock: clk})
	defer b.Close()
	tp := topic.MustParse("/span/clock")
	watcher := addQuietPeer(b, &scriptConn{}, "watcher", false, tp)
	spanned := func() *message.Envelope {
		env := message.New(message.TypeData, tp, "", []byte("x"))
		env.StartSpan()
		env.AddHop("origin", time.Unix(0, 1))
		return env
	}

	clk.Advance(time.Second)
	if err := b.Publish(spanned()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	link := addQuietPeer(b, &scriptConn{frames: [][]byte{append([]byte{frameEnvelope}, spanned().Marshal()...)}}, "link", true)
	b.peerLoop(link)

	frames := queued(watcher)
	if len(frames) != 2 {
		t.Fatalf("watcher got %d frames, want 2", len(frames))
	}
	for i, want := range []time.Time{time.Unix(1_700_000_001, 0), time.Unix(1_700_000_002, 0)} {
		env, err := message.Unmarshal(frames[i][1:])
		if err != nil {
			t.Fatal(err)
		}
		hops := env.Span.Hops
		if last := hops[len(hops)-1]; len(hops) != 2 || last.Node != "stamper" || last.AtNanos != want.UnixNano() {
			t.Errorf("frame %d hops = %+v, want origin then stamper at %d", i, hops, want.UnixNano())
		}
	}
}

// tickingClock is a fake clock that moves on by step at every reading.
type tickingClock struct {
	*clock.Fake
	step time.Duration
}

func (c tickingClock) Now() time.Time {
	c.Advance(c.step)
	return c.Fake.Now()
}

// TestHopStampPerEnvelope: each envelope a batch forwards is stamped
// with its own reading, taken when its frame is built — not one reading
// for the whole batch — so on a clock that moves between readings the
// envelopes of one frameBatch leave with increasing stamps, each later
// than the batch's admission reading.
func TestHopStampPerEnvelope(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	b := New(Config{Name: "stamper", Clock: tickingClock{clock.NewFake(t0), time.Millisecond}})
	defer b.Close()
	tp := topic.MustParse("/span/per-envelope")
	watcher := addQuietPeer(b, &scriptConn{}, "watcher", false, tp)
	var frames [][]byte
	for i := 0; i < 3; i++ {
		env := message.New(message.TypeData, tp, "", []byte("x"))
		env.StartSpan()
		frames = append(frames, append([]byte{frameEnvelope}, env.Marshal()...))
	}
	link := addQuietPeer(b, &scriptConn{frames: [][]byte{appendBatch(nil, frames)}}, "link", true)
	b.peerLoop(link)

	out := queued(watcher)
	if len(out) != len(frames) {
		t.Fatalf("watcher got %d frames, want %d", len(out), len(frames))
	}
	last := t0.Add(time.Millisecond).UnixNano() // at least the admission reading
	for i, f := range out {
		env, err := message.Unmarshal(f[1:])
		if err != nil {
			t.Fatal(err)
		}
		at := env.Span.Hops[len(env.Span.Hops)-1].AtNanos
		if at <= last {
			t.Errorf("frame %d stamped at %d, want after %d", i, at, last)
		}
		last = at
	}
}
