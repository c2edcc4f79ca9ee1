package broker

import (
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// TestPersistentLinkSurvivesBrokerRestart kills a neighbouring broker
// and restarts it at the same address; the persistent link re-dials,
// re-synchronizes subscriptions, and routing recovers.
func TestPersistentLinkSurvivesBrokerRestart(t *testing.T) {
	tr := transport.NewInproc()

	// b1 holds the subscriber and maintains a persistent link to the
	// address "hub".
	b1 := New(Config{Name: "b1"})
	defer b1.Close()
	l1, err := tr.Listen("edge")
	if err != nil {
		t.Fatal(err)
	}
	b1.Serve(l1)

	startHub := func() *Broker {
		hub := New(Config{Name: "hub"})
		lh, err := tr.Listen("hub")
		if err != nil {
			t.Fatal(err)
		}
		hub.Serve(lh)
		return hub
	}
	hub := startHub()

	b1.Link("hub", tr, "hub", backoff.Config{Initial: 20 * time.Millisecond, Max: 160 * time.Millisecond})

	sub, err := Connect(tr, "edge", "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan *message.Envelope, 16)
	tp := topic.MustParse("/durable/topic")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial propagation", func() bool { return hub.HasSubscription(tp.String()) })

	pub, err := Connect(tr, "hub", "publisher")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(message.New(message.TypeData, tp, "publisher", []byte("before"))); err != nil {
		t.Fatal(err)
	}
	recvEnvelope(t, got, "pre-restart delivery")

	// Kill the hub; the persistent link starts re-dialing.
	pub.Close()
	hub.Close()
	time.Sleep(50 * time.Millisecond)

	// Restart at the same address; the link must come back and re-sync
	// the /durable/topic subscription.
	hub2 := startHub()
	defer hub2.Close()
	waitFor(t, "post-restart propagation", func() bool { return hub2.HasSubscription(tp.String()) })

	pub2, err := Connect(tr, "hub", "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	if err := pub2.Publish(message.New(message.TypeData, tp, "publisher", []byte("after"))); err != nil {
		t.Fatal(err)
	}
	e := recvEnvelope(t, got, "post-restart delivery")
	if string(e.Payload) != "after" {
		t.Fatalf("payload %q", e.Payload)
	}
}

// TestPersistentLinkBackoffEstablishesLate starts the redial loop before
// any listener exists at the target address: dial attempts fail and back
// off, and once the peer finally appears the link comes up, syncs
// subscriptions and routes. Link metrics must reflect the struggle
// (more dial attempts than establishments).
func TestPersistentLinkBackoffEstablishesLate(t *testing.T) {
	tr := transport.NewInproc()
	dials0, up0 := mLinkDials.Value(), mLinkUp.Value()

	b1 := New(Config{Name: "edge-late"})
	defer b1.Close()
	l1, err := tr.Listen("edge-late")
	if err != nil {
		t.Fatal(err)
	}
	b1.Serve(l1)

	// No listener at "hub-late" yet: every dial fails.
	b1.Link("hub-late", tr, "hub-late", backoff.Config{
		Initial: 5 * time.Millisecond,
		Max:     20 * time.Millisecond,
		Seed:    3,
	})

	sub, err := Connect(tr, "edge-late", "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan *message.Envelope, 16)
	tp := topic.MustParse("/late/topic")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}

	// Let several failed attempts accumulate before the peer exists.
	waitFor(t, "failed dial attempts", func() bool { return mLinkDials.Value() >= dials0+3 })

	hub := New(Config{Name: "hub-late"})
	defer hub.Close()
	lh, err := tr.Listen("hub-late")
	if err != nil {
		t.Fatal(err)
	}
	hub.Serve(lh)

	waitFor(t, "late link propagation", func() bool { return hub.HasSubscription(tp.String()) })
	if up := mLinkUp.Value() - up0; up < 1 {
		t.Fatalf("broker_link_established_total delta = %d", up)
	}
	if dials := mLinkDials.Value() - dials0; dials < 4 {
		t.Fatalf("broker_link_dial_attempts_total delta = %d, want >= 4", dials)
	}

	pub, err := Connect(tr, "hub-late", "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(message.New(message.TypeData, tp, "publisher", []byte("eventually"))); err != nil {
		t.Fatal(err)
	}
	e := recvEnvelope(t, got, "late-link delivery")
	if string(e.Payload) != "eventually" {
		t.Fatalf("payload %q", e.Payload)
	}
}

// TestPersistentLinkStopsOnClose verifies the redial loop terminates
// when the owning broker closes (no goroutine leak / busy loop).
func TestPersistentLinkStopsOnClose(t *testing.T) {
	tr := transport.NewInproc()
	b := New(Config{Name: "lonely"})
	// No listener at "void": the loop only ever fails to dial.
	b.Link("void", tr, "void", backoff.Config{Initial: 5 * time.Millisecond, Max: 40 * time.Millisecond})
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		b.Close() // must not hang on the redial goroutine
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a persistent link pending")
	}
}
