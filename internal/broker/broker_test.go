package broker

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// newTestBroker starts a broker on an in-proc transport and returns it
// with its address.
func newTestBroker(t *testing.T, tr transport.Transport, cfg Config) (*Broker, string) {
	t.Helper()
	b := New(cfg)
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(l)
	t.Cleanup(b.Close)
	return b, l.Addr()
}

// chain builds n brokers connected in a line b0 - b1 - ... - b(n-1).
func chain(t *testing.T, tr transport.Transport, n int) ([]*Broker, []string) {
	t.Helper()
	brokers := make([]*Broker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		brokers[i], addrs[i] = newTestBroker(t, tr, Config{Name: fmt.Sprintf("b%d", i)})
	}
	for i := 1; i < n; i++ {
		if err := brokers[i].Link(addrs[i-1], tr, addrs[i-1], backoff.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	return brokers, addrs
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// disconnects sums a broker's broker_disconnects_total over every
// eviction reason.
func disconnects(counters map[string]uint64) uint64 {
	var n uint64
	for r := ReasonDoS; r <= ReasonQuarantined; r++ {
		n += counters[obs.WithLabel("broker_disconnects_total", "reason", r.String())]
	}
	return n
}

func recvEnvelope(t *testing.T, ch <-chan *message.Envelope, what string) *message.Envelope {
	t.Helper()
	select {
	case e := <-ch:
		return e
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

func TestSingleBrokerPubSub(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{Name: "b0"})

	sub, err := Connect(tr, addr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Connect(tr, addr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	got := make(chan *message.Envelope, 1)
	tp := topic.MustParse("/news/sports")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	env := message.New(message.TypeData, tp, "publisher", []byte("goal"))
	if err := pub.Publish(env); err != nil {
		t.Fatal(err)
	}
	e := recvEnvelope(t, got, "published envelope")
	if string(e.Payload) != "goal" || e.Source != "publisher" {
		t.Fatalf("got %+v", e)
	}
}

func TestTopicIsolation(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{})
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()

	got := make(chan *message.Envelope, 4)
	if err := sub.Subscribe(topic.MustParse("/a/b"), func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	_ = pub.Publish(message.New(message.TypeData, topic.MustParse("/a/c"), "p", []byte("other")))
	_ = pub.Publish(message.New(message.TypeData, topic.MustParse("/a/b"), "p", []byte("mine")))
	e := recvEnvelope(t, got, "matching envelope")
	if string(e.Payload) != "mine" {
		t.Fatalf("received non-matching envelope %q", e.Payload)
	}
	select {
	case e := <-got:
		t.Fatalf("unexpected extra delivery: %q on %s", e.Payload, e.Topic)
	case <-time.After(50 * time.Millisecond):
	}
}

// rawFrames reads conn's frames onto a channel until it closes. The
// raw peers here are sent a handful of control frames at most, so the
// buffer never fills.
func rawFrames(conn transport.Conn) <-chan []byte {
	ch := make(chan []byte, 16)
	go func() {
		defer close(ch)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			ch <- f
		}
	}()
	return ch
}

// TestRawWildcardSubscribeDenied: "*" is a reserved segment, so a SUB
// frame naming a subtree — the client library can no longer build one —
// is a malformed topic: denied and scored as one violation, whether or
// not it would reach under /Constrained.
func TestRawWildcardSubscribeDenied(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	for i, ts := range []string{"/metrics/*", "/Constrained/*"} {
		before := b.Snapshot().Counters["broker_violations_total"]
		conn := rawSubscriber(t, tr, addr, fmt.Sprintf("snooper-%d", i), ts)
		frames := rawFrames(conn)
		deadline := time.After(5 * time.Second)
		for denied := false; !denied; {
			select {
			case f, ok := <-frames:
				if !ok {
					t.Fatalf("SUB %s: connection closed before a DENY", ts)
				}
				if f[0] != frameControl {
					continue
				}
				c, err := parseControl(f[1:])
				if err != nil {
					t.Fatal(err)
				}
				if c.Kind == ctrlAck {
					t.Fatalf("SUB %s acknowledged", ts)
				}
				denied = c.Kind == ctrlDeny && c.ID == 1
			case <-deadline:
				t.Fatalf("SUB %s: no DENY", ts)
			}
		}
		waitFor(t, "violation scored", func() bool { return b.Snapshot().Counters["broker_violations_total"] == before+1 })
		conn.Close()
	}
}

// TestRawWildcardEnvelopeRejected: an envelope frame whose topic carries
// the reserved "*" segment fails to decode, so it is scored as a bad
// envelope and routed nowhere; the next frame, on an exact topic, is
// delivered.
func TestRawWildcardEnvelopeRejected(t *testing.T) {
	tr := transport.NewInproc()
	var logs syncWriter
	b, addr := newTestBroker(t, tr, Config{Log: obs.NewLogger(&logs, slog.LevelWarn, false)})
	sub, err := Connect(tr, addr, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan *message.Envelope, 4)
	if err := sub.Subscribe(topic.MustParse("/a/b"), func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &control{Kind: ctrlHello, Name: "p"}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		t.Fatal(err)
	}
	good := message.New(message.TypeData, topic.MustParse("/a/b"), "p", []byte("exact")).Marshal()
	wild := message.New(message.TypeData, topic.MustParse("/a/b"), "p", []byte("wild!")).Marshal()
	// Same length, so only the topic's bytes change.
	bad := bytes.Replace(wild, []byte("/a/b"), []byte("/a/*"), 1)
	if bytes.Equal(bad, wild) {
		t.Fatal("topic bytes not found in the encoding")
	}
	for _, f := range [][]byte{bad, good} {
		if err := conn.Send(append([]byte{frameEnvelope}, f...)); err != nil {
			t.Fatal(err)
		}
	}
	// One peer's frames are handled in order, so the bad frame was
	// settled before the good one was delivered.
	if e := recvEnvelope(t, got, "exact-topic delivery"); string(e.Payload) != "exact" {
		t.Fatalf("delivered %q on %s", e.Payload, e.Topic)
	}
	waitFor(t, "publish counted", func() bool { return b.Snapshot().Counters["broker_published_total"] > 0 })
	s := b.Snapshot().Counters
	if s["broker_violations_total"] != 1 || s["broker_published_total"] != 1 {
		t.Fatalf("violations = %d, published = %d; want 1, 1", s["broker_violations_total"], s["broker_published_total"])
	}
	if !strings.Contains(logs.String(), "bad envelope") {
		t.Fatalf("violation not logged as a bad envelope:\n%s", logs.String())
	}
}

func TestConstrainedSubscribeDenied(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{})
	c, _ := Connect(tr, addr, "eve")
	defer c.Close()
	// Subscribe-Only topics of the broker cannot be subscribed by entities.
	err := c.Subscribe(topic.Registration(), func(*message.Envelope) {})
	if !errors.Is(err, ErrSubscribeDenied) {
		t.Fatalf("registration subscribe: err=%v", err)
	}
	// Another entity's session topic cannot be subscribed either.
	tp, _ := topic.BrokerToEntitySession("alice", ident.NewUUID(), ident.NewSessionID())
	if err := c.Subscribe(tp, func(*message.Envelope) {}); !errors.Is(err, ErrSubscribeDenied) {
		t.Fatalf("foreign session subscribe: err=%v", err)
	}
}

func TestConstrainedPublishDropped(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	c, _ := Connect(tr, addr, "mallory")
	defer c.Close()
	// Publish-Only broker topics reject entity publishes (§4.3).
	tp := topic.ChangeNotifications(ident.NewUUID())
	env := message.New(message.TraceFailed, tp, "mallory", []byte("spoof"))
	if err := c.Publish(env); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "violation count", func() bool { return b.Snapshot().Counters["broker_violations_total"] >= 1 })
	if b.Snapshot().Counters["broker_published_total"] != 0 {
		t.Fatal("spoofed trace was routed")
	}
}

func TestSourceSpoofingDropped(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	c, _ := Connect(tr, addr, "honest")
	defer c.Close()
	env := message.New(message.TypeData, topic.MustParse("/x"), "someone-else", nil)
	_ = c.Publish(env)
	waitFor(t, "spoof violation", func() bool { return b.Snapshot().Counters["broker_violations_total"] >= 1 })
}

func TestViolationDisconnect(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{ViolationLimit: 3})
	c, _ := Connect(tr, addr, "mallory")
	defer c.Close()
	tp := topic.ChangeNotifications(ident.NewUUID())
	for i := 0; i < 5; i++ {
		env := message.New(message.TraceFailed, tp, "mallory", nil)
		if err := c.Publish(env); err != nil {
			break // connection already torn down
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, "disconnect", func() bool { return disconnects(b.Snapshot().Counters) >= 1 })
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client not disconnected after repeated violations")
	}
}

func TestGuardInvokedAndPunished(t *testing.T) {
	tr := transport.NewInproc()
	var guarded atomic.Int64
	guard := func(env *message.Envelope, from topic.Principal, _ time.Time, _ bool) error {
		guarded.Add(1)
		if string(env.Payload) == "bad" {
			return errors.New("guard says no")
		}
		return nil
	}
	b, addr := newTestBroker(t, tr, Config{Guard: guard})
	c, _ := Connect(tr, addr, "client")
	defer c.Close()

	got := make(chan *message.Envelope, 2)
	sub, _ := Connect(tr, addr, "sub")
	defer sub.Close()
	tp := topic.MustParse("/guarded")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	_ = c.Publish(message.New(message.TypeData, tp, "client", []byte("bad")))
	_ = c.Publish(message.New(message.TypeData, tp, "client", []byte("good")))
	e := recvEnvelope(t, got, "guarded delivery")
	if string(e.Payload) != "good" {
		t.Fatalf("guard let %q through", e.Payload)
	}
	if guarded.Load() < 2 {
		t.Fatalf("guard invoked %d times", guarded.Load())
	}
	if b.Snapshot().Counters["broker_violations_total"] != 1 {
		t.Fatalf("violations = %d", b.Snapshot().Counters["broker_violations_total"])
	}
}

func TestMultiHopRouting(t *testing.T) {
	tr := transport.NewInproc()
	brokers, addrs := chain(t, tr, 4)

	sub, _ := Connect(tr, addrs[3], "sub")
	defer sub.Close()
	pub, _ := Connect(tr, addrs[0], "pub")
	defer pub.Close()

	got := make(chan *message.Envelope, 1)
	tp := topic.MustParse("/far/away")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	// Wait until the subscription has propagated back to broker 0.
	waitFor(t, "subscription propagation", func() bool { return brokers[0].HasSubscription(tp.String()) })

	_ = pub.Publish(message.New(message.TypeData, tp, "pub", []byte("hello across 4 brokers")))
	e := recvEnvelope(t, got, "multi-hop delivery")
	if string(e.Payload) != "hello across 4 brokers" {
		t.Fatalf("payload %q", e.Payload)
	}
	if e.TTL >= message.DefaultTTL {
		t.Fatalf("TTL not decremented: %d", e.TTL)
	}
}

func TestLateLinkReceivesExistingSubscriptions(t *testing.T) {
	tr := transport.NewInproc()
	b0, addr0 := newTestBroker(t, tr, Config{Name: "b0"})
	_ = b0
	b1, addr1 := newTestBroker(t, tr, Config{Name: "b1"})

	sub, _ := Connect(tr, addr0, "sub")
	defer sub.Close()
	tp := topic.MustParse("/pre/existing")
	got := make(chan *message.Envelope, 1)
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	// Link up after the subscription exists.
	if err := b1.Link(addr0, tr, addr0, backoff.Config{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync to new link", func() bool { return b1.HasSubscription(tp.String()) })

	pub, _ := Connect(tr, addr1, "pub")
	defer pub.Close()
	_ = pub.Publish(message.New(message.TypeData, tp, "pub", []byte("late link")))
	recvEnvelope(t, got, "delivery across late link")
}

func TestSuppressedTopicsStayLocal(t *testing.T) {
	tr := transport.NewInproc()
	brokers, _ := chain(t, tr, 2)

	// A Limited-distribution session topic must not propagate.
	tt, sess := ident.NewUUID(), ident.NewSessionID()
	local := topic.EntityToBrokerSession(tt, sess) // .../Limited/...

	done := brokers[1].SubscribeLocal(local, func(*message.Envelope) {})
	defer done()
	time.Sleep(50 * time.Millisecond)
	if brokers[0].HasSubscription(local.String()) {
		t.Fatal("Limited topic subscription propagated to neighbour broker")
	}
	// A disseminated topic does propagate.
	dis := topic.ChangeNotifications(tt)
	done2 := brokers[1].SubscribeLocal(dis, func(*message.Envelope) {})
	defer done2()
	waitFor(t, "disseminated propagation", func() bool { return brokers[0].HasSubscription(dis.String()) })
}

func TestDuplicateSuppression(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()

	got := make(chan *message.Envelope, 4)
	tp := topic.MustParse("/dup")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	env := message.New(message.TypeData, tp, "p", []byte("once"))
	_ = pub.Publish(env)
	_ = pub.Publish(env) // same ID
	recvEnvelope(t, got, "first delivery")
	select {
	case <-got:
		t.Fatal("duplicate envelope delivered")
	case <-time.After(100 * time.Millisecond):
	}
	waitFor(t, "duplicate counter", func() bool { return b.Snapshot().Counters["broker_duplicates_total"] >= 1 })
}

// forgeFirst has mallory publish, at malloryAddr, a copy of the
// envelope honest is about to publish — same ID, Source "honest" — and
// waits for victim to drop it as spoofed. It returns the genuine
// envelope.
func forgeFirst(t *testing.T, tr transport.Transport, malloryAddr string, victim *Broker, tp topic.Topic) *message.Envelope {
	t.Helper()
	mallory, err := Connect(tr, malloryAddr, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	genuine := message.New(message.TypeData, tp, "honest", []byte("genuine"))
	forged := *genuine
	forged.Payload = []byte("forged")
	if err := mallory.Publish(&forged); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "spoof violation", func() bool { return victim.Snapshot().Counters["broker_violations_total"] >= 1 })
	return genuine
}

// expectGenuine checks that the subscriber receives the genuine envelope
// and that no broker counted it as a duplicate.
func expectGenuine(t *testing.T, got <-chan *message.Envelope, brokers ...*Broker) {
	t.Helper()
	if e := recvEnvelope(t, got, "genuine envelope after a forged copy"); string(e.Payload) != "genuine" {
		t.Fatalf("delivered payload %q", e.Payload)
	}
	for _, b := range brokers {
		if n := b.Snapshot().Counters["broker_duplicates_total"]; n != 0 {
			t.Fatalf("%s: broker_duplicates_total = %d, want 0", b.Name(), n)
		}
	}
}

// TestRejectedCopyDoesNotSuppressGenuine: a forged copy a broker drops
// as spoofed_source must not occupy the dedupe window, or it would
// suppress the genuine envelope with the same ID behind it.
func TestRejectedCopyDoesNotSuppressGenuine(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{Name: "b0"})
	sub, _ := Connect(tr, addr, "sub")
	defer sub.Close()
	got := make(chan *message.Envelope, 4)
	tp := topic.MustParse("/honest/news")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	genuine := forgeFirst(t, tr, addr, b, tp)
	honest, _ := Connect(tr, addr, "honest")
	defer honest.Close()
	if err := honest.Publish(genuine); err != nil {
		t.Fatal(err)
	}
	expectGenuine(t, got, b)
}

// TestRejectedCopyDownstreamDoesNotSuppressGenuine: the forged copy
// reaches the downstream broker of a chain before the genuine envelope,
// which arrives over the link.
func TestRejectedCopyDownstreamDoesNotSuppressGenuine(t *testing.T) {
	tr := transport.NewInproc()
	brokers, addrs := chain(t, tr, 2)
	sub, _ := Connect(tr, addrs[1], "sub")
	defer sub.Close()
	got := make(chan *message.Envelope, 4)
	tp := topic.MustParse("/honest/news")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription propagation", func() bool { return brokers[0].HasSubscription(tp.String()) })
	genuine := forgeFirst(t, tr, addrs[1], brokers[1], tp)
	honest, _ := Connect(tr, addrs[0], "honest")
	defer honest.Close()
	if err := honest.Publish(genuine); err != nil {
		t.Fatal(err)
	}
	expectGenuine(t, got, brokers...)
}

// TestOnSubscribeCallback: the subscription hook fires once per new
// (peer, topic) — for client SUBs and for the SUBs links carry — and not
// for a repeated SUB or for the broker's own local subscriptions.
func TestOnSubscribeCallback(t *testing.T) {
	tr := transport.NewInproc()
	brokers, addrs := chain(t, tr, 2)
	var mu sync.Mutex
	seen := map[string]map[string]int{"b0": {}, "b1": {}}
	for _, b := range brokers {
		b := b
		b.OnSubscribe(func(tp topic.Topic) {
			mu.Lock()
			seen[b.Name()][tp.String()]++
			mu.Unlock()
		})
	}
	hooked, local := topic.MustParse("/hooked"), topic.MustParse("/local-only")
	cancel := brokers[0].SubscribeLocal(local, func(*message.Envelope) {})
	defer cancel()
	sub, _ := Connect(tr, addrs[1], "sub")
	defer sub.Close()
	// Subscribe returns on the broker's ack, which follows the hook, so
	// b1's counts are final once both calls return.
	for i := 0; i < 2; i++ {
		if err := sub.Subscribe(hooked, func(*message.Envelope) {}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]map[string]int{
		"b0": {hooked.String(): 1},                    // the link's SUB; its own local one is not hooked
		"b1": {hooked.String(): 1, local.String(): 1}, // the client's SUB once; the link's SUB
	}
	waitFor(t, "subscription hooks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen["b0"]) == 1 && len(seen["b1"]) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	for name, w := range want {
		if !maps.Equal(seen[name], w) {
			t.Fatalf("%s subscription hook saw %v, want %v", name, seen[name], w)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()
	env := message.New(message.TypeData, topic.MustParse("/x"), "p", nil)
	env.TTL = 0
	_ = pub.Publish(env)
	waitFor(t, "TTL drop", func() bool { return b.Snapshot().Counters["broker_expired_total"] >= 1 })
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{})
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()

	got := make(chan *message.Envelope, 4)
	tp := topic.MustParse("/onoff")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	_ = pub.Publish(message.New(message.TypeData, tp, "p", []byte("1")))
	recvEnvelope(t, got, "pre-unsubscribe delivery")
	if err := sub.Unsubscribe(tp); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	_ = pub.Publish(message.New(message.TypeData, tp, "p", []byte("2")))
	select {
	case e := <-got:
		t.Fatalf("delivery after unsubscribe: %q", e.Payload)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestSubscribeLocalAndCancel(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()

	got := make(chan *message.Envelope, 4)
	// Local subscribers have broker privileges: they may watch
	// Subscribe-Only topics like the registration topic.
	cancel := b.SubscribeLocal(topic.Registration(), func(e *message.Envelope) { got <- e })
	env := message.New(message.TypeRegistration, topic.Registration(), "p", []byte("reg"))
	_ = pub.Publish(env)
	recvEnvelope(t, got, "local delivery")
	cancel()
	time.Sleep(20 * time.Millisecond)
	env2 := message.New(message.TypeRegistration, topic.Registration(), "p", []byte("reg2"))
	_ = pub.Publish(env2)
	select {
	case <-got:
		t.Fatal("delivery after local cancel")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestBrokerPublishLocalOrigin(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	got := make(chan *message.Envelope, 1)
	// Entities may subscribe to broker Publish-Only topics.
	tp := topic.AllUpdates(ident.NewUUID())
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	env := message.New(message.TraceAllsWell, tp, "", []byte("alive"))
	if err := b.Publish(env); err != nil {
		t.Fatal(err)
	}
	recvEnvelope(t, got, "broker-originated trace")
}

func TestStatsSnapshot(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()
	tp := topic.MustParse("/counted")
	got := make(chan *message.Envelope, 1)
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	_ = pub.Publish(message.New(message.TypeData, tp, "p", nil))
	recvEnvelope(t, got, "counted delivery")
	s := b.Snapshot().Counters
	if s["broker_published_total"] != 1 || s["broker_delivered_local_total"] != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if b.PeerCount() != 2 {
		t.Fatalf("PeerCount = %d", b.PeerCount())
	}
	if b.SubscriptionCount() != 1 {
		t.Fatalf("SubscriptionCount = %d", b.SubscriptionCount())
	}
}

func TestClientCloseIsClean(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	c, _ := Connect(tr, addr, "fleeting")
	if err := c.Subscribe(topic.MustParse("/t"), func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer removal", func() bool { return b.PeerCount() == 0 })
	if b.SubscriptionCount() != 0 {
		t.Fatal("subscriptions survived peer removal")
	}
	if err := c.Publish(message.New(message.TypeData, topic.MustParse("/t"), "fleeting", nil)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("publish after close: %v", err)
	}
	if err := c.Subscribe(topic.MustParse("/t2"), func(*message.Envelope) {}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("subscribe after close: %v", err)
	}
}

func TestBrokerCloseUnblocksClients(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	c, _ := Connect(tr, addr, "c")
	b.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client not notified of broker shutdown")
	}
}

func TestRoutingOverTCPAndUDP(t *testing.T) {
	for _, trName := range []string{"tcp", "udp"} {
		t.Run(trName, func(t *testing.T) {
			tr, err := transport.New(trName)
			if err != nil {
				t.Fatal(err)
			}
			b := New(Config{Name: "b-" + trName})
			l, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			b.Serve(l)
			defer b.Close()

			sub, err := Connect(tr, l.Addr(), "s")
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			pub, err := Connect(tr, l.Addr(), "p")
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			got := make(chan *message.Envelope, 1)
			tp := topic.MustParse("/socket/test")
			if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
				t.Fatal(err)
			}
			_ = pub.Publish(message.New(message.TypeData, tp, "p", []byte(trName)))
			e := recvEnvelope(t, got, trName+" delivery")
			if string(e.Payload) != trName {
				t.Fatalf("payload %q", e.Payload)
			}
		})
	}
}

// TestDedupeWindowEviction verifies that the duplicate-suppression
// window is bounded: after the window rolls over, an old ID is treated
// as new again (acceptable: TTL and topology bound actual loops).
func TestDedupeWindowEviction(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	pub, _ := Connect(tr, addr, "p")
	defer pub.Close()
	sub, _ := Connect(tr, addr, "s")
	defer sub.Close()
	got := make(chan *message.Envelope, 32)
	tp := topic.MustParse("/evict")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	first := message.New(message.TypeData, tp, "p", []byte("first"))
	_ = pub.Publish(first)
	recvEnvelope(t, got, "first delivery")
	// Push a window's worth of unique IDs through to evict the first.
	for i := 0; i < DefaultDedupeWindow; i++ {
		_ = pub.Publish(message.New(message.TypeData, tp, "p", []byte("filler")))
		recvEnvelope(t, got, "filler delivery")
	}
	// The original ID is forgotten: a replay is delivered again.
	_ = pub.Publish(first)
	e := recvEnvelope(t, got, "replay after eviction")
	if string(e.Payload) != "first" {
		t.Fatalf("unexpected payload %q", e.Payload)
	}
	if b.Snapshot().Counters["broker_duplicates_total"] != 0 {
		t.Fatalf("evicted ID counted as duplicate")
	}
}

// TestOnClientDisconnectCallback verifies the disconnect notification
// carries the entity identifier and fires once per client drop.
func TestOnClientDisconnectCallback(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	dropped := make(chan ident.EntityID, 4)
	b.OnClientDisconnect(func(e ident.EntityID) { dropped <- e })
	c, _ := Connect(tr, addr, "short-lived")
	waitFor(t, "peer registration", func() bool { return b.PeerCount() == 1 })
	c.Close()
	select {
	case e := <-dropped:
		if e != "short-lived" {
			t.Fatalf("disconnect for %q", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect callback never fired")
	}
}

// TestDiamondTopologyNoStorm wires four brokers in a cycle
// (a-b, a-c, b-d, c-d) and verifies messages are delivered exactly once
// with duplicate suppression absorbing the redundant path.
func TestDiamondTopologyNoStorm(t *testing.T) {
	tr := transport.NewInproc()
	names := []string{"a", "b", "c", "d"}
	brokers := map[string]*Broker{}
	addrs := map[string]string{}
	for _, n := range names {
		b, addr := newTestBroker(t, tr, Config{Name: n})
		brokers[n] = b
		addrs[n] = addr
	}
	links := [][2]string{{"b", "a"}, {"c", "a"}, {"d", "b"}, {"d", "c"}}
	for _, l := range links {
		if err := brokers[l[0]].Link(addrs[l[1]], tr, addrs[l[1]], backoff.Config{}); err != nil {
			t.Fatal(err)
		}
	}

	sub, _ := Connect(tr, addrs["d"], "sub")
	defer sub.Close()
	got := make(chan *message.Envelope, 16)
	tp := topic.MustParse("/diamond")
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	// Both diamond branches must carry interest before publishing:
	// broker a needs the subscription registered by b AND c, or the
	// message takes a single path and no duplicate ever reaches d.
	waitFor(t, "propagation to a via both branches", func() bool {
		a := brokers["a"]
		a.mu.RLock()
		defer a.mu.RUnlock()
		return len(a.subs[tp.String()]) >= 2
	})

	pub, _ := Connect(tr, addrs["a"], "pub")
	defer pub.Close()
	if err := pub.Publish(message.New(message.TypeData, tp, "pub", []byte("once"))); err != nil {
		t.Fatal(err)
	}
	recvEnvelope(t, got, "diamond delivery")
	// The second copy arriving via the other path must be suppressed.
	select {
	case e := <-got:
		t.Fatalf("duplicate delivery through diamond: %q", e.Payload)
	case <-time.After(200 * time.Millisecond):
	}
	waitFor(t, "duplicate suppressed somewhere", func() bool {
		return brokers["d"].Snapshot().Counters["broker_duplicates_total"] >= 1 ||
			brokers["b"].Snapshot().Counters["broker_duplicates_total"] >= 1 ||
			brokers["c"].Snapshot().Counters["broker_duplicates_total"] >= 1
	})
}

func TestBrokerNameAndClientAccessors(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{Name: "named-broker"})
	if b.Name() != "named-broker" {
		t.Fatalf("Name = %q", b.Name())
	}
	c, err := Connect(tr, addr, "acc-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Entity() != "acc-client" {
		t.Fatalf("Entity = %q", c.Entity())
	}
	if _, err := Connect(tr, addr, "*"); err == nil {
		t.Fatal("Connect accepted the reserved entity ID \"*\"")
	}
}

// TestRetiredHealthSnapshotRoutesByTopic: a not-yet-upgraded neighbour
// still publishes the retired broker self-monitoring snapshot (wire
// value 26) and availability digest (27). Both values stay reserved, so
// the envelopes parse and are routed by topic like any other; they must
// never score as malformed envelopes against the link that carried them.
func TestRetiredHealthSnapshotRoutesByTopic(t *testing.T) {
	const limit = 3
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{ViolationLimit: limit})
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &control{Kind: ctrlHello, IsBroker: true, Name: "old-neighbour"}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link registration", func() bool { return b.LinkUp("old-neighbour") })
	var delivered atomic.Int32
	for ty, name := range map[message.Type]string{26: "Health", 27: "Availability"} {
		tp := topic.MustParse("/Constrained/Traces/Broker/Publish-Only/System/" + name)
		defer b.SubscribeLocal(tp, func(*message.Envelope) { delivered.Add(1) })()
		for i := 0; i < limit+1; i++ {
			env := message.New(ty, tp, "", []byte("snapshot"))
			if err := conn.Send(append([]byte{frameEnvelope}, env.Marshal()...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "routing", func() bool { return delivered.Load() == 2*(limit+1) })
	if s := b.Snapshot().Counters; s["broker_violations_total"] != 0 || disconnects(s) != 0 || !b.LinkUp("old-neighbour") {
		t.Fatalf("violations = %d, disconnects = %d, link up = %v; want 0, 0, true",
			s["broker_violations_total"], disconnects(s), b.LinkUp("old-neighbour"))
	}
}
