package broker

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/clock"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// gateConn is a transport.Conn whose Send completes only when the test
// feeds a token through gate, letting tests hold an egress writer
// mid-flight deterministically.
type gateConn struct {
	mu     sync.Mutex
	sent   [][]byte
	gate   chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newGateConn() *gateConn {
	return &gateConn{gate: make(chan struct{}, 64), closed: make(chan struct{})}
}

func (c *gateConn) Send(f []byte) error {
	select {
	case <-c.gate:
	case <-c.closed:
		return transport.ErrClosed
	}
	c.mu.Lock()
	c.sent = append(c.sent, append([]byte(nil), f...))
	c.mu.Unlock()
	return nil
}

func (c *gateConn) Recv() ([]byte, error) { <-c.closed; return nil, transport.ErrClosed }
func (c *gateConn) Close() error          { c.once.Do(func() { close(c.closed) }); return nil }
func (c *gateConn) LocalAddr() string     { return "gate-local" }
func (c *gateConn) RemoteAddr() string    { return "gate-remote" }

func (c *gateConn) sentFrames() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.sent...)
}

// TestEgressShedOldestAndControlPriority drives the egress queue
// directly: data beyond the bound sheds oldest-first, the stall clock
// accumulates while saturated, and a control frame enqueued last still
// transmits before all queued data.
func TestEgressShedOldestAndControlPriority(t *testing.T) {
	conn := newGateConn()
	e := newEgress(conn, 4, 0, 0)
	base := time.Unix(1000, 0)
	frames := [][]byte{
		[]byte("d0"), []byte("d1"), []byte("d2"),
		[]byte("d3"), []byte("d4"), []byte("d5"),
	}
	for i, f := range frames[:5] {
		shed, stalled := e.enqueueData(f, base)
		wantShed := 0
		if i == 4 { // 5th frame overflows the bound of 4
			wantShed = 1
		}
		if shed != wantShed || stalled != 0 {
			t.Fatalf("frame %d: shed=%d stalled=%v", i, shed, stalled)
		}
	}
	// A later overflow reports how long the queue has been continuously
	// saturated.
	shed, stalled := e.enqueueData(frames[5], base.Add(time.Second))
	if shed != 1 || stalled != time.Second {
		t.Fatalf("6th frame: shed=%d stalled=%v", shed, stalled)
	}
	if !e.enqueueCtrl([]byte("c0")) {
		t.Fatal("control enqueue refused")
	}

	go e.run()
	for i := 0; i < 5; i++ { // 1 control + 4 surviving data frames
		conn.gate <- struct{}{}
	}
	waitFor(t, "egress drain", func() bool { return len(conn.sentFrames()) == 5 })
	sent := conn.sentFrames()
	want := []string{"c0", "d2", "d3", "d4", "d5"} // d0/d1 shed, control first
	for i, w := range want {
		if string(sent[i]) != w {
			t.Fatalf("send order %d = %q, want %q (all: %q)", i, sent[i], w, sent)
		}
	}
	e.beginClose()
	select {
	case <-conn.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not close conn after beginClose")
	}
}

// TestEgressShedAll verifies eviction drops every queued data frame in
// one step.
func TestEgressShedAll(t *testing.T) {
	e := newEgress(newGateConn(), 8, 0, 0)
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		e.enqueueData([]byte{byte(i)}, now)
	}
	if n := e.shedAll(); n != 5 {
		t.Fatalf("shedAll = %d, want 5", n)
	}
	if n := e.shedAll(); n != 0 {
		t.Fatalf("second shedAll = %d, want 0", n)
	}
}

// rawSubscriber dials the broker directly and subscribes without ever
// reading: the broker-side pipe fills and its egress queue saturates —
// the canonical slow consumer.
func rawSubscriber(t *testing.T, tr transport.Transport, addr, name, ts string) transport.Conn {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := &control{Kind: ctrlHello, Name: name}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		t.Fatal(err)
	}
	sub := &control{Kind: ctrlSub, ID: 1, Topic: ts}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(sub)...)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestSlowConsumerEvictedAndHealthyIsolated floods a topic with one
// subscriber that never reads and one that does: the stalled peer is
// shed then evicted with a typed reason, its principal is quarantined,
// and the healthy subscriber keeps receiving throughout (no head-of-line
// blocking through the fan-out path).
func TestSlowConsumerEvictedAndHealthyIsolated(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{
		Name:                 "b0",
		EgressQueue:          16,
		SlowConsumerDeadline: 50 * time.Millisecond,
	})
	tp := topic.MustParse("/hol")

	stalled := rawSubscriber(t, tr, addr, "staller", tp.String())
	defer stalled.Close()

	healthy, err := Connect(tr, addr, "healthy")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	got := make(chan *message.Envelope, 8192)
	if err := healthy.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}

	pub, err := Connect(tr, addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && b.Snapshot().SlowConsumerEvictions == 0 {
		for i := 0; i < 100; i++ {
			if err := pub.Publish(message.New(message.TypeData, tp, "pub", []byte("flood"))); err != nil {
				t.Fatalf("publisher hit error while a sibling stalled: %v", err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := b.Snapshot()
	if s.SlowConsumerEvictions == 0 {
		t.Fatal("stalled peer never evicted")
	}
	if s.EgressSheds == 0 {
		t.Fatal("no frames shed before eviction")
	}
	// The healthy subscriber was never blocked behind the stalled one.
	waitFor(t, "healthy deliveries", func() bool { return len(got) > 0 })

	// The stalled peer is eventually removed entirely (force-close after
	// the eviction grace) and a fresh delivery still works.
	waitFor(t, "stalled peer removal", func() bool { return b.PeerCount() == 2 })
	drainEnvelopes(got)
	_ = pub.Publish(message.New(message.TypeData, tp, "pub", []byte("after")))
	recvEnvelope(t, got, "post-eviction delivery")

	// The evicted principal is quarantined: a reconnect is refused with a
	// typed DISCONNECT as the first and only frame.
	recl, err := Connect(tr, addr, "staller")
	if err != nil {
		t.Fatal(err)
	}
	defer recl.Close()
	select {
	case <-recl.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("quarantined reconnect not dropped")
	}
	if r := recl.DisconnectReason(); r != ReasonQuarantined {
		t.Fatalf("DisconnectReason = %v, want quarantined", r)
	}
	if b.Snapshot().QuarantineRejects == 0 {
		t.Fatal("quarantine reject not counted")
	}
}

func drainEnvelopes(ch chan *message.Envelope) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// TestPublishRateThrottled verifies ingress admission control: a burst
// beyond the token bucket is rejected before routing, counted, and does
// not by itself evict the client. The bucket is per publisher: a quiet
// publisher on the same broker, publishing within its own burst while
// the bursty one is being throttled, gets every envelope through.
func TestPublishRateThrottled(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{
		PublishRate:  5,
		PublishBurst: 2,
	})
	pub, err := Connect(tr, addr, "bursty")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	quiet, err := Connect(tr, addr, "quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	sub, err := Connect(tr, addr, "quiet-sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	quietTp := topic.MustParse("/quiet")
	got := make(chan *message.Envelope, 2)
	if err := sub.Subscribe(quietTp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	tp := topic.MustParse("/burst")
	for i := 0; i < 30; i++ {
		_ = pub.Publish(message.New(message.TypeData, tp, "bursty", nil))
		if i == 10 || i == 20 {
			if err := quiet.Publish(message.New(message.TypeData, quietTp, "quiet", nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "throttles", func() bool { return b.Snapshot().Throttled >= 20 })
	recvEnvelope(t, got, "first quiet publish")
	recvEnvelope(t, got, "second quiet publish")
	s := b.Snapshot()
	if s.Published > 12 { // the quiet publisher's two plus what the bursty bucket refilled
		t.Fatalf("flood was routed: Published = %d", s.Published)
	}
	if s.Disconnects != 0 {
		t.Fatalf("burst alone evicted the client: %+v", s)
	}
	select {
	case <-pub.Done():
		t.Fatal("client dropped for a mere burst")
	default:
	}
}

// TestBrokerLinksExemptFromPublishRate verifies that PublishRate
// throttles clients only: a broker link aggregates many publishers, so
// envelopes it forwards arrive far faster than one client's rate, and
// every one of them must be routed.
func TestBrokerLinksExemptFromPublishRate(t *testing.T) {
	tr := transport.NewInproc()
	ingress, ingressAddr := newTestBroker(t, tr, Config{Name: "ingress"})
	limited, _ := newTestBroker(t, tr, Config{Name: "limited", PublishRate: 1, PublishBurst: 1})
	if err := limited.Link("ingress", tr, ingressAddr, backoff.Config{}); err != nil {
		t.Fatal(err)
	}
	tp := topic.MustParse("/linked/burst")
	var got atomic.Int64
	defer limited.SubscribeLocal(tp, func(*message.Envelope) { got.Add(1) })()
	waitFor(t, "subscription at ingress", func() bool { return ingress.HasSubscription(tp.String()) })

	pub, err := Connect(tr, ingressAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.Publish(message.New(message.TypeData, tp, "publisher", nil)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every envelope across the link", func() bool { return got.Load() == n })
	if s := limited.Snapshot(); s.Throttled != 0 || s.Violations != 0 {
		t.Fatalf("link traffic throttled: %+v", s)
	}
}

// TestSustainedFloodEscalatesToDoSEviction verifies throttle violations
// accumulate (at their reduced weight) into a DoS eviction with the
// typed reason delivered to the client.
func TestSustainedFloodEscalatesToDoSEviction(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{
		PublishRate:    1,
		PublishBurst:   1,
		ViolationLimit: 2, // 16 throttles at weight 0.125
	})
	pub, err := Connect(tr, addr, "flooder")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	tp := topic.MustParse("/flood")
	for i := 0; i < 200; i++ {
		if err := pub.Publish(message.New(message.TypeData, tp, "flooder", nil)); err != nil {
			break // already torn down
		}
	}
	select {
	case <-pub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("sustained flooder never evicted")
	}
	waitFor(t, "dos disconnect", func() bool { return b.Snapshot().Disconnects >= 1 })
	if r := pub.DisconnectReason(); r != ReasonDoS {
		t.Fatalf("DisconnectReason = %v, want dos", r)
	}
}

// TestViolationScoreDecay is the regression for the seed's monotonic
// violation counter: a sub-threshold trickle of violations spread over
// fake-clock hours decays away instead of accumulating into an unjust
// disconnect.
func TestViolationScoreDecay(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{
		ViolationLimit: 3,
		Clock:          fake,
	})
	c, err := Connect(tr, addr, "sporadic")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 20 violations — far past the limit of 3 if they accumulated — one
	// per fake-clock hour.
	for i := 0; i < 20; i++ {
		env := message.New(message.TypeData, topic.MustParse("/x"), "someone-else", nil)
		if err := c.Publish(env); err != nil {
			t.Fatalf("violation %d: connection already dead: %v", i, err)
		}
		waitFor(t, "violation recorded", func() bool { return b.Snapshot().Violations >= uint64(i+1) })
		fake.Advance(time.Hour)
	}
	if d := b.Snapshot().Disconnects; d != 0 {
		t.Fatalf("trickle of sporadic violations caused %d disconnects", d)
	}
	select {
	case <-c.Done():
		t.Fatal("long-lived peer with sporadic violations was dropped")
	default:
	}
}

// TestQuarantineExpires verifies a banned principal is admitted again
// once the quarantine window lapses on the (fake) clock.
func TestQuarantineExpires(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{Clock: fake})
	b.Banish("offender", time.Minute)

	refused, err := Connect(tr, addr, "offender")
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	select {
	case <-refused.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("quarantined connect not refused")
	}
	if r := refused.DisconnectReason(); r != ReasonQuarantined {
		t.Fatalf("DisconnectReason = %v, want quarantined", r)
	}

	fake.Advance(2 * time.Minute)
	again, err := Connect(tr, addr, "offender")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := again.Subscribe(topic.MustParse("/back"), func(*message.Envelope) {}); err != nil {
		t.Fatalf("post-quarantine subscribe: %v", err)
	}
}

// TestBanishEvictsConnectedPeer verifies the administrative ban evicts a
// live connection with the typed reason.
func TestBanishEvictsConnectedPeer(t *testing.T) {
	tr := transport.NewInproc()
	b, addr := newTestBroker(t, tr, Config{})
	c, err := Connect(tr, addr, "persona-non-grata")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "peer registration", func() bool { return b.PeerCount() == 1 })
	b.Banish("persona-non-grata", time.Minute)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("banished peer not dropped")
	}
	if r := c.DisconnectReason(); r != ReasonQuarantined {
		t.Fatalf("DisconnectReason = %v, want quarantined", r)
	}
}

// stallTransport wraps a transport so that dialed connections pass their
// first sends (the handshake) through and then block forever — a dead
// TCP peer from the writer's perspective.
type stallTransport struct {
	transport.Transport
	passSends int
}

func (s *stallTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := s.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: conn, pass: s.passSends, stalled: make(chan struct{})}, nil
}

type stallConn struct {
	transport.Conn
	mu      sync.Mutex
	pass    int
	stalled chan struct{}
	once    sync.Once
}

func (c *stallConn) Send(f []byte) error {
	c.mu.Lock()
	ok := c.pass > 0
	if ok {
		c.pass--
	}
	c.mu.Unlock()
	if ok {
		return c.Conn.Send(f)
	}
	<-c.stalled
	return transport.ErrClosed
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.stalled) })
	return c.Conn.Close()
}

// TestClientWriteDeadline verifies Publish against a stalled connection
// returns ErrWriteTimeout within the configured deadline and tears the
// client down so reconnect logic can take over, instead of blocking
// forever.
func TestClientWriteDeadline(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{})
	stall := &stallTransport{Transport: tr, passSends: 1} // hello passes
	c, err := ConnectWith(stall, addr, "writer", ConnectOpts{WriteTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Publish(message.New(message.TypeData, topic.MustParse("/w"), "writer", []byte("x")))
	if !errors.Is(err, ErrWriteTimeout) {
		t.Fatalf("Publish on stalled conn: err=%v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("write deadline took %v", el)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client not torn down after write timeout")
	}
	if err := c.Publish(message.New(message.TypeData, topic.MustParse("/w"), "writer", nil)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("publish after timeout teardown: %v", err)
	}
}

// TestOverloadMetricsExposed asserts the overload counters and gauge are
// visible through the prometheus-style exposition (the same rendering
// /metrics serves) as soon as a broker exists, before any event.
func TestOverloadMetricsExposed(t *testing.T) {
	New(Config{}).Close()
	var buf bytes.Buffer
	obs.Default.WriteText(&buf)
	out := buf.String()
	for _, name := range []string{
		"broker_egress_queue_depth",
		"broker_egress_sheds_total",
		`broker_disconnects_total{reason="slow-consumer"}`,
		"broker_publish_throttled_total",
		"broker_quarantine_rejects_total",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("metric %s missing from exposition:\n%s", name, out)
		}
	}
}

// TestEvictionsCountedByReason: every eviction, whatever its reason, is
// one broker_disconnects_total{reason} increment — in the broker's own
// registry and in the process-wide one — and Stats.Disconnects is their
// sum.
func TestEvictionsCountedByReason(t *testing.T) {
	b := New(Config{})
	defer b.Close()
	reasons := []DisconnectReason{ReasonDoS, ReasonSlowConsumer, ReasonQuarantined}
	before := obs.Default.Snapshot().Counters
	for _, r := range reasons {
		b.evictPeer(b.newPeer(newGateConn(), false, "victim-"+r.String()), r, "test")
	}
	own, after := b.Health().Metrics.Counters, obs.Default.Snapshot().Counters
	for _, r := range reasons {
		name := obs.WithLabel("broker_disconnects_total", "reason", r.String())
		if own[name] != 1 || after[name]-before[name] != 1 {
			t.Errorf("%s: broker %d, process +%d, want 1 and +1", name, own[name], after[name]-before[name])
		}
	}
	if s := b.Snapshot(); s.Disconnects != 3 || s.SlowConsumerEvictions != 1 {
		t.Fatalf("Disconnects = %d, SlowConsumerEvictions = %d, want 3 and 1", s.Disconnects, s.SlowConsumerEvictions)
	}
}
