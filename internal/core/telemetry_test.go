package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// The rows a broker publishes that its registry does not hold: the
// point-in-time gauges and the guard cache's two counters, plus one
// labelled pair per link (PROTOCOL.md §3.10's table).
var telemetryPointRows = []string{
	"broker_peers", "broker_subscriptions", "broker_sessions", "broker_flight_head",
	"fabric_epoch", "fabric_members", "fabric_owned_per_mille",
	"guard_cache_hits_total", "guard_cache_misses_total",
}

const telemetryTestInterval = time.Second

// telemetryNode is one broker with a trace manager whose telemetry plane
// runs on a fake clock; snaps receives every snapshot the broker itself
// publishes.
type telemetryNode struct {
	b     *broker.Broker
	mgr   *TraceBroker
	addr  string
	snaps chan *message.TelemetrySnapshot
}

func newTelemetryNode(t *testing.T, tr transport.Transport, name string, clk clock.Clock) *telemetryNode {
	t.Helper()
	fixture(t)
	resolver := NewCachingResolver(ResolverFunc(func(ident.UUID) (*tdn.Advertisement, error) {
		return nil, ErrUnknownTopic
	}))
	guard := NewGuard(GuardConfig{Resolver: resolver, Verifier: fxVerifier, Clock: clk, Cache: NewTokenCache(0)})
	n := &telemetryNode{
		b:     broker.New(broker.Config{Name: name, Guard: guard.Admit, Clock: clk}),
		snaps: make(chan *message.TelemetrySnapshot, 64),
	}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = l.Addr()
	n.b.Serve(l)
	n.mgr, err = NewTraceBroker(BrokerConfig{
		Broker:            n.b,
		Identity:          issue(t, ident.EntityID("id-"+name)),
		Guard:             guard,
		TelemetryInterval: telemetryTestInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.b.SubscribeLocal(topic.SystemTelemetry(), func(env *message.Envelope) {
		if ts, err := message.UnmarshalTelemetrySnapshot(env.Payload); err == nil && ts.Broker == name {
			n.snaps <- ts
		}
	})
	t.Cleanup(func() {
		n.mgr.Close()
		n.b.Close()
	})
	return n
}

// tick publishes one snapshot and returns its rows by name. Local
// delivery is synchronous, so the snapshot is waiting when Publish returns.
func (n *telemetryNode) tick(t *testing.T) map[string]message.TelemetryRow {
	t.Helper()
	n.mgr.PublishTelemetry()
	select {
	case ts := <-n.snaps:
		rows := make(map[string]message.TelemetryRow, len(ts.Rows))
		for _, r := range ts.Rows {
			if _, dup := rows[r.Name]; dup {
				t.Fatalf("%s: row %q published twice", ts.Broker, r.Name)
			}
			rows[r.Name] = r
		}
		if !slices.IsSortedFunc(ts.Rows, func(a, b message.TelemetryRow) int { return strings.Compare(a.Name, b.Name) }) {
			t.Fatalf("%s: rows not sorted by name", ts.Broker)
		}
		return rows
	default:
		t.Fatalf("%s published no snapshot", n.b.Name())
		return nil
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stallTransport dials connections whose Sends block, once stalled is
// set, until the connection closes — a neighbour that stopped reading.
type stallTransport struct {
	transport.Transport
	stalled atomic.Bool
}

func (s *stallTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := s.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: conn, tr: s, closed: make(chan struct{})}, nil
}

type stallConn struct {
	transport.Conn
	tr     *stallTransport
	closed chan struct{}
	once   sync.Once
}

func (c *stallConn) Send(f []byte) error {
	if c.tr.stalled.Load() {
		<-c.closed
		return transport.ErrClosed
	}
	return c.Conn.Send(f)
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// linkQueued is the egress depth of n's link to peer, as Health sees it.
func (n *telemetryNode) linkQueued(peer string) int {
	for _, p := range n.b.Health().Peers {
		if p.IsBroker && p.Name == peer {
			return p.Queued
		}
	}
	return -1
}

// TestTelemetryTickRows pins what one telemetry tick publishes, on two
// brokers linked to each other in one process.
func TestTelemetryTickRows(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	inproc := transport.NewInproc()
	a := newTelemetryNode(t, inproc, "tel-a", clk)
	b := newTelemetryNode(t, inproc, "tel-b", clk)
	stall := &stallTransport{Transport: inproc}
	if err := a.b.Link("tel-b", stall, b.addr, backoff.Config{}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "link up at both ends", func() bool { return a.b.LinkUp("tel-b") && b.b.LinkUp("tel-a") })

	anchorA, anchorB := a.tick(t), b.tick(t)

	t.Run("a row's name is its registry name", func(t *testing.T) {
		for _, tc := range []struct {
			node *telemetryNode
			rows map[string]message.TelemetryRow
			peer string
		}{{a, anchorA, "tel-b"}, {b, anchorB, "tel-a"}} {
			own := tc.node.b.Health().Metrics
			links := 0
			for name, r := range tc.rows {
				_, isCounter := own.Counters[name]
				_, isGauge := own.Gauges[name]
				switch {
				case isCounter || isGauge:
					if r.Counter != isCounter {
						t.Errorf("%s: row %q counter=%v, registry says %v", tc.node.b.Name(), name, r.Counter, isCounter)
					}
				case slices.Contains(telemetryPointRows, name):
				case name == obs.WithLabel("broker_link_egress_queue_depth", "peer", tc.peer),
					name == obs.WithLabel("broker_link_offender_score_milli", "peer", tc.peer):
					links++
				default:
					t.Errorf("%s: row %q is neither in the broker's registry nor a point-in-time row", tc.node.b.Name(), name)
				}
			}
			if links != 2 {
				t.Errorf("%s: %d link rows naming %s, want the depth/score pair", tc.node.b.Name(), links, tc.peer)
			}
			for name := range own.Counters {
				if _, ok := tc.rows[name]; !ok {
					t.Errorf("%s: registry counter %q is not a row", tc.node.b.Name(), name)
				}
			}
			for _, name := range telemetryPointRows {
				if _, ok := tc.rows[name]; !ok {
					t.Errorf("%s: point-in-time row %q missing", tc.node.b.Name(), name)
				}
			}
		}
	})

	t.Run("counter rows are per-broker deltas", func(t *testing.T) {
		// Traffic only tel-a sees: 50 envelopes nobody subscribes to, each
		// sent twice.
		c, err := broker.Connect(inproc, a.addr, "tel-client")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tp := topic.MustParse("/telemetry/only-a")
		for i := 0; i < 50; i++ {
			env := message.New(message.TypeData, tp, "tel-client", nil)
			for range 2 {
				if err := c.Publish(env); err != nil {
					t.Fatal(err)
				}
			}
		}
		eventually(t, "tel-a to admit the traffic", func() bool { return a.b.Snapshot().Counters["broker_duplicates_total"] == 50 })
		rowsA, rowsB := a.tick(t), b.tick(t)
		if d := rowsA["broker_duplicates_total"].Value; d != 50 {
			t.Errorf("tel-a duplicates delta = %d, want 50", d)
		}
		if d := rowsA["broker_published_total"].Value; d < 50 {
			t.Errorf("tel-a published delta = %d, want at least its client's 50", d)
		}
		if d := rowsB["broker_duplicates_total"].Value; d != 0 {
			t.Errorf("tel-b duplicates delta = %d: tel-a's traffic moved tel-b's row", d)
		}
		if d := rowsB["broker_published_total"].Value; d >= 50 {
			t.Errorf("tel-b published delta = %d: tel-a's traffic moved tel-b's row", d)
		}
		// Deltas, not cumulatives: a quiet interval reports zero.
		if d := a.tick(t)["broker_duplicates_total"].Value; d != 0 {
			t.Errorf("tel-a duplicates delta after a quiet interval = %d, want 0", d)
		}
	})

	t.Run("link rows carry the link's queue depth", func(t *testing.T) {
		// tel-b subscribes, then stops reading from tel-a: the first
		// forwarded frame wedges tel-a's writer mid-send and every later
		// one stays queued on the link.
		tp := topic.MustParse("/telemetry/backlog")
		defer b.b.SubscribeLocal(tp, func(*message.Envelope) {})()
		eventually(t, "subscription to reach tel-a", func() bool { return a.b.HasSubscription(tp.String()) })
		stall.stalled.Store(true)
		publish := func() {
			if err := a.b.Publish(message.New(message.TypeData, tp, "", nil)); err != nil {
				t.Fatal(err)
			}
		}
		publish()
		eventually(t, "the writer to wedge", func() bool { return a.linkQueued("tel-b") == 0 })
		for range 20 {
			publish()
		}
		rows := a.tick(t)
		depth := rows[obs.WithLabel("broker_link_egress_queue_depth", "peer", "tel-b")]
		if depth.Counter || depth.Value != 20 || a.linkQueued("tel-b") < 20 {
			t.Errorf("link depth row = %+v, Health says %d, want 20", depth, a.linkQueued("tel-b"))
		}
		if g := rows["broker_egress_queue_depth"].Value; g < 20 {
			t.Errorf("broker_egress_queue_depth = %d, want at least the link's 20", g)
		}
	})

	t.Run("clients do not add rows", func(t *testing.T) {
		before := a.tick(t)
		for i := 0; i < 200; i++ {
			c, err := broker.Connect(inproc, a.addr, ident.EntityID(fmt.Sprintf("tel-client-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
		}
		eventually(t, "200 clients", func() bool { return a.b.PeerCount() >= 201 })
		after := a.tick(t)
		if len(after) != len(before) {
			t.Errorf("%d rows with 200 clients, %d without", len(after), len(before))
		}
		if got := after["broker_peers"].Value; got != int64(a.b.PeerCount()) {
			t.Errorf("broker_peers = %d, want %d", got, a.b.PeerCount())
		}
	})
}

// TestTelemetryTickSamplesEachSeriesOnce: the local store has exactly one
// appender per series per tick, on the manager's clock — N ticks leave N
// points in a broker-scoped series and in a process-only one alike.
func TestTelemetryTickSamplesEachSeriesOnce(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	n := newTelemetryNode(t, transport.NewInproc(), "tel-once", clk)
	n.mgr.Start()
	const ticks = 5
	for i := 1; i <= ticks; i++ {
		eventually(t, "the tick timer", func() bool { return clk.PendingTimers() == 1 })
		clk.Advance(telemetryTestInterval)
		select {
		case <-n.snaps:
		case <-time.After(10 * time.Second):
			t.Fatalf("tick %d published nothing", i)
		}
	}
	store := n.mgr.Telemetry()
	for _, name := range []string{"broker_published_total", "broker_egress_queue_depth", "core_registrations_total"} {
		s := store.Get(name)
		if s == nil {
			t.Fatalf("series %q missing from the store", name)
		}
		if pts := s.Query(0, 0); len(pts) != ticks {
			t.Errorf("series %q has %d points after %d ticks", name, len(pts), ticks)
		}
	}
}

// TestPeriodicFiresOnTheInterval: the loop behind both periodic
// publishers fires at exactly the interval, re-arms, and stops on Close.
func TestPeriodicFiresOnTheInterval(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	n := newTelemetryNode(t, transport.NewInproc(), "tel-periodic", clk)
	fired := make(chan struct{}, 8)
	n.mgr.periodic(time.Minute, func() { fired <- struct{}{} })
	quiet := func(why string) {
		t.Helper()
		select {
		case <-fired:
			t.Fatalf("fired %s", why)
		case <-time.After(30 * time.Millisecond):
		}
	}
	for round := 0; round < 2; round++ {
		eventually(t, "the timer to arm", func() bool { return clk.PendingTimers() == 1 })
		clk.Advance(time.Minute - time.Nanosecond)
		quiet("a nanosecond early")
		clk.Advance(time.Nanosecond)
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatal("did not fire at the interval")
		}
	}
	eventually(t, "the timer to re-arm", func() bool { return clk.PendingTimers() == 1 })
	n.mgr.Close()
	if clk.PendingTimers() != 0 {
		t.Fatal("Close left the timer armed")
	}
	clk.Advance(time.Hour)
	quiet("after Close")
}
