package broker

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/durable"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// newDurableBroker starts a broker with a disk-backed durable store on a
// fake clock: its replay pumps rewind only when the test steps the
// clock past their redelivery deadlines.
func newDurableBroker(t *testing.T, tr transport.Transport) (*Broker, string, *durable.Store, *clock.Fake) {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	b, addr := newTestBroker(t, tr, Config{Name: "durable-broker", Durable: store, Clock: clk})
	t.Cleanup(store.Close)
	return b, addr, store, clk
}

// maxRedeliverDelay is the longest delay the redelivery schedule can
// draw: its cap at full jitter. One clock step this long passes any
// pending deadline.
var maxRedeliverDelay = time.Duration(float64(redeliver.Max) * (1 + redeliver.Jitter))

func traceEnv(tp topic.Topic, n byte) *message.Envelope {
	return message.New(message.TraceAllsWell, tp, "traced-entity", bytes.Repeat([]byte{n}, 16))
}

func TestDurablePublishPersistsTraceTopics(t *testing.T) {
	tr := transport.NewInproc()
	b, _, store, _ := newDurableBroker(t, tr)
	durableTopic := topic.AllUpdates(ident.NewUUID())
	plain := topic.MustParse("/plain/topic")
	for i := 0; i < 3; i++ {
		if err := b.Publish(traceEnv(durableTopic, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish(message.New(message.TypeData, plain, "traced-entity", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if h := store.Head(durableTopic.String()); h != 3 {
		t.Fatalf("durable head = %d, want 3", h)
	}
	if lg := store.Get(plain.String()); lg != nil {
		t.Fatal("non-trace topic was persisted")
	}
	// The persisted payload is the envelope wire form.
	recs, err := store.Get(durableTopic.String()).ReadFrom(1, 10, 1<<20)
	if err != nil || len(recs) != 3 {
		t.Fatalf("read persisted: %d records, err %v", len(recs), err)
	}
	env, err := message.Unmarshal(recs[0].Payload)
	if err != nil {
		t.Fatalf("persisted payload does not unmarshal: %v", err)
	}
	if env.Type != message.TraceAllsWell || env.Topic.String() != durableTopic.String() {
		t.Fatalf("persisted envelope = %v on %s", env.Type, env.Topic)
	}
}

// durableSink collects offset-annotated deliveries.
type durableSink struct {
	mu      sync.Mutex
	offsets []uint64
	envs    []*message.Envelope
	plain   int
}

func (s *durableSink) durable(offset uint64, env *message.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offsets = append(s.offsets, offset)
	s.envs = append(s.envs, env)
}

func (s *durableSink) live(*message.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plain++
}

func (s *durableSink) snapshot() ([]uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.offsets...), s.plain
}

func TestReplayCatchUpThenLive(t *testing.T) {
	tr := transport.NewInproc()
	b, addr, _, _ := newDurableBroker(t, tr)
	tp := topic.StateTransitions(ident.NewUUID())

	// Three records persisted before the consumer ever connects.
	for i := 0; i < 3; i++ {
		if err := b.Publish(traceEnv(tp, byte(i))); err != nil {
			t.Fatal(err)
		}
	}

	c, err := Connect(tr, addr, "late-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := &durableSink{}
	if err := c.Subscribe(tp, sink.live); err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(tp, 0, sink.durable); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up replay", func() bool {
		offs, _ := sink.snapshot()
		return len(offs) >= 3
	})
	for i := 1; i <= 3; i++ {
		if err := c.Ack(tp, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Live publishes now flow through the same pump, offset-annotated.
	for i := 3; i < 6; i++ {
		if err := b.Publish(traceEnv(tp, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live records via pump", func() bool {
		offs, _ := sink.snapshot()
		return len(offs) >= 6
	})
	for i := 4; i <= 6; i++ {
		if err := c.Ack(tp, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	offs, plain := sink.snapshot()
	for i, off := range offs[:6] {
		if off != uint64(i+1) {
			t.Fatalf("offsets = %v, want 1..6 in order", offs)
		}
	}
	if plain != 0 {
		t.Fatalf("cursored topic delivered %d plain envelopes (want 0: pump is the only source)", plain)
	}
}

func TestReplayResumeFromCursor(t *testing.T) {
	tr := transport.NewInproc()
	b, addr, _, _ := newDurableBroker(t, tr)
	tp := topic.Load(ident.NewUUID())
	for i := 0; i < 5; i++ {
		if err := b.Publish(traceEnv(tp, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Connect(tr, addr, "resuming-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := &durableSink{}
	if err := c.Subscribe(tp, sink.live); err != nil {
		t.Fatal(err)
	}
	// Resume after offset 3: only 4 and 5 replay.
	if err := c.Replay(tp, 3, sink.durable); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed replay", func() bool {
		offs, _ := sink.snapshot()
		return len(offs) >= 2
	})
	offs, _ := sink.snapshot()
	if offs[0] != 4 || offs[1] != 5 {
		t.Fatalf("resumed offsets = %v, want [4 5]", offs)
	}
}

func TestRedeliveryOnMissingAck(t *testing.T) {
	tr := transport.NewInproc()
	b, addr, _, clk := newDurableBroker(t, tr)
	tp := topic.ChangeNotifications(ident.NewUUID())
	if err := b.Publish(traceEnv(tp, 1)); err != nil {
		t.Fatal(err)
	}
	c, err := Connect(tr, addr, "silent-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := &durableSink{}
	if err := c.Subscribe(tp, sink.live); err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(tp, 0, sink.durable); err != nil {
		t.Fatal(err)
	}
	delivered := func() int {
		offs, _ := sink.snapshot()
		return len(offs)
	}
	// Never ack: each step of the broker clock past the pump's deadline
	// must rewind and retransmit offset 1.
	for want := 1; ; want++ {
		waitFor(t, fmt.Sprintf("delivery %d with the pump parked on its deadline", want), func() bool {
			return delivered() == want && clk.PendingTimers() == 1
		})
		if want == 3 {
			break
		}
		clk.Advance(maxRedeliverDelay)
	}
	offs, _ := sink.snapshot()
	for _, off := range offs {
		if off != 1 {
			t.Fatalf("redelivered offsets = %v, want all 1", offs)
		}
	}
	if r := b.Snapshot().Counters["durable_redeliveries_total"]; r != 2 {
		t.Fatalf("redeliveries = %d, want 2", r)
	}
	// Acking stops the retransmissions: the pump drops its deadline, so
	// no step of the clock rewinds it again.
	if err := c.Ack(tp, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump parked without a deadline", func() bool { return clk.PendingTimers() == 0 })
	clk.Advance(10 * maxRedeliverDelay)
	if n, r := delivered(), b.Snapshot().Counters["durable_redeliveries_total"]; n != 3 || r != 2 {
		t.Fatalf("after ack: %d deliveries, %d redeliveries, want 3 and 2", n, r)
	}
}

// TestRedeliveryFollowsBrokerClock pins the redelivery deadline to the
// broker's injected clock: no amount of wall time rewinds the cursor,
// the rewind does not fire before the fake clock reaches the first
// delay's lower jitter bound, and it fires exactly once when the clock
// passes the upper one.
func TestRedeliveryFollowsBrokerClock(t *testing.T) {
	tr := transport.NewInproc()
	b, addr, _, clk := newDurableBroker(t, tr)
	tp := topic.ChangeNotifications(ident.NewUUID())
	if err := b.Publish(traceEnv(tp, 1)); err != nil {
		t.Fatal(err)
	}
	c, err := Connect(tr, addr, "silent-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := &durableSink{}
	if err := c.Subscribe(tp, sink.live); err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(tp, 0, sink.durable); err != nil {
		t.Fatal(err)
	}
	delivered := func() int {
		offs, _ := sink.snapshot()
		return len(offs)
	}
	waitFor(t, "first delivery", func() bool { return delivered() == 1 })
	// Never ack. The pump parks on its deadline timer — a timer of the
	// fake clock, so real time passing cannot fire it.
	waitFor(t, "pump parked on its redelivery deadline", func() bool { return clk.PendingTimers() == 1 })
	lo := time.Duration(float64(redeliver.Initial) * (1 - redeliver.Jitter))
	hi := time.Duration(float64(redeliver.Initial) * (1 + redeliver.Jitter))
	clk.Advance(lo - time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	if n, r := delivered(), b.Snapshot().Counters["durable_redeliveries_total"]; n != 1 || r != 0 {
		t.Fatalf("before the first redelivery delay elapsed: %d deliveries, %d redeliveries, want 1 and 0", n, r)
	}
	clk.Advance(hi - lo + time.Millisecond)
	waitFor(t, "redelivery once the fake clock passes the deadline", func() bool { return delivered() == 2 })
	if r := b.Snapshot().Counters["durable_redeliveries_total"]; r != 1 {
		t.Fatalf("redeliveries = %d, want 1", r)
	}
}

// TestReplayLaneShedIsFlightRecorded saturates a replay subscriber's
// egress queue: the pump sheds through the same enqueue as fan-out, so
// the flight ring must hold a shed event naming that peer.
func TestReplayLaneShedIsFlightRecorded(t *testing.T) {
	tr := transport.NewInproc()
	store, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	flight := obs.NewFlightRecorder("replay-shed-broker", 0, 0)
	b, addr := newTestBroker(t, tr, Config{
		Name:                 "replay-shed-broker",
		Durable:              store,
		Flight:               flight,
		EgressQueue:          4,
		SlowConsumerDeadline: time.Hour,
	})
	tp := topic.StateTransitions(ident.NewUUID())
	// A consumer that subscribes, asks for replay and never reads.
	wedged := rawSubscriber(t, tr, addr, "wedged-tracker", tp.String())
	defer wedged.Close()
	replay := &control{Kind: ctrlReplay, ID: 2, Topic: tp.String()}
	if err := wedged.Send(append([]byte{frameControl}, marshalControl(replay)...)); err != nil {
		t.Fatal(err)
	}
	// Only once the cursor is installed is the pump the peer's sole
	// source on this topic: any shed from here on is a replay-lane shed.
	waitFor(t, "cursor installed", func() bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		for p := range b.peers {
			if p.cursorFor(tp.String()) != nil {
				return true
			}
		}
		return false
	})
	shedRecorded := func() bool {
		for _, ev := range flight.Events(obs.FlightFilter{Last: obs.DefaultFlightEvents}) {
			if ev.Kind == obs.FlightShed && ev.Peer == "wedged-tracker" && ev.N > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; !shedRecorded(); n++ {
		if time.Now().After(deadline) {
			t.Fatalf("no shed event for the replay peer after %d records (%d sheds counted)", n, b.Snapshot().Counters["broker_egress_sheds_total"])
		}
		if err := b.Publish(traceEnv(tp, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.Snapshot().Counters; s["broker_egress_sheds_total"] == 0 || s["durable_replay_records_total"] == 0 {
		t.Fatalf("snapshot = %+v, want replay records served and sheds counted", s)
	}
}

func TestReplayDenials(t *testing.T) {
	tr := transport.NewInproc()
	tpDurable := topic.AllUpdates(ident.NewUUID())

	// No durable store at the broker.
	_, addrPlain := newTestBroker(t, tr, Config{Name: "no-store"})
	c1, err := Connect(tr, addrPlain, "tracker-a")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Subscribe(tpDurable, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Replay(tpDurable, 0, func(uint64, *message.Envelope) {}); !errors.Is(err, ErrReplayDenied) {
		t.Fatalf("replay without store: %v, want ErrReplayDenied", err)
	}

	_, addr, _, _ := newDurableBroker(t, tr)
	c2, err := Connect(tr, addr, "tracker-b")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Replay without a subscription.
	if err := c2.Replay(tpDurable, 0, func(uint64, *message.Envelope) {}); !errors.Is(err, ErrReplayDenied) {
		t.Fatalf("replay without subscription: %v, want ErrReplayDenied", err)
	}
	// Replay of a non-durable topic.
	plain := topic.MustParse("/not/durable")
	if err := c2.Subscribe(plain, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Replay(plain, 0, func(uint64, *message.Envelope) {}); !errors.Is(err, ErrReplayDenied) {
		t.Fatalf("replay of non-durable topic: %v, want ErrReplayDenied", err)
	}
}

func TestReplayCursorDroppedOnUnsubscribe(t *testing.T) {
	tr := transport.NewInproc()
	b, addr, _, _ := newDurableBroker(t, tr)
	tp := topic.AllUpdates(ident.NewUUID())
	c, err := Connect(tr, addr, "fickle-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := &durableSink{}
	if err := c.Subscribe(tp, sink.live); err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(tp, 0, sink.durable); err != nil {
		t.Fatal(err)
	}
	var pump *replayCursor
	waitFor(t, "cursor installed", func() bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		for p := range b.peers {
			if rc := p.cursorFor(tp.String()); rc != nil {
				pump = rc
				return true
			}
		}
		return false
	})
	if err := c.Unsubscribe(tp); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump stopped on unsubscribe", func() bool {
		select {
		case <-pump.stop:
			return true
		default:
			return false
		}
	})
}

// replayCursorOf returns b's replay cursor for topic ts, nil if none.
func replayCursorOf(b *Broker, ts string) *replayCursor {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for p := range b.peers {
		if rc := p.cursorFor(ts); rc != nil {
			return rc
		}
	}
	return nil
}

// TestReplayAcksAreCumulative: a consumer over TCP that acks every one
// of 1000 replayed records sends the broker one ACK-CUR per drained read
// and one per replayBatchRecords frames, not one per record, and the
// cursor still reaches the end without a redelivery.
func TestReplayAcksAreCumulative(t *testing.T) {
	tr := transport.NewTCP()
	store, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	b := New(Config{
		Name:    "cumulative-ack-broker",
		Durable: store,
		// A clock the test steps only once the cursor is fully acked: no
		// redelivery deadline passes while records are in flight.
		Clock: clk,
	})
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(l)
	defer b.Close()
	tp := topic.Load(ident.NewUUID())
	const n = 1000
	for i := 0; i < n; i++ {
		if err := b.Publish(traceEnv(tp, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Connect(tr, l.Addr(), "acking-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(tp, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	acksBefore := mAckCursors.Value()
	// drained counts the records after which no whole frame was left
	// buffered: the handler runs on the receive goroutine, so it sees
	// what the receive loop sees when the handler returns.
	var drained atomic.Int64
	handler := func(offset uint64, env *message.Envelope) {
		if offset == 1 {
			// Hold the first record until the pump has queued every
			// record, so reads are full buffers rather than a race
			// between the pump and this consumer.
			deadline := time.Now().Add(5 * time.Second)
			for b.Snapshot().Counters["durable_replay_records_total"] < n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		if !transport.Pending(c.conn) {
			drained.Add(1)
		}
		if err := c.Ack(tp, offset); err != nil {
			t.Error(err)
		}
	}
	if err := c.Replay(tp, 0, handler); err != nil {
		t.Fatal(err)
	}
	var rc *replayCursor
	waitFor(t, "cursor installed", func() bool { rc = replayCursorOf(b, tp.String()); return rc != nil })
	waitFor(t, "cursor acked to the end", func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		return rc.acked == n
	})
	// One more read may end on the replay's own ack frame, which no
	// handler sees.
	reads := uint64(drained.Load()) + 1
	if acks := mAckCursors.Value() - acksBefore; acks > n/replayBatchRecords+reads {
		t.Fatalf("%d ACK-CUR frames for %d records in %d drained reads, want at most %d", acks, n, reads, n/replayBatchRecords+reads)
	}
	// The full ack retires the pump's deadline, so stepping the clock
	// past the longest redelivery delay rewinds nothing.
	waitFor(t, "pump parked without a deadline", func() bool { return clk.PendingTimers() == 0 })
	clk.Advance(maxRedeliverDelay)
	if r := b.Snapshot().Counters["durable_redeliveries_total"]; r != 0 {
		t.Fatalf("redeliveries = %d, want 0", r)
	}
}

// TestReplayAckDeferralIsBounded: a consumer that never drains its
// reads still acks every replayBatchRecords frames. The test plays the
// broker's end over inproc, queues 200 records before the consumer
// reads past the first, and blocks the handler at record 130: by then
// the acked cursor has reached 128.
func TestReplayAckDeferralIsBounded(t *testing.T) {
	tr := transport.NewInproc()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	c, err := Connect(tr, l.Addr(), "stalled-tracker")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer srv.Close()
	recvControl := func() *control {
		t.Helper()
		f, err := srv.Recv()
		if err != nil || len(f) == 0 || f[0] != frameControl {
			t.Fatalf("broker end: frame %x, %v", f, err)
		}
		ctl, err := parseControl(f[1:])
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	if hello := recvControl(); hello.Kind != ctrlHello {
		t.Fatalf("first frame is control kind %d, want hello", hello.Kind)
	}

	tp := topic.StateTransitions(ident.NewUUID())
	const n = 200
	queued, reached, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	handler := func(offset uint64, env *message.Envelope) {
		switch offset {
		case 1:
			<-queued
		case 130:
			close(reached)
			<-release
		}
		if err := c.Ack(tp, offset); err != nil {
			t.Error(err)
		}
	}
	replayed := make(chan error, 1)
	go func() { replayed <- c.Replay(tp, 0, handler) }()
	replay := recvControl()
	if replay.Kind != ctrlReplay {
		t.Fatalf("control kind %d, want replay", replay.Kind)
	}
	if err := srv.Send(append([]byte{frameControl}, marshalControl(&control{Kind: ctrlAck, ID: replay.ID})...)); err != nil {
		t.Fatal(err)
	}
	if err := <-replayed; err != nil {
		t.Fatal(err)
	}
	env := append([]byte{frameEnvelope}, traceEnv(tp, 1).Marshal()...)
	for off := uint64(1); off <= n; off++ {
		if err := srv.Send(appendDurable(nil, off, env)); err != nil {
			t.Fatal(err)
		}
	}
	close(queued)

	acked := make(chan uint64, n)
	go func() {
		defer close(acked)
		for {
			f, err := srv.Recv()
			if err != nil {
				return
			}
			if ctl, err := parseControl(f[1:]); err == nil && ctl.Kind == ctrlAckCur && ctl.Topic == tp.String() {
				acked <- ctl.Cursor
			}
		}
	}()
	nextAck := func() uint64 {
		t.Helper()
		select {
		case off := <-acked:
			return off
		case <-time.After(5 * time.Second):
			t.Fatal("no ACK-CUR within 5s")
			return 0
		}
	}
	<-reached
	var got []uint64
	for len(got) == 0 || got[len(got)-1] < 2*replayBatchRecords {
		got = append(got, nextAck())
	}
	if want := []uint64{replayBatchRecords, 2 * replayBatchRecords}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ACK-CURs with the handler blocked at 130 = %v, want %v", got, want)
	}
	close(release)
	for got[len(got)-1] < n {
		got = append(got, nextAck())
	}
	if len(got) > n/replayBatchRecords+1 {
		t.Fatalf("ACK-CURs = %v: more than one per %d records and one at the drained end", got, replayBatchRecords)
	}
}

// FuzzReplayFrame drives the durable-frame and cursor-bearing control
// parsers with arbitrary bytes: no panics, no over-reads, and valid
// frames must round-trip.
func FuzzReplayFrame(f *testing.F) {
	env := message.New(message.TraceAllsWell, topic.MustParse("/a/b"), "e", []byte("seed"))
	envFrame := append([]byte{frameEnvelope}, env.Marshal()...)
	f.Add(appendDurable(nil, 7, envFrame))
	f.Add(appendDurable(nil, 0, []byte{frameEnvelope}))
	f.Add(marshalControl(&control{Kind: ctrlReplay, ID: 3, Topic: "/a/b", Cursor: 42}))
	f.Add(marshalControl(&control{Kind: ctrlAckCur, Topic: "/a/b", Cursor: 9}))
	f.Add(marshalControl(&control{Kind: ctrlSub, ID: 1, Topic: "/a/b"}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if offset, inner, err := parseDurable(data); err == nil {
			if got := appendDurable(nil, offset, inner); !bytes.Equal(got[1:], data) {
				t.Fatal("durable frame round trip mismatch")
			}
		}
		if c, err := parseControl(data); err == nil {
			// Semantic round trip: the IsBroker byte is canonicalized to
			// 0/1 on marshal, so compare parsed structs, not raw bytes.
			c2, err := parseControl(marshalControl(c))
			if err != nil || *c2 != *c {
				t.Fatalf("control round trip mismatch: kind %d (%v)", c.Kind, err)
			}
		}
	})
}
