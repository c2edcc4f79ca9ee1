// Chaos end-to-end suite: the full stack (entity → broker chain →
// tracker, with credentials, tokens and trace verification) running
// under the internal/chaos fault injector. Each scenario checks one
// survival invariant from the paper's availability story:
//
//	duplication+reorder  exactly-once delivery (broker UUID dedupe)
//	corruption           rejected, never fatal; delivery still converges
//	link flaps           reconnect + session resume bring traces back
//	asymmetric partition no delivery while dark, full recovery on heal
//	bandwidth cap        delayed but delivered
//
// Every injector is seeded, so failures replay exactly. Run the suite
// alone with `make chaos`.
package entitytrace

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/chaos"
	"entitytrace/internal/core"
	"entitytrace/internal/failure"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// chaosHarness builds a testbed whose transport is wrapped by a seeded
// fault injector. The violation budget is effectively unlimited: the
// injector's garbage must not exhaust a legitimate peer's allowance
// (§5.2 punishes real attackers, and the injector is not one).
func chaosHarness(t *testing.T, seed int64, opts harness.Options) (*harness.Testbed, *chaos.Injector) {
	t.Helper()
	var inj *chaos.Injector
	opts.ViolationLimit = 1 << 30
	opts.ShapeSeed = seed
	opts.WrapTransport = func(tr transport.Transport) transport.Transport {
		i, err := chaos.New(tr, chaos.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		inj = i
		return i
	}
	tb, err := harness.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb, inj
}

// tolerantDetector keeps the broker's failure detector from declaring
// entities dead while faults suppress ping responses: chaos scenarios
// that are not about failure detection run with it.
func tolerantDetector() failure.Config {
	return failure.Config{
		BaseInterval:       100 * time.Millisecond,
		MinInterval:        25 * time.Millisecond,
		MaxInterval:        time.Second,
		ResponseTimeout:    250 * time.Millisecond,
		SuspicionThreshold: 1 << 20,
		FailureThreshold:   1,
		SuccessesPerRelax:  1 << 30,
	}
}

// stateLog records every delivered state-transition event keyed by its
// report timestamp. Each SetState stamps a fresh nanosecond timestamp,
// so two deliveries sharing one timestamp are the same trace delivered
// twice — the exactly-once violation the suite hunts.
type stateLog struct {
	byAt map[int64]int
}

func newStateLog() *stateLog { return &stateLog{byAt: make(map[int64]int)} }

func (l *stateLog) add(ev core.Event) {
	if ev.State != nil {
		l.byAt[ev.State.At]++
	}
}

func (l *stateLog) duplicates() int {
	dups := 0
	for _, n := range l.byAt {
		if n > 1 {
			dups += n - 1
		}
	}
	return dups
}

// driveState reports a transition to want and waits for its verified
// delivery, re-issuing the report every 500ms (lost frames, interest
// races and down connections all heal by retry). Every event seen on
// the way is logged.
func driveState(t *testing.T, ent *core.TracedEntity, h *harness.TrackerHandle, want message.EntityState, log *stateLog, timeout time.Duration) {
	t.Helper()
	_ = ent.SetState(want) // may fail while disconnected; retries cover it
	deadline := time.After(timeout)
	retry := time.NewTicker(500 * time.Millisecond)
	defer retry.Stop()
	for {
		select {
		case ev := <-h.Events:
			log.add(ev)
			if ev.State != nil && ev.State.To == want {
				return
			}
		case <-retry.C:
			_ = ent.SetState(want)
		case <-deadline:
			t.Fatalf("no %v state trace within %v", want, timeout)
		}
	}
}

// drainInto keeps logging events for d, letting reordered stragglers
// arrive before the exactly-once audit.
func drainInto(h *harness.TrackerHandle, log *stateLog, d time.Duration) {
	deadline := time.After(d)
	for {
		select {
		case ev := <-h.Events:
			log.add(ev)
		case <-deadline:
			return
		}
	}
}

// journalHas reports whether any journaled decision of the named fault
// carries an action with the given prefix — the proof a scenario's
// faults actually fired (no vacuous passes).
func journalHas(inj *chaos.Injector, fault, actionPrefix string) bool {
	for _, d := range inj.Decisions() {
		if d.Fault == fault && strings.HasPrefix(d.Action, actionPrefix) {
			return true
		}
	}
	return false
}

// TestChaosExactlyOnceUnderDuplicationAndReorder duplicates every frame
// flowing toward a listener (entity publishes and inter-broker traffic)
// and reorders at random across the whole topology. The brokers' UUID
// dedupe window must collapse the copies: across many distinct state
// transitions the tracker may never see the same report twice.
func TestChaosExactlyOnceUnderDuplicationAndReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, inj := chaosHarness(t, 11, harness.Options{Brokers: 2, Detector: tolerantDetector()})
	ent, err := tb.StartEntity("dup-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("dup-tracker", 1, "dup-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// Triplicate everything flowing dialer→listener; hold back ~30% of
	// frames everywhere for adjacent-frame reordering.
	toListener := func(ev *chaos.Event) bool { return ev.ToListener }
	inj.Set("dup", chaos.When(toListener, chaos.Duplicate(1.0, 2)))
	inj.Set("reorder", chaos.Reorder(0.3))

	for i := 1; i <= 8; i++ {
		driveState(t, ent, h, core.StateForRound(i), log, 15*time.Second)
	}
	inj.ClearAll()
	drainInto(h, log, 300*time.Millisecond)

	if !journalHas(inj, "dup", "dup") {
		t.Fatal("duplication fault never fired; scenario is vacuous")
	}
	if dups := log.duplicates(); dups != 0 {
		t.Fatalf("%d duplicate state-trace deliveries got past broker dedupe", dups)
	}
}

// TestChaosCorruptionRejectedNotFatal flips random bytes in a quarter
// of all frames. Corrupted envelopes must be rejected by parsing or
// signature verification — never panicking a broker or tracker — while
// retried reports still converge to delivery; the pipeline must also
// return to clean operation once corruption stops.
func TestChaosCorruptionRejectedNotFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, inj := chaosHarness(t, 13, harness.Options{Brokers: 1, Detector: tolerantDetector()})
	ent, err := tb.StartEntity("garble-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("garble-tracker", 0, "garble-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	inj.Set("corrupt", chaos.Corrupt(0.25, 8))
	for i := 1; i <= 5; i++ {
		driveState(t, ent, h, core.StateForRound(i), log, 20*time.Second)
	}
	inj.Clear("corrupt")
	if !journalHas(inj, "corrupt", "corrupt") {
		t.Fatal("corruption fault never fired; scenario is vacuous")
	}
	// Clean round after the fault clears.
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)
	drainInto(h, log, 200*time.Millisecond)
	if dups := log.duplicates(); dups != 0 {
		t.Fatalf("%d duplicate deliveries under corruption", dups)
	}
}

// TestChaosFlapReconnectsAndResumes force-closes every connection in
// the system — entity, tracker and the inter-broker link. Persistent
// links and the reconnect/resume machinery must bring the whole path
// back without operator involvement, and the recovery must be visible
// on the reconnect metrics.
func TestChaosFlapReconnectsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	entOK := obs.Default.Counter(obs.WithLabel("core_reconnects_total", "role", "entity"))
	trkOK := obs.Default.Counter(obs.WithLabel("core_reconnects_total", "role", "tracker"))
	flaps := obs.Default.Counter("chaos_flaps_total")
	entOK0, trkOK0, flaps0 := entOK.Value(), trkOK.Value(), flaps.Value()

	tb, inj := chaosHarness(t, 17, harness.Options{
		Brokers:         2,
		Detector:        tolerantDetector(),
		Reconnect:       true,
		PersistentLinks: true,
	})
	ent, err := tb.StartEntity("flap-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("flap-tracker", 1, "flap-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	if n := inj.Flap(); n == 0 {
		t.Fatal("flap closed no connections")
	}
	// Everything is down; retried reports must eventually traverse the
	// re-dialed entity session, re-established broker link and
	// re-subscribed tracker.
	driveState(t, ent, h, message.StateRecovering, log, 30*time.Second)
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// A reconnect loop counts its success only once resume has returned,
	// which can be after the traces that resume let through.
	waitDelta := func(name string, c *obs.Counter, base uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for c.Value()-base < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s delta = %d", name, c.Value()-base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDelta("core_reconnects_total{role=entity}", entOK, entOK0)
	waitDelta("core_reconnects_total{role=tracker}", trkOK, trkOK0)
	if d := flaps.Value() - flaps0; d < 1 {
		t.Fatalf("chaos_flaps_total delta = %d", d)
	}
}

// TestChaosAsymmetricPartitionHeals blacks out the entity→broker
// direction only: reports die on the wire while the reverse path stays
// up. Nothing may be delivered during the partition, and clearing it
// must restore delivery with no other intervention.
func TestChaosAsymmetricPartitionHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, inj := chaosHarness(t, 19, harness.Options{Brokers: 1, Detector: tolerantDetector()})
	ent, err := tb.StartEntity("part-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("part-tracker", 0, "part-entity", topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	inj.Set("partition", chaos.When(chaos.Toward(tb.Addrs[0]), chaos.Drop()))
	_ = ent.SetState(message.StateRecovering)
	deadline := time.After(500 * time.Millisecond)
	for leak := false; !leak; {
		select {
		case ev := <-h.Events:
			log.add(ev)
			if ev.State != nil && ev.State.To == message.StateRecovering {
				t.Fatal("state trace crossed an inbound-partitioned link")
			}
		case <-deadline:
			leak = true
		}
	}
	if !journalHas(inj, "partition", "drop") {
		t.Fatal("partition never dropped a frame; scenario is vacuous")
	}

	inj.Clear("partition")
	driveState(t, ent, h, message.StateRecovering, log, 15*time.Second)
	drainInto(h, log, 200*time.Millisecond)
	if dups := log.duplicates(); dups != 0 {
		t.Fatalf("%d duplicate deliveries around the partition", dups)
	}
}

// TestChaosBandwidthCapDelaysButDelivers squeezes the broker→tracker
// direction through a 64 KiB/s virtual link: deliveries queue behind
// each other but every report still arrives.
func TestChaosBandwidthCapDelaysButDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, inj := chaosHarness(t, 23, harness.Options{Brokers: 1, Detector: tolerantDetector()})
	ent, err := tb.StartEntity("slow-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("slow-tracker", 0, "slow-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	inj.Set("bw", chaos.When(chaos.From(tb.Addrs[0]), chaos.Bandwidth(64*1024)))
	for i := 1; i <= 4; i++ {
		driveState(t, ent, h, core.StateForRound(i), log, 20*time.Second)
	}
	if !journalHas(inj, "bw", "delay=") {
		t.Fatal("bandwidth cap never delayed a frame; scenario is vacuous")
	}
}

// stallRecvTransport wraps a transport so a dialed connection delivers
// its first passRecvs inbound frames normally and then stops reading —
// the consumer equivalent of a wedged process: it still subscribes and
// acks, then never drains another byte.
type stallRecvTransport struct {
	transport.Transport
	passRecvs int
}

func (s *stallRecvTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := s.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &stallRecvConn{Conn: conn, pass: int32(s.passRecvs), stalled: make(chan struct{})}, nil
}

type stallRecvConn struct {
	transport.Conn
	pass    int32
	stalled chan struct{}
	once    sync.Once
}

func (c *stallRecvConn) Recv() ([]byte, error) {
	if atomic.AddInt32(&c.pass, -1) >= 0 {
		return c.Conn.Recv()
	}
	<-c.stalled
	return nil, transport.ErrClosed
}

func (c *stallRecvConn) Close() error {
	c.once.Do(func() { close(c.stalled) })
	return c.Conn.Close()
}

// TestChaosSlowConsumerEvictedHealthyTrackerFlows is the head-of-line
// isolation scenario: a consumer subscribed to the same trace topic as a
// healthy tracker stops reading mid-run while a flooder piles frames
// onto it. The broker must keep state traces flowing to the healthy
// tracker within the usual delivery bounds (no fan-out blocked behind
// the stalled pipe), shed the stalled peer's backlog, evict it with the
// slow-consumer reason, and quarantine its principal.
func TestChaosSlowConsumerEvictedHealthyTrackerFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, _ := chaosHarness(t, 29, harness.Options{
		Brokers:              1,
		Detector:             tolerantDetector(),
		EgressQueue:          64,
		SlowConsumerDeadline: 100 * time.Millisecond,
	})
	ent, err := tb.StartEntity("hol-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("hol-tracker", 0, "hol-entity", topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// The staller subscribes to the same trace topic as the healthy
	// tracker plus the flood topic, acks both subscriptions, then stops
	// reading forever.
	holTopic := topic.MustParse("/chaos/hol")
	stallTr := &stallRecvTransport{Transport: tb.Transport(), passRecvs: 2}
	staller, err := broker.Connect(stallTr, tb.Addrs[0], "hol-staller")
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()
	traceTopic := topic.StateTransitions(h.Watch.TraceTopic())
	if err := staller.Subscribe(traceTopic, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := staller.Subscribe(holTopic, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}

	flooder, err := broker.Connect(tb.Transport(), tb.Addrs[0], "hol-flooder")
	if err != nil {
		t.Fatal(err)
	}
	defer flooder.Close()

	b := tb.Brokers[0]
	// Saturate the stalled peer's pipe, then prove healthy delivery is
	// not blocked behind it while it is saturated-but-connected.
	for i := 0; i < 1500; i++ {
		if err := flooder.Publish(message.New(message.TypeData, holTopic, "hol-flooder", []byte("flood"))); err != nil {
			t.Fatalf("flooder publish %d: %v", i, err)
		}
	}
	driveState(t, ent, h, message.StateRecovering, log, 15*time.Second)

	// Keep the pressure on until the slow-consumer deadline trips.
	floodDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(floodDeadline) && b.Snapshot().Counters[`broker_disconnects_total{reason="slow-consumer"}`] == 0 {
		for i := 0; i < 100; i++ {
			_ = flooder.Publish(message.New(message.TypeData, holTopic, "hol-flooder", []byte("flood")))
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := b.Snapshot().Counters
	if s[`broker_disconnects_total{reason="slow-consumer"}`] == 0 {
		t.Fatal("stalled consumer never evicted")
	}
	if s["broker_egress_sheds_total"] == 0 {
		t.Fatal("no frames shed from the stalled peer's queue")
	}

	// Healthy delivery continues after the eviction.
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// The evicted principal is quarantined: its reconnect is refused with
	// the typed reason, so its client backs off instead of hot-looping.
	recl, err := broker.Connect(tb.Transport(), tb.Addrs[0], "hol-staller")
	if err != nil {
		t.Fatal(err)
	}
	defer recl.Close()
	select {
	case <-recl.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("quarantined reconnect not refused")
	}
	if r := recl.DisconnectReason(); r != broker.ReasonQuarantined {
		t.Fatalf("reconnect DisconnectReason = %v, want quarantined", r)
	}
	if b.Snapshot().Counters["broker_quarantine_rejects_total"] == 0 {
		t.Fatal("quarantine reject not counted")
	}
}

// TestChaosFloodingPublisherThrottledNotStarving verifies ingress
// admission control under load: an authorized client flooding as fast as
// it can is throttled at the broker (counted, not evicted — the
// violation budget here is effectively unlimited), while a well-behaved
// entity's state traces keep delivering through the same broker.
func TestChaosFloodingPublisherThrottledNotStarving(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, _ := chaosHarness(t, 31, harness.Options{
		Brokers:      1,
		Detector:     tolerantDetector(),
		PublishRate:  200,
		PublishBurst: 50,
	})
	ent, err := tb.StartEntity("fair-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("fair-tracker", 0, "fair-entity", topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	flooder, err := broker.Connect(tb.Transport(), tb.Addrs[0], "rate-flooder")
	if err != nil {
		t.Fatal(err)
	}
	defer flooder.Close()
	floodTopic := topic.MustParse("/chaos/flood")
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = flooder.Publish(message.New(message.TypeData, floodTopic, "rate-flooder", []byte("x")))
		}
	}()

	// Wait until admission control is demonstrably engaged, then prove
	// healthy traffic keeps delivering while the flood continues.
	b := tb.Brokers[0]
	throttleDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(throttleDeadline) && b.Snapshot().Counters["broker_publish_throttled_total"] < 100 {
		time.Sleep(2 * time.Millisecond)
	}
	if b.Snapshot().Counters["broker_publish_throttled_total"] < 100 {
		t.Fatal("flooding publisher was never throttled; scenario is vacuous")
	}
	for i := 1; i <= 3; i++ {
		driveState(t, ent, h, core.StateForRound(i), log, 20*time.Second)
	}
	close(stop)
	floodWG.Wait()

	s := b.Snapshot().Counters
	// Throttling is admission control, not punishment at this violation
	// budget: the flooder must still be connected.
	select {
	case <-flooder.Done():
		t.Fatalf("flooder evicted (reason %v) despite unlimited violation budget", flooder.DisconnectReason())
	default:
	}
	var disconnects uint64
	for _, reason := range []string{"dos", "slow-consumer", "quarantined"} {
		disconnects += s[obs.WithLabel("broker_disconnects_total", "reason", reason)]
	}
	if disconnects != 0 {
		t.Fatalf("unexpected disconnects during throttling run: %+v", s)
	}
}
