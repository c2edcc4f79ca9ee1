package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/credential"
	"entitytrace/internal/failure"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/sysinfo"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// Shared CA fixture (RSA keygen is expensive).
var (
	fxOnce     sync.Once
	fxCA       *credential.Authority
	fxVerifier *credential.Verifier
	fxTDNIdent *credential.Identity
	fxErr      error
)

func fixture(t testing.TB) {
	t.Helper()
	fxOnce.Do(func() {
		fxCA, fxErr = credential.NewAuthority("core-test-ca", credential.WithKeyBits(secure.PaperRSABits))
		if fxErr != nil {
			return
		}
		if fxVerifier, fxErr = credential.NewVerifier(fxCA.CACertificate()); fxErr != nil {
			return
		}
		fxTDNIdent, fxErr = fxCA.Issue("tdn-core")
	})
	if fxErr != nil {
		t.Fatal(fxErr)
	}
}

func issue(t testing.TB, name ident.EntityID) *credential.Identity {
	t.Helper()
	id, err := fxCA.Issue(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// fastDetector is a millisecond-scale failure detector config for tests.
func fastDetector() failure.Config {
	return failure.Config{
		BaseInterval:       25 * time.Millisecond,
		MinInterval:        10 * time.Millisecond,
		MaxInterval:        200 * time.Millisecond,
		ResponseTimeout:    60 * time.Millisecond,
		SuspicionThreshold: 3,
		FailureThreshold:   2,
		SuccessesPerRelax:  1000,
	}
}

// testbed is a chain of brokers with trace managers, one TDN node, and
// a CA.
type testbed struct {
	t        *testing.T
	tr       *transport.Inproc
	node     *tdn.Node
	brokers  []*broker.Broker
	managers []*TraceBroker
	addrs    []string
}

// newTestbed builds n chained brokers (b0 - b1 - ... ) each running a
// TraceBroker and a token guard.
func newTestbed(t *testing.T, n int) *testbed {
	t.Helper()
	fixture(t)
	tb := &testbed{t: t, tr: transport.NewInproc()}
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	tb.node = node
	for i := 0; i < n; i++ {
		resolver := NewCachingResolver(NodeResolver(node))
		guard := NewGuard(GuardConfig{Resolver: resolver, Verifier: fxVerifier})
		b := broker.New(broker.Config{Name: fmt.Sprintf("b%d", i), Guard: guard.Admit, Log: obs.NewCallbackLogger(obs.LevelDebug, t.Logf)})
		l, err := tb.tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		b.Serve(l)
		brokerID := issue(t, ident.EntityID(fmt.Sprintf("broker-%d", i)))
		mgr, err := NewTraceBroker(BrokerConfig{
			Broker:        b,
			Identity:      brokerID,
			Guard:         guard,
			Detector:      fastDetector(),
			GaugeInterval: 50 * time.Millisecond,
			InterestTTL:   5 * time.Second,
			Log:           obs.NewCallbackLogger(obs.LevelDebug, t.Logf),
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		tb.brokers = append(tb.brokers, b)
		tb.managers = append(tb.managers, mgr)
		tb.addrs = append(tb.addrs, l.Addr())
		if i > 0 {
			if err := b.Link(tb.addrs[i-1], tb.tr, tb.addrs[i-1], backoff.Config{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		for _, m := range tb.managers {
			m.Close()
		}
		for _, b := range tb.brokers {
			b.Close()
		}
	})
	return tb
}

// startEntity brings up a traced entity on broker index bi.
func (tb *testbed) startEntity(name ident.EntityID, bi int, mut func(*EntityConfig)) (*TracedEntity, error) {
	id := issue(tb.t, name)
	cl, err := broker.Connect(tb.tr, tb.addrs[bi], name)
	if err != nil {
		return nil, err
	}
	cfg := EntityConfig{
		Identity:        id,
		Verifier:        fxVerifier,
		Registry:        tb.node,
		Client:          cl,
		AllowAnyTracker: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	return StartTracing(cfg)
}

// startTracker brings up a tracker on broker index bi.
func (tb *testbed) startTracker(name ident.EntityID, bi int) *Tracker {
	tb.t.Helper()
	id := issue(tb.t, name)
	cl, err := broker.Connect(tb.tr, tb.addrs[bi], name)
	if err != nil {
		tb.t.Fatal(err)
	}
	tk, err := NewTracker(TrackerConfig{
		Identity:  id,
		Verifier:  fxVerifier,
		Discovery: tb.node,
		Resolver:  NewCachingResolver(NodeResolver(tb.node)),
		Client:    cl,
	})
	if err != nil {
		tb.t.Fatal(err)
	}
	tb.t.Cleanup(func() { tk.Close() })
	return tk
}

// eventCollector gathers events safely across goroutines.
type eventCollector struct {
	mu     sync.Mutex
	events []Event
	ch     chan Event
}

func newCollector() *eventCollector {
	return &eventCollector{ch: make(chan Event, 256)}
}

func (c *eventCollector) handle(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
	select {
	case c.ch <- ev:
	default:
	}
}

// waitFor blocks until an event satisfying pred arrives.
func (c *eventCollector) waitFor(t *testing.T, what string, pred func(Event) bool) Event {
	t.Helper()
	// Check history first.
	c.mu.Lock()
	for _, ev := range c.events {
		if pred(ev) {
			c.mu.Unlock()
			return ev
		}
	}
	seen := len(c.events)
	c.mu.Unlock()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-c.ch:
			c.mu.Lock()
			for _, ev := range c.events[seen:] {
				if pred(ev) {
					c.mu.Unlock()
					return ev
				}
			}
			seen = len(c.events)
			c.mu.Unlock()
		case <-deadline:
			c.mu.Lock()
			var types []string
			for _, ev := range c.events {
				types = append(types, ev.Type.String())
			}
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %s; saw %v", what, types)
		}
	}
}

// eventsOfType filters collected events by type.
func (c *eventCollector) eventsOfType(tt message.Type) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, ev := range c.events {
		if ev.Type == tt {
			out = append(out, ev)
		}
	}
	return out
}

func typeIs(tt message.Type) func(Event) bool {
	return func(ev Event) bool { return ev.Type == tt }
}

func TestEndToEndTracing(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-a", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ent.TraceTopic().IsNil() {
		t.Fatal("entity has no trace topic")
	}
	if tb.managers[0].SessionCount() != 1 {
		t.Fatalf("SessionCount = %d", tb.managers[0].SessionCount())
	}

	tk := tb.startTracker("tracker-a", 0)
	ad, err := tk.Discover("svc-a")
	if err != nil {
		t.Fatal(err)
	}
	if ad.TopicID != ent.TraceTopic() {
		t.Fatal("discovered wrong topic")
	}
	col := newCollector()
	w, err := tk.Track(ad, topic.AllClasses(), col.handle)
	if err != nil {
		t.Fatal(err)
	}

	// JOIN was published at registration; change notifications are
	// always published, but JOIN happened before we subscribed. Instead
	// watch live classes: heartbeats, then a state transition.
	col.waitFor(t, "ALLS_WELL heartbeat", typeIs(message.TraceAllsWell))

	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	ev := col.waitFor(t, "READY state trace", typeIs(message.TraceReady))
	if ev.Entity != "svc-a" || ev.State == nil || ev.State.To != message.StateReady {
		t.Fatalf("READY event: %+v", ev)
	}

	// Load report.
	if err := ent.ReportLoad(sysinfo.Load{CPUPercent: 55, Workload: 0.5, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	lev := col.waitFor(t, "LOAD_INFORMATION", typeIs(message.TraceLoadInformation))
	if lev.Load == nil || lev.Load.CPUPercent != 55 {
		t.Fatalf("load event: %+v", lev)
	}

	// Network metrics appear after enough answered pings.
	col.waitFor(t, "NETWORK_METRICS", typeIs(message.TraceNetworkMetrics))

	// Graceful stop publishes SHUTDOWN.
	if err := ent.Stop(); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "SHUTDOWN trace", typeIs(message.TraceShutdown))
	if w.Rejected() != 0 {
		t.Fatalf("verifier rejected %d messages", w.Rejected())
	}
}

func TestFailureDetectionEmitsSuspicionThenFailed(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-fail", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk := tb.startTracker("tracker-f", 0)
	ad, err := tk.Discover("svc-fail")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.NewClassSet(topic.ClassChangeNotifications), col.handle); err != nil {
		t.Fatal(err)
	}
	// Kill the entity abruptly: close its broker connection without the
	// SHUTDOWN handshake.
	ent.cfg.Client.Close()

	sus := col.waitFor(t, "FAILURE_SUSPICION", typeIs(message.TraceFailureSuspicion))
	if sus.Entity != "svc-fail" {
		t.Fatalf("suspicion for %q", sus.Entity)
	}
	col.waitFor(t, "FAILED", typeIs(message.TraceFailed))
	// The session is torn down after FAILED.
	deadline := time.Now().Add(5 * time.Second)
	for tb.managers[0].SessionCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tb.managers[0].SessionCount(); got != 0 {
		t.Fatalf("SessionCount after failure = %d", got)
	}
}

func TestDisconnectTraceOnConnectionDrop(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-drop", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk := tb.startTracker("tracker-drop", 0)
	ad, err := tk.Discover("svc-drop")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.NewClassSet(topic.ClassChangeNotifications), col.handle); err != nil {
		t.Fatal(err)
	}
	// Abrupt connection drop: DISCONNECT arrives immediately, before
	// ping-based detection would fire.
	ent.Kill()
	ev := col.waitFor(t, "DISCONNECT", typeIs(message.TraceDisconnect))
	if ev.Entity != "svc-drop" {
		t.Fatalf("disconnect for %q", ev.Entity)
	}
	// Ping-based detection then confirms FAILED.
	col.waitFor(t, "FAILED after disconnect", typeIs(message.TraceFailed))
}

func TestGracefulStopEmitsNoDisconnect(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-bye", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk := tb.startTracker("tracker-bye", 0)
	ad, err := tk.Discover("svc-bye")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.NewClassSet(topic.ClassChangeNotifications, topic.ClassStateTransitions), col.handle); err != nil {
		t.Fatal(err)
	}
	// Confirm the broker has registered our interest before stopping, so
	// the SHUTDOWN state trace is not gated away (§3.5).
	go func() {
		for i := 0; i < 50; i++ {
			if len(col.eventsOfType(message.TraceReady)) > 0 {
				return
			}
			_ = ent.SetState(message.StateReady)
			time.Sleep(100 * time.Millisecond)
		}
	}()
	col.waitFor(t, "READY before stop", typeIs(message.TraceReady))
	if err := ent.Stop(); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "SHUTDOWN", typeIs(message.TraceShutdown))
	time.Sleep(100 * time.Millisecond)
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, ev := range col.events {
		if ev.Type == message.TraceDisconnect {
			t.Fatal("graceful shutdown produced a DISCONNECT trace")
		}
	}
}

func TestMultiHopTracing(t *testing.T) {
	tb := newTestbed(t, 3)
	ent, err := tb.startEntity("svc-far", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	// Tracker two hops away.
	tk := tb.startTracker("tracker-far", 2)
	ad, err := tk.Discover("svc-far")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "heartbeat across 3 brokers", typeIs(message.TraceAllsWell))
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "state trace across 3 brokers", typeIs(message.TraceReady))
}

func TestSecuredTraces(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-sec", 0, func(c *EntityConfig) { c.SecureTraces = true })
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-sec", 0)
	ad, err := tk.Discover("svc-sec")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	w, err := tk.Track(ad, topic.AllClasses(), col.handle)
	if err != nil {
		t.Fatal(err)
	}
	ev := col.waitFor(t, "encrypted heartbeat", typeIs(message.TraceAllsWell))
	if !ev.Encrypted {
		t.Fatal("secured session delivered plaintext trace")
	}
	if !w.HasTraceKey() {
		t.Fatal("trace key not delivered")
	}

	// An eavesdropper that somehow knows the topic UUID can subscribe to
	// the derivative topic but sees only ciphertext.
	eveCl, err := broker.Connect(tb.tr, tb.addrs[0], "eve")
	if err != nil {
		t.Fatal(err)
	}
	defer eveCl.Close()
	gotRaw := make(chan *message.Envelope, 16)
	if err := eveCl.Subscribe(topic.AllUpdates(ad.TopicID), func(e *message.Envelope) { gotRaw <- e }); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-gotRaw:
		if raw.Flags&message.FlagEncrypted == 0 {
			t.Fatal("eavesdropped trace is not encrypted")
		}
		if strings.Contains(string(raw.Payload), "ping") {
			t.Fatal("ciphertext leaks plaintext detail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("eavesdropper saw no traffic")
	}
}

func TestSymmetricChannelOptimization(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-sym", 0, func(c *EntityConfig) { c.SymmetricChannel = true })
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-sym", 0)
	ad, err := tk.Discover("svc-sym")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	// Heartbeats only flow if the broker accepts the entity's
	// authenticated-encrypted ping responses.
	col.waitFor(t, "heartbeat via symmetric channel", typeIs(message.TraceAllsWell))
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "state trace via symmetric channel", typeIs(message.TraceReady))
}

func TestDiscoveryAuthorization(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-private", 0, func(c *EntityConfig) {
		c.AllowAnyTracker = false
		c.AllowedTrackers = []string{"friend"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()

	friend := tb.startTracker("friend", 0)
	if _, err := friend.Discover("svc-private"); err != nil {
		t.Fatalf("authorized tracker failed discovery: %v", err)
	}
	stranger := tb.startTracker("stranger", 0)
	if _, err := stranger.Discover("svc-private"); err == nil {
		t.Fatal("unauthorized tracker discovered restricted topic")
	}
}

func TestSpuriousTraceInjectionDropped(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-dos", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-dos", 0)
	ad, err := tk.Discover("svc-dos")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	w, err := tk.Track(ad, topic.NewClassSet(topic.ClassChangeNotifications), col.handle)
	if err != nil {
		t.Fatal(err)
	}

	// A malicious broker peer injects a forged FAILED trace without a
	// valid token. It must be dropped by the guard (§5.2) and punished.
	mallory := broker.New(broker.Config{Name: "mallory"})
	defer mallory.Close()
	if err := mallory.Link(tb.addrs[0], tb.tr, tb.addrs[0], backoff.Config{}); err != nil {
		t.Fatal(err)
	}
	// Wait for the tracker's subscription to propagate to mallory so the
	// forged message is actually forwarded to b0.
	ctTopic := topic.ChangeNotifications(ad.TopicID)
	propDeadline := time.Now().Add(5 * time.Second)
	for !mallory.HasSubscription(ctTopic.String()) && time.Now().Before(propDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	forged := message.New(message.TraceFailed, ctTopic, "", []byte("forged"))
	before := tb.brokers[0].Snapshot().Violations
	if err := mallory.Publish(forged); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.brokers[0].Snapshot().Violations == before && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if tb.brokers[0].Snapshot().Violations == before {
		t.Fatal("forged trace did not register a violation")
	}
	// The tracker never sees a FAILED event.
	time.Sleep(50 * time.Millisecond)
	col.mu.Lock()
	for _, ev := range col.events {
		if ev.Type == message.TraceFailed {
			col.mu.Unlock()
			t.Fatal("forged FAILED trace reached the tracker")
		}
	}
	col.mu.Unlock()
	_ = w
}

func TestSilentModeStopsTraces(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-silent", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-silent", 0)
	ad, err := tk.Discover("svc-silent")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "heartbeat before silence", typeIs(message.TraceAllsWell))
	if err := ent.EnterSilentMode(); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "REVERTING_TO_SILENT_MODE", typeIs(message.TraceRevertingToSilentMode))
	// Traces stop: no new heartbeats should arrive after the notice.
	time.Sleep(150 * time.Millisecond)
	col.mu.Lock()
	idx := -1
	for i, ev := range col.events {
		if ev.Type == message.TraceRevertingToSilentMode {
			idx = i
		}
	}
	trailing := 0
	for _, ev := range col.events[idx+1:] {
		if ev.Type == message.TraceAllsWell {
			trailing++
		}
	}
	col.mu.Unlock()
	// Allow one in-flight heartbeat around the transition.
	if trailing > 1 {
		t.Fatalf("%d heartbeats after silent mode", trailing)
	}
	// Resume: JOIN and heartbeats return.
	if err := ent.Resume(); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "JOIN after resume", typeIs(message.TraceJoin))
}

func TestInterestGating(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-gate", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-gate", 0)
	ad, err := tk.Discover("svc-gate")
	if err != nil {
		t.Fatal(err)
	}
	// Interested only in change notifications: heartbeats must not even
	// be published (the broker has no AllUpdates interest).
	col := newCollector()
	if _, err := tk.Track(ad, topic.NewClassSet(topic.ClassChangeNotifications), col.handle); err != nil {
		t.Fatal(err)
	}
	// Subscribe a raw client to the AllUpdates topic to observe whether
	// the broker publishes heartbeats at all.
	rawCl, err := broker.Connect(tb.tr, tb.addrs[0], "observer")
	if err != nil {
		t.Fatal(err)
	}
	defer rawCl.Close()
	raw := make(chan *message.Envelope, 16)
	if err := rawCl.Subscribe(topic.AllUpdates(ad.TopicID), func(e *message.Envelope) { raw <- e }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-raw:
		t.Fatal("broker published ALLS_WELL with no interested tracker")
	case <-time.After(300 * time.Millisecond):
	}

	// A second tracker interested in AllUpdates turns heartbeats on.
	tk2 := tb.startTracker("tracker-gate2", 0)
	col2 := newCollector()
	if _, err := tk2.Track(ad, topic.NewClassSet(topic.ClassAllUpdates), col2.handle); err != nil {
		t.Fatal(err)
	}
	col2.waitFor(t, "heartbeat after interest", typeIs(message.TraceAllsWell))
}

func TestReRegistrationReplacesSession(t *testing.T) {
	tb := newTestbed(t, 1)
	ent1, err := tb.startEntity("svc-re", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := ent1.SessionID()
	// Second registration for the same entity (e.g. after restart).
	ent2, err := tb.startEntity("svc-re", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent2.Stop()
	if ent2.SessionID() == first {
		t.Fatal("re-registration reused session ID")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.managers[0].SessionCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tb.managers[0].SessionCount(); got != 1 {
		t.Fatalf("SessionCount after re-registration = %d", got)
	}
}

// TestTokenRenewalKeepsTracesFlowing uses a token validity short enough
// that several renewals happen during the test; heartbeats keep
// verifying throughout, proving the §4.3 re-delegation path works.
func TestTokenRenewalKeepsTracesFlowing(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-renew", 0, func(c *EntityConfig) {
		c.TokenValidity = 400 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-renew", 0)
	ad, err := tk.Discover("svc-renew")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	w, err := tk.Track(ad, topic.NewClassSet(topic.ClassAllUpdates), col.handle)
	if err != nil {
		t.Fatal(err)
	}
	// Run past 3+ token lifetimes.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	// Heartbeats must still arrive with fresh tokens.
	before := w.Delivered()
	col.waitFor(t, "heartbeat after several token lifetimes", func(ev Event) bool {
		return ev.Type == message.TraceAllsWell && w.Delivered() > before
	})
	if w.Rejected() != 0 {
		t.Fatalf("%d traces rejected during renewal window", w.Rejected())
	}
}

func TestRotateTopic(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-rotate", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	oldTopic := ent.TraceTopic()
	oldSession := ent.SessionID()

	tk := tb.startTracker("tracker-rot", 0)
	ad, err := tk.Discover("svc-rotate")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	if _, err := tk.Track(ad, topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "heartbeat before rotation", typeIs(message.TraceAllsWell))

	// §5.2: the compromised topic is abandoned for a fresh one.
	newTopic, err := ent.RotateTopic()
	if err != nil {
		t.Fatal(err)
	}
	if newTopic == oldTopic {
		t.Fatal("rotation reused the old topic")
	}
	if ent.SessionID() == oldSession {
		t.Fatal("rotation reused the old session")
	}
	if tb.managers[0].SessionCount() != 1 {
		t.Fatalf("SessionCount after rotation = %d", tb.managers[0].SessionCount())
	}

	// Track the new topic and confirm live traces flow there. Interest
	// registration is asynchronous, so re-issue the transition until the
	// trace arrives (the broker legitimately gates state traces on
	// interest, §3.5).
	col2 := newCollector()
	if _, err := tk.Track(ent.Advertisement(), topic.AllClasses(), col2.handle); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 50; i++ {
			if len(col2.eventsOfType(message.TraceReady)) > 0 {
				return
			}
			_ = ent.SetState(message.StateReady)
			time.Sleep(100 * time.Millisecond)
		}
	}()
	ev := col2.waitFor(t, "state trace on rotated topic", typeIs(message.TraceReady))
	if ev.TraceTopic != newTopic {
		t.Fatalf("trace arrived on topic %v, want %v", ev.TraceTopic, newTopic)
	}

	// The old topic is dead: no further heartbeats on it.
	before := len(col.eventsOfType(message.TraceAllsWell))
	time.Sleep(150 * time.Millisecond)
	after := len(col.eventsOfType(message.TraceAllsWell))
	if after > before+1 { // tolerate one in-flight heartbeat
		t.Fatalf("old topic still producing heartbeats: %d -> %d", before, after)
	}
}

func TestRegistrationRejectsForeignCredential(t *testing.T) {
	tb := newTestbed(t, 1)
	foreignCA, err := credential.NewAuthority("foreign-core", credential.WithKeyBits(secure.PaperRSABits))
	if err != nil {
		t.Fatal(err)
	}
	foreignID, err := foreignCA.Issue("impostor")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := broker.Connect(tb.tr, tb.addrs[0], "impostor")
	if err != nil {
		t.Fatal(err)
	}
	_, err = StartTracing(EntityConfig{
		Identity:        foreignID,
		Verifier:        fxVerifier,
		Registry:        tb.node,
		Client:          cl,
		AllowAnyTracker: true,
		RegisterTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("foreign credential registered")
	}
}

func TestVerifyTraceRejections(t *testing.T) {
	fixture(t)
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	owner := issue(t, "vt-owner")
	signer, _ := owner.Signer(secure.SHA1)
	req := &tdn.CreateRequest{
		Owner:      "vt-owner",
		OwnerCert:  owner.Credential.Cert,
		Descriptor: "Availability/Traces/vt-owner",
		AllowAny:   true,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(signer); err != nil {
		t.Fatal(err)
	}
	ad, err := node.CreateTopic(req)
	if err != nil {
		t.Fatal(err)
	}
	resolver := NewCachingResolver(NodeResolver(node))
	now := time.Now()

	del, err := token.Grant("vt-owner", ad.TopicID, token.RightPublish, time.Hour, now, signer, secure.PaperRSABits)
	if err != nil {
		t.Fatal(err)
	}
	delegate, _ := secure.NewSigner(del.PrivateKey, traceSigHash)

	goodEnv := func() *message.Envelope {
		te := &message.TraceEvent{Entity: "vt-owner", TraceTopic: ad.TopicID, Detail: "ok"}
		env := message.New(message.TraceAllsWell, topic.AllUpdates(ad.TopicID), "", te.Marshal())
		env.Token = del.Token.Marshal()
		if err := env.Sign(delegate); err != nil {
			t.Fatal(err)
		}
		return env
	}

	if err := VerifyTrace(goodEnv(), ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	// Missing token.
	env := goodEnv()
	env.Token = nil
	if err := VerifyTrace(env, ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); err == nil {
		t.Fatal("token-less trace verified")
	}
	// Tampered payload (delegate signature breaks).
	env = goodEnv()
	env.Payload = append(env.Payload, 'x')
	if err := VerifyTrace(env, ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); err == nil {
		t.Fatal("tampered trace verified")
	}
	// Token for a different topic.
	otherDel, _ := token.Grant("vt-owner", ident.NewUUID(), token.RightPublish, time.Hour, now, signer, secure.PaperRSABits)
	env = goodEnv()
	env.Token = otherDel.Token.Marshal()
	if err := VerifyTrace(env, ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); err == nil {
		t.Fatal("cross-topic token verified")
	}
	// Expired token.
	shortDel, _ := token.Grant("vt-owner", ad.TopicID, token.RightPublish, time.Millisecond, now.Add(-time.Hour), signer, secure.PaperRSABits)
	shortDelegate, _ := secure.NewSigner(shortDel.PrivateKey, traceSigHash)
	env = goodEnv()
	env.Token = shortDel.Token.Marshal()
	if err := env.Sign(shortDelegate); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTrace(env, ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); !errors.Is(err, token.ErrExpired) {
		t.Fatalf("expired token: %v", err)
	}
	// Token signed by a non-owner.
	intruder := issue(t, "vt-intruder")
	intruderSigner, _ := intruder.Signer(secure.SHA1)
	forgedDel, _ := token.Grant("vt-owner", ad.TopicID, token.RightPublish, time.Hour, now, intruderSigner, secure.PaperRSABits)
	forgedDelegate, _ := secure.NewSigner(forgedDel.PrivateKey, traceSigHash)
	env = goodEnv()
	env.Token = forgedDel.Token.Marshal()
	if err := env.Sign(forgedDelegate); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTrace(env, ad.TopicID, resolver, fxVerifier, now, token.DefaultClockSkew); err == nil {
		t.Fatal("token signed by non-owner verified")
	}
	// Unknown topic.
	if err := VerifyTrace(goodEnv(), ad.TopicID, NewCachingResolver(ResolverFunc(
		func(ident.UUID) (*tdn.Advertisement, error) { return nil, ErrUnknownTopic },
	)), fxVerifier, now, token.DefaultClockSkew); !errors.Is(err, ErrUnknownTopic) {
		t.Fatal("unknown-topic trace verified")
	}
}

func TestTokenGuardPassesNonTraceTopics(t *testing.T) {
	fixture(t)
	guard := NewGuard(GuardConfig{Resolver: NewCachingResolver(ResolverFunc(
		func(ident.UUID) (*tdn.Advertisement, error) { return nil, ErrUnknownTopic },
	)), Verifier: fxVerifier}).Admit
	env := message.New(message.TypeData, topic.MustParse("/ordinary/topic"), "someone", []byte("x"))
	if err := guard(env, topic.EntityPrincipal("someone"), time.Now(), false); err != nil {
		t.Fatalf("guard blocked ordinary topic: %v", err)
	}
	// Session topics are not derivative trace topics either.
	sess := topic.EntityToBrokerSession(ident.NewUUID(), ident.NewSessionID())
	env2 := message.New(message.TypePingResponse, sess, "someone", nil)
	if err := guard(env2, topic.EntityPrincipal("someone"), time.Now(), false); err != nil {
		t.Fatalf("guard blocked session topic: %v", err)
	}
	// But a derivative trace topic without a token is blocked.
	env3 := message.New(message.TraceAllsWell, topic.AllUpdates(ident.NewUUID()), "", nil)
	if err := guard(env3, topic.BrokerPrincipal(), time.Now(), false); err == nil {
		t.Fatal("guard passed token-less trace")
	}
}

// BenchmarkGuardPassthrough measures the guard's cost on non-trace
// topics (ordinary pub/sub traffic): it must be near zero.
func BenchmarkGuardPassthrough(b *testing.B) {
	f := newCacheFixture(b, "bench-owner", time.Hour, time.Now())
	guard := NewGuard(GuardConfig{Resolver: f.resolver, Verifier: fxVerifier}).Admit
	env := message.New(message.TypeData, topic.MustParse("/ordinary/application/topic"), "app", make([]byte, 256))
	p := topic.EntityPrincipal("app")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard(env, p, time.Now(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTrackerValidation(t *testing.T) {
	fixture(t)
	if _, err := NewTracker(TrackerConfig{}); err == nil {
		t.Fatal("empty tracker config accepted")
	}
	if _, err := StartTracing(EntityConfig{}); err == nil {
		t.Fatal("empty entity config accepted")
	}
	if _, err := NewTraceBroker(BrokerConfig{}); err == nil {
		t.Fatal("empty broker config accepted")
	}
}

func TestCachingResolver(t *testing.T) {
	fixture(t)
	calls := 0
	inner := ResolverFunc(func(id ident.UUID) (*tdn.Advertisement, error) {
		calls++
		return &tdn.Advertisement{TopicID: id}, nil
	})
	cr := NewCachingResolver(inner)
	id := ident.NewUUID()
	if _, err := cr.ResolveAd(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.ResolveAd(id); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("inner resolver called %d times", calls)
	}
	// Put primes without touching inner.
	other := &tdn.Advertisement{TopicID: ident.NewUUID()}
	cr.Put(other)
	got, err := cr.ResolveAd(other.TopicID)
	if err != nil || got != other {
		t.Fatalf("primed ad not returned: %v %v", got, err)
	}
	if calls != 1 {
		t.Fatal("Put leaked to inner resolver")
	}
}

// TestAccessorsAndLoadLoop exercises the small accessors and the
// periodic load loop.
func TestAccessorsAndLoadLoop(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-acc", 0, func(c *EntityConfig) {
		c.SecureTraces = true
		c.LoadProvider = sysinfo.Fixed{L: sysinfo.Load{CPUPercent: 33, Workload: 0.33}}
		c.LoadInterval = 30 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	if ent.Entity() != "svc-acc" {
		t.Fatalf("Entity() = %q", ent.Entity())
	}
	if ent.State() != message.StateInitializing {
		t.Fatalf("State() = %v", ent.State())
	}
	if ent.TraceKey() == nil {
		t.Fatal("secured entity has no trace key accessor value")
	}

	tk := tb.startTracker("tracker-acc", 0)
	if tk.Entity() != "tracker-acc" {
		t.Fatalf("tracker Entity() = %q", tk.Entity())
	}
	ad, err := tk.Discover("svc-acc")
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	w, err := tk.Track(ad, topic.NewClassSet(topic.ClassLoad), col.handle)
	if err != nil {
		t.Fatal(err)
	}
	if w.Entity() != "svc-acc" || w.TraceTopic() != ad.TopicID {
		t.Fatal("watch accessors wrong")
	}
	// The load loop publishes without explicit ReportLoad calls.
	ev := col.waitFor(t, "periodic LOAD_INFORMATION", typeIs(message.TraceLoadInformation))
	if ev.Load == nil || ev.Load.CPUPercent != 33 {
		t.Fatalf("load event: %+v", ev)
	}
	if !ev.Encrypted {
		t.Fatal("secured load trace was not encrypted")
	}
	if core := StateForRound(0); core != message.StateReady {
		t.Fatalf("StateForRound(0) = %v", core)
	}
	if StateForRound(1) != message.StateRecovering {
		t.Fatal("StateForRound(1) wrong")
	}
	if (Event{Type: message.TraceJoin, Entity: "e", Detail: "d"}).String() == "" {
		t.Fatal("empty event string")
	}
}

// TestTDNResolverOverRPC exercises the TDN-client-backed resolver that
// intermediate brokers use.
func TestTDNResolverOverRPC(t *testing.T) {
	fixture(t)
	tr := transport.NewInproc()
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	srv := tdn.NewServer(node)
	l, _ := tr.Listen("resolver-tdn")
	srv.Serve(l)
	defer srv.Close()

	owner := issue(t, "rpc-owner")
	signer, _ := owner.Signer(secure.SHA1)
	req := &tdn.CreateRequest{
		Owner:      "rpc-owner",
		OwnerCert:  owner.Credential.Cert,
		Descriptor: "Availability/Traces/rpc-owner",
		AllowAny:   true,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(signer); err != nil {
		t.Fatal(err)
	}
	ad, err := node.CreateTopic(req)
	if err != nil {
		t.Fatal(err)
	}
	client, err := tdn.NewClient(tr, "resolver-tdn")
	if err != nil {
		t.Fatal(err)
	}
	resolver := TDNResolver(client)
	got, err := resolver.ResolveAd(ad.TopicID)
	if err != nil {
		t.Fatal(err)
	}
	if got.TopicID != ad.TopicID {
		t.Fatal("resolver returned wrong ad")
	}
	if _, err := resolver.ResolveAd(ident.NewUUID()); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic: %v", err)
	}
}

// TestTrackEntityConvenience covers the discover+track one-shot.
func TestTrackEntityConvenience(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-conv", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-conv", 0)
	col := newCollector()
	w, err := tk.TrackEntity("svc-conv", topic.NewClassSet(topic.ClassAllUpdates), col.handle)
	if err != nil {
		t.Fatal(err)
	}
	if w.TraceTopic() != ent.TraceTopic() {
		t.Fatal("TrackEntity resolved wrong topic")
	}
	col.waitFor(t, "heartbeat via TrackEntity", typeIs(message.TraceAllsWell))
	// Double-tracking the same topic is rejected.
	if _, err := tk.TrackEntity("svc-conv", topic.AllClasses(), col.handle); err == nil {
		t.Fatal("duplicate TrackEntity succeeded")
	}
	// Unknown entity fails discovery.
	if _, err := tk.TrackEntity("no-such-entity", topic.AllClasses(), col.handle); err == nil {
		t.Fatal("TrackEntity discovered nonexistent entity")
	}
}

// TestTrackerRejectPaths drives the watch verification failure branches
// directly: forged gauge probes, forged key deliveries and malformed
// trace payloads must be counted as rejections and never reach the
// handler.
func TestTrackerRejectPaths(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-rej", 0, func(c *EntityConfig) { c.SecureTraces = true })
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-rej", 0)
	col := newCollector()
	w, err := tk.TrackEntity("svc-rej", topic.NewClassSet(topic.ClassStateTransitions), col.handle)
	if err != nil {
		t.Fatal(err)
	}

	before := w.Rejected()
	// Token-less probe.
	forgedProbe := message.New(message.TraceGaugeInterest, topic.GaugeInterest(w.TraceTopic()), "", nil)
	w.handleGaugeInterest(forgedProbe)
	// Token-less key delivery.
	forgedKey := message.New(message.TypeKeyDelivery, topic.MustParse("/any"), "", []byte("junk"))
	w.handleKeyDelivery(forgedKey)
	// Token-less trace.
	forgedTrace := message.New(message.TraceFailed, topic.ChangeNotifications(w.TraceTopic()), "", nil)
	w.handleTrace(topic.ClassChangeNotifications, forgedTrace)
	if got := w.Rejected(); got != before+3 {
		t.Fatalf("Rejected = %d, want %d", got, before+3)
	}
	if len(col.eventsOfType(message.TraceFailed)) != 0 {
		t.Fatal("forged trace reached the handler")
	}

	// Wrong-type frames on the special topics are ignored, not counted.
	w.handleGaugeInterest(message.New(message.TypeData, topic.GaugeInterest(w.TraceTopic()), "", nil))
	w.handleKeyDelivery(message.New(message.TypeData, topic.MustParse("/any"), "", nil))
	if got := w.Rejected(); got != before+3 {
		t.Fatalf("wrong-type frames counted as rejections: %d", got)
	}
}

// TestInterestExpiryRevertsToSilence verifies the §3.5 bookkeeping at
// the broker: once a tracker's interest registration ages past the TTL
// without renewal, gated trace classes stop being published.
func TestInterestExpiryRevertsToSilence(t *testing.T) {
	fixture(t)
	tb := &testbed{t: t, tr: transport.NewInproc()}
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	tb.node = node
	resolver := NewCachingResolver(NodeResolver(node))
	guard := NewGuard(GuardConfig{Resolver: resolver, Verifier: fxVerifier})
	b := broker.New(broker.Config{Name: "exp0", Guard: guard.Admit})
	l, err := tb.tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(l)
	brokerID := issue(t, "broker-exp")
	mgr, err := NewTraceBroker(BrokerConfig{
		Broker:        b,
		Identity:      brokerID,
		Guard:         guard,
		Detector:      fastDetector(),
		GaugeInterval: 40 * time.Millisecond,
		InterestTTL:   120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	tb.brokers = append(tb.brokers, b)
	tb.managers = append(tb.managers, mgr)
	tb.addrs = append(tb.addrs, l.Addr())
	t.Cleanup(func() { mgr.Close(); b.Close() })

	ent, err := tb.startEntity("svc-expiry", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	tk := tb.startTracker("tracker-expiry", 0)
	col := newCollector()
	w, err := tk.TrackEntity("svc-expiry", topic.NewClassSet(topic.ClassAllUpdates), col.handle)
	if err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "heartbeat while interested", typeIs(message.TraceAllsWell))

	// Withdraw: the watch stops answering probes; interest ages out.
	w.Stop()
	time.Sleep(300 * time.Millisecond) // > InterestTTL + gauge period

	// Observe raw publications on the AllUpdates topic.
	obs, err := broker.Connect(tb.tr, tb.addrs[0], "observer-expiry")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	raw := make(chan *message.Envelope, 16)
	if err := obs.Subscribe(topic.AllUpdates(ent.TraceTopic()), func(e *message.Envelope) { raw <- e }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-raw:
		t.Fatal("heartbeats still published after interest expiry")
	case <-time.After(300 * time.Millisecond):
	}
}

// TestSoakManyEntitiesAndTrackers runs a small fleet for a few seconds:
// every trace must verify (zero rejections), sessions stay up, and the
// broker records no violations — a regression net for slow leaks and
// protocol drift under sustained load.
func TestSoakManyEntitiesAndTrackers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in short mode")
	}
	tb := newTestbed(t, 2)
	const fleet = 6
	watches := make([]*Watch, 0, fleet)
	entities := make([]*TracedEntity, 0, fleet)
	for i := 0; i < fleet; i++ {
		name := ident.EntityID(fmt.Sprintf("soak-svc-%d", i))
		ent, err := tb.startEntity(name, i%2, func(c *EntityConfig) {
			c.SecureTraces = i%2 == 0
			c.SymmetricChannel = i%3 == 0
		})
		if err != nil {
			t.Fatal(err)
		}
		entities = append(entities, ent)
		tk := tb.startTracker(ident.EntityID(fmt.Sprintf("soak-tracker-%d", i)), (i+1)%2)
		w, err := tk.TrackEntity(name, topic.AllClasses(), func(Event) {})
		if err != nil {
			t.Fatal(err)
		}
		watches = append(watches, w)
	}
	deadline := time.Now().Add(3 * time.Second)
	i := 0
	for time.Now().Before(deadline) {
		ent := entities[i%fleet]
		_ = ent.SetState(StateForRound(i))
		_ = ent.ReportLoad(sysinfo.Load{CPUPercent: float64(i % 100), At: time.Now()})
		i++
		time.Sleep(20 * time.Millisecond)
	}
	if got := tb.managers[0].SessionCount() + tb.managers[1].SessionCount(); got != fleet {
		t.Fatalf("sessions = %d, want %d", got, fleet)
	}
	var delivered, rejected uint64
	for _, w := range watches {
		delivered += w.Delivered()
		rejected += w.Rejected()
	}
	if delivered == 0 {
		t.Fatal("soak delivered nothing")
	}
	if rejected != 0 {
		t.Fatalf("soak rejected %d traces", rejected)
	}
	for _, b := range tb.brokers {
		if v := b.Snapshot().Violations; v != 0 {
			t.Fatalf("broker recorded %d violations", v)
		}
	}
	for _, ent := range entities {
		if err := ent.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceBrokerResolverAccessor(t *testing.T) {
	tb := newTestbed(t, 1)
	if tb.managers[0].Resolver() == nil {
		t.Fatal("Resolver() returned nil")
	}
	// The manager validates tokens with its guard's resolver.
	resolver := NewCachingResolver(ResolverFunc(func(ident.UUID) (*tdn.Advertisement, error) {
		return nil, ErrUnknownTopic
	}))
	id := issue(t, "resolver-broker")
	mgr, err := NewTraceBroker(BrokerConfig{
		Broker:   tb.brokers[0],
		Identity: id,
		Guard:    NewGuard(GuardConfig{Resolver: resolver, Verifier: fxVerifier}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Resolver() != AdResolver(resolver) {
		t.Fatal("Resolver() is not the guard's resolver")
	}
	if _, err := mgr.Resolver().ResolveAd(ident.NewUUID()); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("guard's resolver resolved unknown topic: %v", err)
	}
	// Without a guard there is nothing to verify with: refused.
	if _, err := NewTraceBroker(BrokerConfig{Broker: tb.brokers[0], Identity: id}); err == nil {
		t.Fatal("manager without a guard accepted")
	}
}
