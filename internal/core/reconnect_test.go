package core

import (
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
)

// fastReconnect is a millisecond-scale backoff for reconnect tests.
func fastReconnect() backoff.Config {
	return backoff.Config{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 7}
}

// redialer returns a Redial closure dialing broker bi as name.
func (tb *testbed) redialer(name ident.EntityID, bi int) func() (*broker.Client, error) {
	addr := tb.addrs[bi]
	return func() (*broker.Client, error) {
		return broker.Connect(tb.tr, addr, name)
	}
}

// waitDelta polls c until it has moved at least once past base, failing
// after 5 s. The reconnect loop counts a success only once resume has
// returned, and the first post-resume trace can arrive before that.
func waitDelta(t *testing.T, name string, c *obs.Counter, base uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value()-base < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%s delta = %d", name, c.Value()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEntityReconnectResumesSession severs a traced entity's broker
// connection mid-session. With Redial configured the entity must dial a
// replacement under backoff, re-register its existing advertisement,
// re-run the key/delegation handshake and carry on publishing state
// traces that the (undisturbed) tracker still receives.
func TestEntityReconnectResumesSession(t *testing.T) {
	tb := newTestbed(t, 1)
	ok0, resumes0 := mReconnOKEntity.Value(), mSessionResumes.Value()

	ent, err := tb.startEntity("svc-reconnect", 0, func(cfg *EntityConfig) {
		cfg.Redial = tb.redialer("svc-reconnect", 0)
		cfg.ReconnectBackoff = fastReconnect()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()
	oldSession := ent.SessionID()

	tk := tb.startTracker("tracker-reconnect", 0)
	col := newCollector()
	if _, err := tk.Track(ent.Advertisement(), topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	// Heartbeats prove the broker knows the tracker's interest; only then
	// are constrained state traces guaranteed to route.
	col.waitFor(t, "heartbeat", typeIs(message.TraceAllsWell))
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "pre-failure READY trace", typeIs(message.TraceReady))

	// Sever the connection out from under the entity, as a crashed broker
	// link would. The reconnect loop observes Done() and takes over.
	_ = ent.client().Close()

	// Publishing fails while down; keep nudging until a post-resume state
	// trace makes it through the fresh session.
	deadline := time.After(10 * time.Second)
	for len(col.eventsOfType(message.TraceRecovering)) == 0 {
		_ = ent.SetState(message.StateRecovering)
		select {
		case <-deadline:
			t.Fatal("no RECOVERING trace after reconnect")
		case <-time.After(20 * time.Millisecond):
		}
	}

	if got := ent.SessionID(); got == oldSession {
		t.Fatal("session ID unchanged: resume did not re-register")
	}
	waitDelta(t, "core_reconnects_total{role=entity}", mReconnOKEntity, ok0)
	waitDelta(t, "core_session_resumes_total", mSessionResumes, resumes0)
}

// TestTrackerReconnectRestoresWatches severs the tracker's broker
// connection. With Redial configured the tracker must re-subscribe every
// watch topic on the replacement client and re-announce interest, so
// state traces resume flowing without re-tracking.
func TestTrackerReconnectRestoresWatches(t *testing.T) {
	tb := newTestbed(t, 1)
	ok0 := mReconnOKTracker.Value()

	ent, err := tb.startEntity("svc-steady", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()

	id := issue(t, "tracker-comeback")
	cl, err := broker.Connect(tb.tr, tb.addrs[0], "tracker-comeback")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTracker(TrackerConfig{
		Identity:         id,
		Verifier:         fxVerifier,
		Discovery:        tb.node,
		Resolver:         NewCachingResolver(NodeResolver(tb.node)),
		Client:           cl,
		Redial:           tb.redialer("tracker-comeback", 0),
		ReconnectBackoff: fastReconnect(),
		Log:              testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Close()

	col := newCollector()
	if _, err := tk.Track(ent.Advertisement(), topic.AllClasses(), col.handle); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "heartbeat", typeIs(message.TraceAllsWell))
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "pre-failure READY trace", typeIs(message.TraceReady))

	// Drop the tracker's connection: the broker forgets its subscriptions,
	// so only a successful resubscribe can deliver further traces.
	_ = tk.client().Close()

	deadline := time.After(10 * time.Second)
	for len(col.eventsOfType(message.TraceRecovering)) == 0 {
		_ = ent.SetState(message.StateRecovering)
		select {
		case <-deadline:
			t.Fatal("no RECOVERING trace after tracker reconnect")
		case <-time.After(20 * time.Millisecond):
		}
	}
	waitDelta(t, "core_reconnects_total{role=tracker}", mReconnOKTracker, ok0)
}

// TestEvictedReconnectBacksOffThenRecovers evicts a connected entity via
// an administrative ban: the reconnect loop must recognize the typed
// eviction (on the dropped connection and on each quarantine-refused
// redial) and advance its backoff schedule extra steps instead of
// hot-looping, then resume normally once the quarantine lapses.
func TestEvictedReconnectBacksOffThenRecovers(t *testing.T) {
	tb := newTestbed(t, 1)
	penalties0, ok0 := mEvictedBackoffs.Value(), mReconnOKEntity.Value()

	ent, err := tb.startEntity("svc-banished", 0, func(cfg *EntityConfig) {
		cfg.Redial = tb.redialer("svc-banished", 0)
		cfg.ReconnectBackoff = fastReconnect()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ent.Stop()

	tb.brokers[0].Banish("svc-banished", 600*time.Millisecond)
	select {
	case <-ent.client().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("banished entity's connection not dropped")
	}
	// The eviction itself plus at least one quarantine-refused redial
	// must each have advanced the backoff an extra step.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && mEvictedBackoffs.Value()-penalties0 < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if d := mEvictedBackoffs.Value() - penalties0; d < 2 {
		t.Fatalf("core_evicted_backoffs_total delta = %d, want >= 2", d)
	}

	// Once the quarantine lapses the ordinary reconnect machinery brings
	// the session back without intervention.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && mReconnOKEntity.Value()-ok0 < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if d := mReconnOKEntity.Value() - ok0; d < 1 {
		t.Fatalf("entity never resumed after quarantine lapsed (reconnects delta = %d)", d)
	}
}

// TestReconnectLoopStopsCleanly ensures Stop/Close tear down the
// reconnect goroutines without hanging, both mid-session and while a
// redial cycle is in flight.
func TestReconnectLoopStopsCleanly(t *testing.T) {
	tb := newTestbed(t, 1)
	ent, err := tb.startEntity("svc-brief", 0, func(cfg *EntityConfig) {
		cfg.Redial = tb.redialer("svc-brief", 0)
		cfg.ReconnectBackoff = fastReconnect()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sever so the loop enters its redial cycle, then stop underneath it.
	_ = ent.client().Close()
	time.Sleep(25 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		_ = ent.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung with reconnect loop active")
	}
}
