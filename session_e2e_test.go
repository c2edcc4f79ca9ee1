// Session-key chaos scenario: the §6.3 amortized session path must
// survive a mid-stream broker restart. A restart wipes the broker's
// installed session keys, so every session-tagged trace arriving
// afterwards is unverifiable until the SESSION_KEY_REQUEST/RESPONSE
// renegotiation completes — the invariants are that no stale tag is
// ever accepted in the meantime, renegotiation happens without operator
// help, and the tracker's availability view of the entity never shows a
// gap (the RSA-signed state/detector traces keep flowing throughout).
package entitytrace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/core"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/sysinfo"
	"entitytrace/internal/topic"
)

// waitSession polls cond until it holds, naming the awaited condition
// on timeout.
func waitSession(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosSessionRenegotiationAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	sessionHits := obs.Default.Counter("session_verify_hits_total")
	sessionUnknown := obs.Default.Counter("session_verify_unknown_total")
	keyRequests := obs.Default.Counter("session_key_requests_total")

	// Capture availability alerts: a transition away from Up during the
	// session outage is the gap this scenario forbids.
	var alertMu sync.Mutex
	var badAlerts []avail.Event
	onEvent := func(ev avail.Event) {
		if ev.Type == "transition" && ev.New != avail.Up {
			alertMu.Lock()
			badAlerts = append(badAlerts, ev)
			alertMu.Unlock()
		}
	}

	tb, inj := chaosHarness(t, 29, harness.Options{
		Brokers:         2,
		SessionKeys:     true,
		Detector:        tolerantDetector(),
		Reconnect:       true,
		PersistentLinks: true,
		Avail:           avail.Config{OnEvent: onEvent},
	})
	ent, err := tb.StartEntity("sess-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("sess-tracker", 1, "sess-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// Settle the session path end to end: the relay broker and the
	// tracker must both have negotiated keys, and a session-verified
	// heartbeat must have been delivered.
	hits0 := sessionHits.Value()
	waitHeartbeat := func(what string, deadline time.Duration) {
		t.Helper()
		limit := time.After(deadline)
		for {
			select {
			case ev := <-h.Events:
				log.add(ev)
				if ev.Type == message.TraceAllsWell {
					return
				}
			case <-limit:
				t.Fatalf("no heartbeat %s within %v", what, deadline)
			}
		}
	}
	waitSession(t, "relay broker negotiates a session key", func() bool {
		return tb.Nodes[1].Manager.Sessions().Len() > 0
	})
	waitSession(t, "tracker negotiates a session key", func() bool {
		return h.Tracker.Sessions().Len() > 0
	})
	waitHeartbeat("before restart", 15*time.Second)
	waitSession(t, "session-tag verifications", func() bool {
		return sessionHits.Value() > hits0
	})

	// "Restart" the relay broker mid-stream: every connection through it
	// drops and its session store empties — exactly the state a process
	// restart loses. The tracker's store is wiped too (its process also
	// restarted in this scenario).
	unknown0 := sessionUnknown.Value()
	requests0 := keyRequests.Value()
	tb.Nodes[1].Manager.Sessions().InvalidateAll()
	h.Tracker.Sessions().InvalidateAll()
	if n := inj.Flap(); n == 0 {
		t.Fatal("flap closed no connections")
	}

	// RSA-signed state traces must keep flowing across the restart: the
	// availability story never depended on session keys.
	driveState(t, ent, h, message.StateRecovering, log, 30*time.Second)
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	// Renegotiation must complete unattended and session-tagged
	// heartbeats must resume.
	waitSession(t, "relay broker renegotiates", func() bool {
		return tb.Nodes[1].Manager.Sessions().Len() > 0
	})
	waitSession(t, "tracker renegotiates", func() bool {
		return h.Tracker.Sessions().Len() > 0
	})
	waitHeartbeat("after restart", 30*time.Second)

	// The wiped stores must have refused the stale tags (unknown-session
	// drops) and asked for fresh keys — never accepted them silently.
	if d := sessionUnknown.Value() - unknown0; d < 1 {
		t.Fatalf("session_verify_unknown_total delta = %d; stale tags were never challenged", d)
	}
	if d := keyRequests.Value() - requests0; d < 1 {
		t.Fatalf("session_key_requests_total delta = %d; nobody renegotiated", d)
	}

	// No availability gap: the entity stayed Up in the tracker's view
	// through the whole restart.
	drainInto(h, log, 200*time.Millisecond)
	if st, ok := h.Avail.State("sess-entity"); !ok || st != avail.Up {
		t.Fatalf("availability state after restart = %v (ok=%v), want Up", st, ok)
	}
	alertMu.Lock()
	defer alertMu.Unlock()
	if len(badAlerts) != 0 {
		t.Fatalf("availability gap during session outage: %+v", badAlerts)
	}
}

// TestSessionKeyPrefetchOnSubscribe: a relay broker fetches a trace
// topic's session key when a subscription to a session-tagged class of
// it first reaches the relay, so by the time the tracker's interest has
// turned the hosting broker's publisher to session tags, every verifier
// on the route holds the key and the first tagged traces are delivered
// instead of dropped as unknown-session. The chain case routes
// host -> relay -> tracker's broker; the fabric case routes
// ingress (host) -> shard owner -> tracker's broker.
func TestSessionKeyPrefetchOnSubscribe(t *testing.T) {
	if testing.Short() {
		t.Skip("session e2e skipped in short mode")
	}
	t.Run("chain3", func(t *testing.T) {
		tb, err := harness.New(harness.Options{Brokers: 3, SessionKeys: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		ent, err := tb.StartEntity("prefetch-entity", 0)
		if err != nil {
			t.Fatal(err)
		}
		checkPrefetch(t, tb, ent, 2, []int{1, 2})
	})
	t.Run("fabric4", func(t *testing.T) {
		tb, err := harness.New(harness.Options{Brokers: 4, Fabric: true, SessionKeys: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		waitSession(t, "fabric convergence", func() bool {
			for _, f := range tb.Fabrics {
				if len(f.Members()) != len(tb.Fabrics) {
					return false
				}
			}
			return true
		})
		// The TDN picks the trace topic, and the topic picks its shard
		// owner: register until the owner is neither the ingress (0) nor
		// the tracker's broker (3).
		for attempt := 0; ; attempt++ {
			if attempt == 32 {
				t.Fatal("no trace topic owned by a third broker in 32 registrations")
			}
			ent, err := tb.StartEntity(fmt.Sprintf("prefetch-entity-%d", attempt), 0)
			if err != nil {
				t.Fatal(err)
			}
			owner, _, sharded := tb.Fabrics[0].Route(topic.Load(ent.TraceTopic()).String())
			if !sharded {
				t.Fatal("fabric does not shard the trace topic")
			}
			for i, b := range tb.Brokers {
				if b.Name() == owner && i != 0 && i != 3 {
					checkPrefetch(t, tb, ent, 3, []int{i, 3})
					return
				}
			}
			_ = ent.Stop()
		}
	})
}

// checkPrefetch starts a Load tracker for ent on broker trackerAt, waits
// until the tracker holds the session key (its interest is registered,
// so the publisher now signs with tags) and until every relay broker
// holds it too, then checks that n load reports arrive as n deliveries
// with no unknown-session drop anywhere.
func checkPrefetch(t *testing.T, tb *harness.Testbed, ent *core.TracedEntity, trackerAt int, relays []int) {
	t.Helper()
	unknown := obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "unknown_session"))
	hits := obs.Default.Counter("session_verify_hits_total")
	tt := ent.TraceTopic()
	h, err := tb.StartTracker("prefetch-tracker", trackerAt, string(ent.Entity()), topic.NewClassSet(topic.ClassLoad))
	if err != nil {
		t.Fatal(err)
	}
	waitSession(t, "tracker holds the session key", func() bool { return h.Tracker.Sessions().HasTopic(tt) })
	for _, i := range relays {
		waitSession(t, fmt.Sprintf("relay broker %d holds the session key", i), func() bool {
			return tb.Nodes[i].Manager.Sessions().HasTopic(tt)
		})
	}
	unknown0, hits0 := unknown.Value(), hits.Value()
	const n = 20
	for i := 0; i < n; i++ {
		if err := ent.ReportLoad(sysinfo.Load{CPUPercent: float64(i), At: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	limit := time.After(15 * time.Second)
	for got := 0; got < n; {
		select {
		case ev := <-h.Events:
			if ev.Type == message.TraceLoadInformation {
				got++
			}
		case <-limit:
			t.Fatalf("%d of %d load reports delivered", got, n)
		}
	}
	if d := unknown.Value() - unknown0; d != 0 {
		t.Fatalf("traces_dropped_total{reason=unknown_session} delta = %d, want 0", d)
	}
	// Every hop after the host and the tracker verified each tag.
	if d := hits.Value() - hits0; d < uint64(n*(len(relays)+1)) {
		t.Fatalf("session_verify_hits_total delta = %d, want >= %d: the loads did not ride session tags", d, n*(len(relays)+1))
	}
}
