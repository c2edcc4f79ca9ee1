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
	"sync"
	"testing"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
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
