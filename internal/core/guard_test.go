package core

import (
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// steppingClock advances its fake by step on every read, so the number
// of clock reads between two instants is visible in their difference.
type steppingClock struct {
	*clock.Fake
	step time.Duration
}

func (c steppingClock) Now() time.Time {
	now := c.Fake.Now()
	c.Fake.Advance(c.step)
	return now
}

func dropCount(reason string) uint64 {
	return obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", reason)).Value()
}

// TestGuardVerdicts pins, for every verdict label Verify can return, the
// error, the drop counter that moves, the one flight event Admit records
// (stage label, peer, correlation ID, cost on the guard's clock) and
// when the unknown-session hook fires.
func TestGuardVerdicts(t *testing.T) {
	const validFor = time.Minute
	const step = 7 * time.Microsecond
	start := time.Now()
	f := newCacheFixture(t, "guard-verdicts", validFor, start)
	key := mintSessionKey(t, sha256.Sum256(f.del.Token.Marshal()), start, validFor)
	tagged := func() *message.Envelope {
		env := f.env()
		env.Token, env.Signature = nil, nil
		if err := env.SignSession(key); err != nil {
			t.Fatal(err)
		}
		return env
	}
	spanned := f.env()
	spanned.Span = &message.Span{TraceID: ident.NewUUID()}
	tampered := tagged()
	tampered.Payload[0] ^= 0x80
	warm := func(cache *TokenCache) {
		if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, start, token.DefaultClockSkew, cache); err != nil {
			t.Fatal(err)
		}
	}
	late := validFor + token.DefaultClockSkew + time.Second

	cases := []struct {
		name     string
		env      *message.Envelope
		from     topic.Principal
		cache    bool          // guard has a token cache, holding the fixture's token
		cold     bool          // ...unless cold
		sessions int           // 0 no store, 1 empty store, 2 store holding key
		at       time.Duration // verification instant's offset from start
		wantErr  error         // nil means accepted
		reason   string        // traces_dropped_total reason that moves by one
		scored   bool          // the rejection counts against the sender
		outcome  string        // flight event Cache; "" means no event at all
		unknowns int           // unknown-session hook calls
	}{
		{name: "bypass", env: f.env(), from: topic.BrokerPrincipal(), outcome: "bypass"},
		{name: "miss", env: spanned, from: topic.EntityPrincipal("ent"), cache: true, cold: true, outcome: "miss"},
		{name: "hit", env: f.env(), from: topic.EntityPrincipal("ent"), cache: true, outcome: "hit"},
		{name: "stale", env: f.env(), from: topic.BrokerPrincipal(), cache: true, at: late,
			wantErr: token.ErrExpired, reason: "unauthorized_token", scored: true, outcome: "stale"},
		{name: "session", env: tagged(), from: topic.BrokerPrincipal(), sessions: 2, outcome: "session"},
		{name: "session_unknown", env: tagged(), from: topic.EntityPrincipal("ent"), sessions: 1,
			wantErr: ErrUnknownSession, reason: "unknown_session", outcome: "session_unknown", unknowns: 1},
		{name: "session_reject", env: tampered, from: topic.BrokerPrincipal(), sessions: 2,
			wantErr: secure.ErrBadSessionTag, reason: "bad_session_tag", scored: true, outcome: "session_reject"},
		{name: "session_unsupported", env: tagged(), from: topic.BrokerPrincipal(),
			wantErr: ErrSessionUnsupported, reason: "session_unsupported", outcome: "session_reject"},
		{name: "not a trace topic", from: topic.EntityPrincipal("ent"),
			env: message.New(message.TypeData, topic.MustParse("/ordinary/topic"), "ent", []byte("x"))},
	}
	reasons := []string{"no_token", "bad_token", "unknown_topic", "bad_advertisement", "unauthorized_token",
		"bad_signature", "unknown_session", "session_expired", "session_topic_mismatch", "bad_session_tag",
		"session_unsupported"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := steppingClock{clock.NewFake(start.Add(tc.at)), step}
			flight := obs.NewFlightRecorder("g", 16, 1)
			cfg := GuardConfig{Resolver: f.resolver, Verifier: fxVerifier, Clock: clk, Flight: flight}
			if tc.cache {
				cfg.Cache = NewTokenCache(4)
				if !tc.cold {
					warm(cfg.Cache)
				}
			}
			if tc.sessions > 0 {
				cfg.Sessions = NewSessionStore(0)
			}
			if tc.sessions > 1 {
				cfg.Sessions.Install(f.ad.TopicID, key)
			}
			g := NewGuard(cfg)
			var unknowns int
			g.OnUnknownSession(func(tt ident.UUID, sid [secure.SessionIDLen]byte) {
				if tt != f.ad.TopicID || sid != key.ID() {
					t.Errorf("hook got (%v, %x), want (%v, %x)", tt, sid, f.ad.TopicID, key.ID())
				}
				unknowns++
			})
			before := make(map[string]uint64, len(reasons))
			for _, r := range reasons {
				before[r] = dropCount(r)
			}

			err := g.Admit(tc.env, tc.from, start.Add(tc.at), true)

			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Admit = %v, want %v", err, tc.wantErr)
			}
			if scored := err != nil && !errors.Is(err, broker.ErrNoPunish); scored != tc.scored {
				t.Errorf("scored = %v for %v, want %v", scored, err, tc.scored)
			}
			for _, r := range reasons {
				want := before[r]
				if r == tc.reason {
					want++
				}
				if got := dropCount(r); got != want {
					t.Errorf("traces_dropped_total{reason=%q} moved by %d, want %d", r, got-before[r], want-before[r])
				}
			}
			if unknowns != tc.unknowns {
				t.Errorf("unknown-session hook fired %d times, want %d", unknowns, tc.unknowns)
			}
			evs := flight.Events(obs.FlightFilter{})
			if tc.outcome == "" {
				if len(evs) != 0 {
					t.Fatalf("pass-through recorded %+v", evs)
				}
				return
			}
			if len(evs) != 1 {
				t.Fatalf("recorded %d flight events, want 1: %+v", len(evs), evs)
			}
			ev := evs[0]
			wantPeer, wantTrace := "broker", obs.FlightTrace(tc.env.ID)
			if !tc.from.IsBroker {
				wantPeer = string(tc.from.Entity)
			}
			if tc.env.Span != nil {
				wantTrace = obs.FlightTrace(tc.env.Span.TraceID)
			}
			wantReason := ""
			if err != nil {
				wantReason = err.Error()
			}
			if ev.Kind != obs.FlightGuard || ev.Cache != tc.outcome || ev.Peer != wantPeer || ev.Trace != wantTrace ||
				ev.Topic != tc.env.Topic.String() || ev.Reason != wantReason || ev.DurNanos != step.Nanoseconds() {
				t.Errorf("event = %+v, want guard/%s peer=%s trace=%v reason=%q dur=%d",
					ev, tc.outcome, wantPeer, wantTrace, wantReason, step.Nanoseconds())
			}
		})
	}
}

// A session-key response must prove its token chain: one that is
// complete and correctly sealed but authenticates only by a (valid)
// session tag is refused, or any holder of the current key could mint
// the verifier a successor with a window of its choosing.
func TestOpenSessionKeyResponseRefusesTagOnly(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "guard-skr", time.Minute, now)
	tokenBytes := f.del.Token.Marshal()
	key := mintSessionKey(t, sha256.Sum256(tokenBytes), now, time.Minute)
	store := NewSessionStore(0)
	store.Install(f.ad.TopicID, key)
	g := NewGuard(GuardConfig{Resolver: f.resolver, Verifier: fxVerifier, Sessions: store})

	rcpt := issue(t, "guard-skr-rcpt")
	next, err := secure.NewSessionParams(sha256.Sum256(tokenBytes), now.UnixNano(), now.Add(24*time.Hour).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := next.SealTo(&rcpt.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	sr := &message.SessionKeyResponse{TraceTopic: f.ad.TopicID, Recipient: "guard-skr-rcpt", Sealed: sealed}

	env := f.env()
	if _, err := g.OpenSessionKeyResponse(env, sr, rcpt.Private, now); err != nil {
		t.Fatalf("token-chain response refused: %v", err)
	}
	env.Signature = nil
	if err := env.SignSession(key); err != nil {
		t.Fatal(err)
	}
	if _, err := g.OpenSessionKeyResponse(env, sr, rcpt.Private, now); err == nil {
		t.Fatal("tag-only session key response opened")
	}
}

// A broker without session keys downstream of one that has them sees
// healthy session-tagged traces it cannot verify. That is a deployment
// mismatch, not the relaying neighbour's fault: the traces drop as
// session_unsupported and the link is never scored, let alone evicted
// (at the parent the RSA stage rejected them as no_token and the link was
// quarantined after ViolationLimit heartbeats).
func TestGuardTaggedTraceWithoutStoreSparesTheLink(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "guard-nostore", time.Minute, now)
	key := mintSessionKey(t, sha256.Sum256(f.del.Token.Marshal()), now, time.Minute)
	const limit = 3
	tr := transport.NewInproc()
	serve := func(name string, g broker.Guard) (*broker.Broker, string) {
		b := broker.New(broker.Config{Name: name, Guard: g, ViolationLimit: limit})
		l, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		b.Serve(l)
		t.Cleanup(func() { b.Close() })
		return b, l.Addr()
	}
	down, addr := serve("down", NewGuard(GuardConfig{Resolver: f.resolver, Verifier: fxVerifier}).Admit)
	marker := topic.MustParse("/marker")
	defer down.SubscribeLocal(topic.AllUpdates(f.ad.TopicID), func(*message.Envelope) {
		t.Error("unverifiable trace was routed")
	})()
	markers := make(chan struct{}, 64)
	defer down.SubscribeLocal(marker, func(*message.Envelope) { markers <- struct{}{} })()
	up, _ := serve("up", nil)
	if err := up.Link(addr, tr, addr, backoff.Config{}); err != nil {
		t.Fatal(err)
	}
	// The link is FIFO in both directions: once a marker crosses it, the
	// downstream subscriptions issued before the marker's are known
	// upstream, and every envelope published before it has been judged.
	awaitMarker := func() {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			if err := up.Publish(message.New(message.TypeData, marker, "", nil)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-markers:
				return
			case <-deadline:
				t.Fatal("link to the downstream broker is gone")
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	awaitMarker()

	before := dropCount("session_unsupported")
	for i := 0; i <= limit; i++ {
		env := f.env()
		env.Token, env.Signature = nil, nil
		if err := env.SignSession(key); err != nil {
			t.Fatal(err)
		}
		if err := up.Publish(env); err != nil {
			t.Fatal(err)
		}
	}
	awaitMarker()
	if n := dropCount("session_unsupported") - before; n != limit+1 {
		t.Errorf("session_unsupported drops = %d, want %d", n, limit+1)
	}
	if v := down.Snapshot().Counters["broker_violations_total"]; v != 0 {
		t.Errorf("downstream scored %d violations against its neighbour", v)
	}
}

// One sampling decision per envelope, the guard's included (PROTOCOL.md
// §3.5): a broker and its guard share one flight recorder, so every
// sampled flow shows its ingress, its guard verdict and its route, and
// no unsampled flow shows any of them. The guard follows the broker's
// ingress decision rather than drawing a second one from the shared
// counter — at N = 64 two draws per envelope never agree, and no flow
// would be complete.
func TestGuardFollowsBrokerSampling(t *testing.T) {
	const sampleN, envelopes = 64, 6400
	now := time.Now()
	f := newCacheFixture(t, "guard-sampling", time.Hour, now)
	key := mintSessionKey(t, sha256.Sum256(f.del.Token.Marshal()), now, time.Hour)
	store := NewSessionStore(0)
	store.Install(f.ad.TopicID, key)
	flight := obs.NewFlightRecorder("sampling", 1024, sampleN)
	g := NewGuard(GuardConfig{Resolver: f.resolver, Verifier: fxVerifier, Sessions: store, Flight: flight})
	b := broker.New(broker.Config{Name: "sampling", Guard: g.Admit, Flight: flight})
	defer b.Close()
	tp := topic.AllUpdates(f.ad.TopicID)
	defer b.SubscribeLocal(tp, func(*message.Envelope) {})()

	payload := (&message.TraceEvent{Entity: "guard-sampling", TraceTopic: f.ad.TopicID, Detail: "ok"}).Marshal()
	for i := 0; i < envelopes; i++ {
		env := message.New(message.TraceAllsWell, tp, "", payload)
		if err := env.SignSession(key); err != nil {
			t.Fatal(err)
		}
		if err := b.Publish(env); err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
	}

	kinds := make(map[obs.FlightTrace]map[obs.FlightKind]bool)
	for _, ev := range flight.Events(obs.FlightFilter{Last: 1024}) {
		if kinds[ev.Trace] == nil {
			kinds[ev.Trace] = make(map[obs.FlightKind]bool)
		}
		kinds[ev.Trace][ev.Kind] = true
	}
	for trace, k := range kinds {
		if !k[obs.FlightIngress] || !k[obs.FlightGuard] || !k[obs.FlightRoute] {
			t.Errorf("flow %v recorded %v, want ingress, guard and route", trace, k)
		}
	}
	if len(kinds) != envelopes/sampleN {
		t.Errorf("%d flows recorded, want %d (one in %d)", len(kinds), envelopes/sampleN, sampleN)
	}
}
