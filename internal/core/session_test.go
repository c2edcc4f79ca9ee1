package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/secure"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// mintSessionKey derives a session key from fresh parameters bound to
// the given token digest, valid [now, now+life).
func mintSessionKey(t *testing.T, digest [32]byte, now time.Time, life time.Duration) *secure.SessionKey {
	t.Helper()
	params, err := secure.NewSessionParams(digest, now.UnixNano(), now.Add(life).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	key, err := params.Derive(ident.NewUUID().String(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// Re-installing must not consume capacity: the store's bound counts
// distinct sessions, not installation calls.
func TestSessionStoreReinstallDoesNotGrowFIFO(t *testing.T) {
	store := NewSessionStore(2)
	tt := ident.NewUUID()
	now := time.Now()
	k1 := mintSessionKey(t, sha256.Sum256([]byte("t1")), now, time.Minute)
	k2 := mintSessionKey(t, sha256.Sum256([]byte("t2")), now, time.Minute)

	for i := 0; i < 4; i++ {
		store.Install(tt, k1)
	}
	store.Install(tt, k2)
	if _, _, ok := store.Lookup(k1.ID()); !ok {
		t.Fatal("k1 evicted by its own re-installs")
	}
	if _, _, ok := store.Lookup(k2.ID()); !ok {
		t.Fatal("k2 missing")
	}
}

// A session invalidated and then installed again owns only its new FIFO
// slot: the slot its first installation left behind must not evict it.
func TestSessionStoreReinstallAfterInvalidateKeepsItsSlot(t *testing.T) {
	store := NewSessionStore(3)
	tt := ident.NewUUID()
	now := time.Now()
	a := mintSessionKey(t, sha256.Sum256([]byte("a")), now, time.Minute)
	b := mintSessionKey(t, sha256.Sum256([]byte("b")), now, time.Minute)
	c := mintSessionKey(t, sha256.Sum256([]byte("c")), now, time.Minute)

	store.Install(tt, a)
	store.Install(tt, b)
	store.Invalidate(a.ID())
	store.Install(tt, a)
	store.Install(tt, c)
	for name, k := range map[string]*secure.SessionKey{"a": a, "b": b, "c": c} {
		if _, _, ok := store.Lookup(k.ID()); !ok {
			t.Errorf("session %s evicted with a free slot", name)
		}
	}
	if n := store.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

// An invalidated session stops counting toward the bound at once, so
// the next install fills its room and evicts nothing.
func TestSessionStoreInvalidatedEntryFreesRoom(t *testing.T) {
	store := NewSessionStore(3)
	tt := ident.NewUUID()
	now := time.Now()
	a := mintSessionKey(t, sha256.Sum256([]byte("a")), now, time.Minute)
	b := mintSessionKey(t, sha256.Sum256([]byte("b")), now, time.Minute)
	c := mintSessionKey(t, sha256.Sum256([]byte("c")), now, time.Minute)
	d := mintSessionKey(t, sha256.Sum256([]byte("d")), now, time.Minute)

	store.Install(tt, a)
	store.Install(tt, b)
	store.Install(tt, c)
	store.Invalidate(c.ID())
	store.Install(tt, d)
	for name, k := range map[string]*secure.SessionKey{"a": a, "b": b, "d": d} {
		if _, _, ok := store.Lookup(k.ID()); !ok {
			t.Errorf("session %s evicted with a free slot", name)
		}
	}
	if n := store.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

// A full store evicts the session installed longest ago and counts it
// under session_keys_evicted_total.
func TestSessionStoreEvictionCounted(t *testing.T) {
	store := NewSessionStore(2)
	tt := ident.NewUUID()
	now := time.Now()
	x := mintSessionKey(t, sha256.Sum256([]byte("x")), now, time.Minute)
	y := mintSessionKey(t, sha256.Sum256([]byte("y")), now, time.Minute)
	z := mintSessionKey(t, sha256.Sum256([]byte("z")), now, time.Minute)

	evicted0 := mSessionEvicted.Value()
	store.Install(tt, x)
	store.Install(tt, y)
	store.Install(tt, z)
	if _, _, ok := store.Lookup(x.ID()); ok {
		t.Error("oldest session x survived an install into a full store")
	}
	for name, k := range map[string]*secure.SessionKey{"y": y, "z": z} {
		if _, _, ok := store.Lookup(k.ID()); !ok {
			t.Errorf("session %s evicted", name)
		}
	}
	if d := mSessionEvicted.Value() - evicted0; d != 1 {
		t.Errorf("session_keys_evicted_total delta = %d, want 1", d)
	}
}

// newTestSessionPublisher grants a publish delegation under a fake
// clock and wraps it in a SessionPublisher.
func newTestSessionPublisher(t *testing.T, clk *clock.Fake, tokenLife, maxLife time.Duration) *SessionPublisher {
	t.Helper()
	fixture(t)
	id := issue(t, "sp-unit-owner")
	signer, err := id.Signer(secure.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	tt := ident.NewUUID()
	del, err := token.Grant("sp-unit-owner", tt, token.RightPublish, tokenLife, clk.Now(), signer, secure.PaperRSABits)
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := secure.NewSigner(del.PrivateKey, TraceSigHash)
	if err != nil {
		t.Fatal(err)
	}
	return NewSessionPublisher(tt, "sp-unit-owner", del.Token.Marshal(), delegate, clk.Now, maxLife)
}

// Sign must stay on the RSA fallback until the freshly minted session
// key has been distributed to a verifier (MarkDistributed), and fall
// back again after every rekey — otherwise each ~10-minute rekey opens
// a gap where every session-tagged heartbeat is dropped as
// unknown-session until renegotiation catches up.
func TestSessionPublisherSignGatedOnDistribution(t *testing.T) {
	clk := clock.NewFake(time.Now())
	sp := newTestSessionPublisher(t, clk, time.Hour, 10*time.Minute)
	if _, err := sp.Rekey(); err != nil {
		t.Fatal(err)
	}
	tt := sp.TraceTopic()
	sign := func() (bool, *message.Envelope) {
		env := message.New(message.TraceAllsWell, topic.AllUpdates(tt), "", []byte("hb"))
		sessionSigned, err := sp.Sign(env)
		if err != nil {
			t.Fatal(err)
		}
		return sessionSigned, env
	}

	if sessionSigned, env := sign(); sessionSigned || len(env.Token) == 0 {
		t.Fatalf("undistributed key: sessionSigned=%v tokenLen=%d, want RSA fallback with token", sessionSigned, len(env.Token))
	}
	firstID := sp.Key().ID()

	// A stale (or bogus) ID must not unlock tagging.
	var wrong [secure.SessionIDLen]byte
	wrong[0] = ^firstID[0]
	sp.MarkDistributed(wrong)
	if sessionSigned, _ := sign(); sessionSigned {
		t.Fatal("MarkDistributed with a foreign ID unlocked session tagging")
	}

	sp.MarkDistributed(firstID)
	if sessionSigned, env := sign(); !sessionSigned || len(env.Token) != 0 {
		t.Fatalf("distributed key: sessionSigned=%v tokenLen=%d, want session tag without token", sessionSigned, len(env.Token))
	}

	// Window expiry: Sign falls back to RSA and mints a fresh key, which
	// again waits on distribution.
	clk.Advance(11 * time.Minute)
	if sessionSigned, _ := sign(); sessionSigned {
		t.Fatal("expired session still tag-signed")
	}
	secondID := sp.Key().ID()
	if secondID == firstID {
		t.Fatal("expired Sign did not rekey")
	}
	if sessionSigned, _ := sign(); sessionSigned {
		t.Fatal("fresh undistributed key tag-signed before delivery")
	}
	sp.MarkDistributed(secondID)
	if sessionSigned, _ := sign(); !sessionSigned {
		t.Fatal("distributed rekeyed session did not resume tagging")
	}
}

// SealedParamsFor must report the ID of the session actually sealed —
// including one a rekey just minted — so callers mark exactly that
// session distributed.
func TestSealedParamsForReturnsSealedID(t *testing.T) {
	clk := clock.NewFake(time.Now())
	sp := newTestSessionPublisher(t, clk, time.Hour, 10*time.Minute)
	id := issue(t, "sp-unit-verifier")

	// No key yet: SealedParamsFor rekeys internally.
	sealed, sid, err := sp.SealedParamsFor(&id.Private.PublicKey)
	if err != nil || len(sealed) == 0 {
		t.Fatalf("SealedParamsFor: %v", err)
	}
	if sid != sp.Key().ID() {
		t.Fatal("returned ID does not match the sealed session")
	}
	params, err := secure.OpenSessionParams(id.Private, sealed)
	if err != nil {
		t.Fatal(err)
	}
	key, err := params.Derive(sp.TraceTopic().String(), sp.Principal())
	if err != nil {
		t.Fatal(err)
	}
	if key.ID() != sid {
		t.Fatal("opened params derive a different session than reported")
	}
}

// The responder-side rate limiter: one admitted request per requester
// and sessionKeyRespBurst total per window, before any crypto work.
func TestAdmitSessionKeyRequest(t *testing.T) {
	s := &session{skReqLast: newBounded[ident.EntityID, time.Time](sessionKeyReqTrack)}
	base := time.Now()

	if !s.admitSessionKeyRequest("r1", base) {
		t.Fatal("first request refused")
	}
	if s.admitSessionKeyRequest("r1", base.Add(500*time.Millisecond)) {
		t.Fatal("repeat request inside the interval admitted")
	}
	if !s.admitSessionKeyRequest("r1", base.Add(sessionRequestMinInterval+time.Millisecond)) {
		t.Fatal("request after the interval refused")
	}

	// Global per-session burst: cycling requester names must not buy
	// unbounded work.
	s2 := &session{skReqLast: newBounded[ident.EntityID, time.Time](sessionKeyReqTrack)}
	w := time.Now()
	for i := 0; i < sessionKeyRespBurst; i++ {
		if !s2.admitSessionKeyRequest(ident.EntityID("req-"+string(rune('a'+i))), w) {
			t.Fatalf("request %d inside burst refused", i)
		}
	}
	if s2.admitSessionKeyRequest("req-overflow", w) {
		t.Fatal("request beyond the per-window burst admitted")
	}
	if !s2.admitSessionKeyRequest("req-overflow", w.Add(sessionRequestMinInterval)) {
		t.Fatal("request in the next window refused")
	}

	// Sessions without the table (session keys off) admit nothing.
	s3 := &session{}
	if s3.admitSessionKeyRequest("r1", base) {
		t.Fatal("session-keys-off session admitted a request")
	}
}

// interestedTracker honours expiry: a lapsed §5.1 registration grants
// no session-key standing.
func TestInterestedTrackerExpiry(t *testing.T) {
	now := time.Now()
	s := &session{interest: map[topic.TraceClass]map[ident.EntityID]time.Time{
		topic.ClassAllUpdates: {
			"fresh": now.Add(time.Minute),
			"stale": now.Add(-time.Minute),
		},
	}}
	if !s.interestedTracker("fresh", now) {
		t.Fatal("unexpired interest not recognized")
	}
	if s.interestedTracker("stale", now) {
		t.Fatal("expired interest still grants standing")
	}
	if s.interestedTracker("unknown", now) {
		t.Fatal("unregistered tracker has standing")
	}
}

// A full recipient table must evict its longest-idle entry to admit a
// new verifier — the old behavior silently dropped every arrival past
// capacity, so a churn of short-lived trackers permanently locked
// later ones out of proactive rekey pushes.
func TestSessionKeyRecipientEvictsOldestWhenFull(t *testing.T) {
	s := &session{sessionKeyRecips: newBounded[ident.EntityID, *sessionKeyRecipient](sessionKeyMaxRecipients)}
	var id [secure.SessionIDLen]byte
	for i := 0; i < sessionKeyMaxRecipients; i++ {
		s.rememberRecipient(ident.EntityID(fmt.Sprintf("tracker-%04d", i)), id, "/t", nil)
	}
	// Refresh the very first recipient: it becomes the most recent.
	s.rememberRecipient("tracker-0000", id, "/t", nil)

	s.rememberRecipient("tracker-new", id, "/t", nil)
	if got := s.sessionKeyRecips.len(); got != sessionKeyMaxRecipients {
		t.Fatalf("table size = %d, want %d", got, sessionKeyMaxRecipients)
	}
	if _, ok := s.sessionKeyRecips.get("tracker-new"); !ok {
		t.Fatal("new recipient was dropped instead of admitted")
	}
	if _, ok := s.sessionKeyRecips.get("tracker-0000"); !ok {
		t.Fatal("recently refreshed recipient was evicted")
	}
	if _, ok := s.sessionKeyRecips.get("tracker-0001"); ok {
		t.Fatal("longest-idle recipient survived a full-table insert")
	}
}

// TestLoadDetailMatchesSprintf: the load trace's detail line is built
// without fmt, byte for byte what fmt.Sprintf gave, across rounding
// edges, signed zero, huge values and the non-finite ones.
func TestLoadDetailMatchesSprintf(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 0.05, 0.15, 99.95, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), -12.345} {
		want := fmt.Sprintf("cpu=%.1f%% workload=%.2f", v, v)
		if got := loadDetail(v, v); got != want {
			t.Errorf("loadDetail(%v) = %q, want %q", v, got, want)
		}
	}
}
