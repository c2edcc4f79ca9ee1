package core

import (
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/token"
)

// This file implements the verifier and publisher halves of the §6.3
// signing-cost optimization. After the one full token + RSA
// verification (performed on the SESSION_KEY_RESPONSE envelope, or
// locally at the hosting broker), a verifier installs the derived
// session key into a SessionStore; steady-state envelopes then
// authenticate with an HMAC-SHA256 session tag checked here in
// well under a microsecond instead of ~13µs of RSA. Every rejection the
// RSA path would produce has a session-path twin, so the two paths
// return identical accept/reject verdicts on identical streams — the
// property internal/secure/difftest proves.

// Session-path drop accounting, the §6.3 counterpart of the RSA-path
// reasons above.
var (
	mDropUnknownSession = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "unknown_session"))
	mDropSessionExpired = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "session_expired"))
	mDropSessionTopic   = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "session_topic_mismatch"))
	mDropBadSessionTag  = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "bad_session_tag"))
	// A tag arriving at a verifier that runs no session store.
	mDropSessionUnsupported = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "session_unsupported"))
)

// Session store metrics.
var (
	mSessionInstalls    = obs.Default.Counter("session_keys_installed_total")
	mSessionInvalidated = obs.Default.Counter("session_keys_invalidated_total")
	mSessionHits        = obs.Default.Counter("session_verify_hits_total")
	mSessionUnknown     = obs.Default.Counter("session_verify_unknown_total")
	// Live keys evicted from a full store to admit a newer session; the
	// evictee's publisher renegotiates on its next unknown-session drop.
	mSessionEvicted = obs.Default.Counter("session_keys_evicted_total")
)

// Session-path rejections. ErrUnknownSession wraps broker.ErrNoPunish:
// a tag referencing a session the verifier has not installed (fresh
// negotiation, restart, invalidation) is dropped without scoring a
// violation against the delivering peer, and triggers renegotiation.
// ErrSessionUnsupported wraps it for the same reason: a verifier with
// no session store downstream of one that has is a deployment mismatch,
// and the peer relaying a healthy tagged trace is not at fault for it.
var (
	ErrUnknownSession     = fmt.Errorf("core: unknown session (%w)", broker.ErrNoPunish)
	ErrSessionExpired     = errors.New("core: session key expired")
	ErrSessionUnsupported = fmt.Errorf("core: session-tagged trace at a verifier without session keys (%w)", broker.ErrNoPunish)
)

// DefaultSessionStoreSize bounds the number of concurrently installed
// session keys.
const DefaultSessionStoreSize = 4096

// SessionStore holds the session keys a verifier has installed, keyed
// by session ID. All methods are safe for concurrent use; lookups take
// only a read lock.
type SessionStore struct {
	mu sync.RWMutex
	m  *bounded[[secure.SessionIDLen]byte, *sessionEntry]
}

type sessionEntry struct {
	key   *secure.SessionKey
	topic ident.UUID
}

// NewSessionStore creates a store bounded at max keys (0 means
// DefaultSessionStoreSize). Past the bound the key installed longest
// ago is evicted (counted by session_keys_evicted_total); its publisher
// renegotiates on the resulting unknown-session drop.
func NewSessionStore(max int) *SessionStore {
	if max <= 0 {
		max = DefaultSessionStoreSize
	}
	return &SessionStore{m: newBounded[[secure.SessionIDLen]byte, *sessionEntry](max)}
}

// Install registers a session key for a trace topic as the newest
// entry, replacing any previous key with the same ID. Re-installing an
// existing ID (repeated SESSION_KEY_RESPONSE deliveries, renegotiation
// re-requests) takes no further room.
func (s *SessionStore) Install(traceTopic ident.UUID, k *secure.SessionKey) {
	s.mu.Lock()
	evicted := s.m.put(k.ID(), &sessionEntry{key: k, topic: traceTopic})
	s.mu.Unlock()
	mSessionInstalls.Inc()
	if evicted {
		mSessionEvicted.Inc()
	}
}

// HasTopic reports whether any key of traceTopic is installed. It scans
// the store: it runs once per newly subscribed trace topic, not per
// envelope.
func (s *SessionStore) HasTopic(traceTopic ident.UUID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	found := false
	s.m.each(func(_ [secure.SessionIDLen]byte, e *sessionEntry) {
		found = found || e.topic == traceTopic
	})
	return found
}

// lookup returns the entry for id, if installed.
func (s *SessionStore) lookup(id [secure.SessionIDLen]byte) (*sessionEntry, bool) {
	s.mu.RLock()
	e, ok := s.m.get(id)
	s.mu.RUnlock()
	return e, ok
}

// Lookup returns the installed key for id and its trace topic.
func (s *SessionStore) Lookup(id [secure.SessionIDLen]byte) (*secure.SessionKey, ident.UUID, bool) {
	e, ok := s.lookup(id)
	if !ok {
		return nil, ident.Nil, false
	}
	return e.key, e.topic, true
}

// Invalidate removes a session key; subsequent tags referencing it are
// unknown-session drops forcing full verification or renegotiation.
func (s *SessionStore) Invalidate(id [secure.SessionIDLen]byte) {
	s.mu.Lock()
	ok := s.m.remove(id)
	s.mu.Unlock()
	if ok {
		mSessionInvalidated.Inc()
	}
}

// InvalidateAll empties the store.
func (s *SessionStore) InvalidateAll() {
	s.mu.Lock()
	n := s.m.len()
	s.m.clear()
	s.mu.Unlock()
	mSessionInvalidated.Add(uint64(n))
}

// Len reports the number of installed sessions.
func (s *SessionStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.len()
}

// VerifyTraceSession checks a session-tagged envelope against the
// store: the session must be installed, bound to the message's trace
// topic, inside its validity window widened by skew (the Guard passes
// the tolerance the token check applies, so expiry verdicts match the
// RSA path), and the HMAC-SHA256 tag must verify over the same canonical
// bytes an RSA signature would cover. An expired window or a failed tag
// invalidates the session — the hard fallback: nothing further
// authenticates under that session ID until full RSA verification
// re-establishes it.
func VerifyTraceSession(env *message.Envelope, traceTopic ident.UUID,
	store *SessionStore, now time.Time, skew time.Duration) error {
	sid, err := env.SessionID()
	if err != nil {
		mDropBadSessionTag.Inc()
		return fmt.Errorf("core: session tag: %w", err)
	}
	e, ok := store.lookup(sid)
	if !ok {
		mDropUnknownSession.Inc()
		mSessionUnknown.Inc()
		return ErrUnknownSession
	}
	if e.topic != traceTopic {
		mDropSessionTopic.Inc()
		return fmt.Errorf("core: session %x is bound to topic %v, not %v", [4]byte(sid[:4]), e.topic, traceTopic)
	}
	if !e.key.ValidAt(now, skew) {
		store.Invalidate(sid)
		mDropSessionExpired.Inc()
		return ErrSessionExpired
	}
	if err := env.VerifySessionTag(e.key); err != nil {
		// Hard fallback: any tag failure kills the session, so a
		// compromised or corrupted stream cannot keep probing a live key;
		// the publisher must pass full RSA verification to re-establish.
		store.Invalidate(sid)
		mDropBadSessionTag.Inc()
		return fmt.Errorf("core: session tag: %w", err)
	}
	mSessionHits.Inc()
	return nil
}

// SessionPublisher is the publisher half of §6.3: it owns the current
// session parameters for one (token, trace topic) pair, signs
// steady-state envelopes with the session key, falls back to the RSA
// delegate signature whenever the session is outside its window, and
// rekeys on token rotation. All methods are safe for concurrent use.
type SessionPublisher struct {
	mu         sync.RWMutex
	traceTopic ident.UUID
	principal  string
	tokenBytes []byte
	delegate   *secure.Signer
	params     *secure.SessionParams
	key        *secure.SessionKey
	// distributed reports whether the current key has reached at least
	// one external verifier (MarkDistributed). Sign keeps the RSA
	// fallback until then, so a rekey never opens a window where tags
	// reference a session no verifier has installed yet — those traces
	// (ALLS_WELL heartbeats among them) would be dropped as
	// unknown-session and could feed false failure suspicion.
	distributed bool
	now         func() time.Time
	maxLife     time.Duration
	onRekey     func(*secure.SessionKey)
}

// DefaultSessionMaxLife caps a session's validity window; shorter
// windows bound the damage of a leaked symmetric key (the token window
// still applies on top).
const DefaultSessionMaxLife = 10 * time.Minute

// NewSessionPublisher creates a publisher for the given delegation.
// now supplies the clock (required for deterministic tests); maxLife
// caps each session window (0 means DefaultSessionMaxLife).
func NewSessionPublisher(traceTopic ident.UUID, principal string, tokenBytes []byte,
	delegate *secure.Signer, now func() time.Time, maxLife time.Duration) *SessionPublisher {
	if now == nil {
		now = time.Now
	}
	if maxLife <= 0 {
		maxLife = DefaultSessionMaxLife
	}
	return &SessionPublisher{
		traceTopic: traceTopic,
		principal:  principal,
		tokenBytes: append([]byte(nil), tokenBytes...),
		delegate:   delegate,
		now:        now,
		maxLife:    maxLife,
	}
}

// OnRekey installs a hook invoked with the fresh session key after
// every successful rekey (including those SealedParamsFor and Sign
// trigger internally) — typically to install the key into the hosting
// broker's own SessionStore. The hook runs under the publisher's lock
// and must not call back into the publisher.
func (sp *SessionPublisher) OnRekey(fn func(*secure.SessionKey)) {
	sp.mu.Lock()
	sp.onRekey = fn
	sp.mu.Unlock()
}

// Rekey mints fresh session parameters bound to the current token:
// window = [now, min(now+maxLife, token.NotAfter)]. It returns the new
// parameters for distribution. Rekey fails if the token window has
// already closed — the RSA fallback then also rejects, keeping the
// paths aligned.
func (sp *SessionPublisher) Rekey() (*secure.SessionParams, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.rekeyLocked()
}

func (sp *SessionPublisher) rekeyLocked() (*secure.SessionParams, error) {
	tok, err := token.Unmarshal(sp.tokenBytes)
	if err != nil {
		return nil, fmt.Errorf("core: session rekey: %w", err)
	}
	nb := sp.now().UnixNano()
	na := nb + sp.maxLife.Nanoseconds()
	if tok.NotAfter < na {
		na = tok.NotAfter
	}
	if na <= nb {
		return nil, fmt.Errorf("core: session rekey: token window closed")
	}
	params, err := secure.NewSessionParams(sha256.Sum256(sp.tokenBytes), nb, na)
	if err != nil {
		return nil, err
	}
	key, err := params.Derive(sp.traceTopic.String(), sp.principal)
	if err != nil {
		return nil, err
	}
	sp.params, sp.key = params, key
	sp.distributed = false
	if sp.onRekey != nil {
		sp.onRekey(key)
	}
	return params, nil
}

// MarkDistributed records that the session with the given ID has been
// delivered to at least one external verifier; Sign then switches from
// the RSA fallback to session tags. A stale ID (the publisher has since
// rekeyed) is ignored.
func (sp *SessionPublisher) MarkDistributed(id [secure.SessionIDLen]byte) {
	sp.mu.Lock()
	if sp.key != nil && sp.key.ID() == id {
		sp.distributed = true
	}
	sp.mu.Unlock()
}

// SetToken installs a rotated token and delegate signer and rekeys,
// returning the new parameters (token rotation always changes the
// bound digest, so the old session dies with the old token).
func (sp *SessionPublisher) SetToken(tokenBytes []byte, delegate *secure.Signer) (*secure.SessionParams, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.tokenBytes = append([]byte(nil), tokenBytes...)
	sp.delegate = delegate
	return sp.rekeyLocked()
}

// Key returns the current session key (nil before the first Rekey).
func (sp *SessionPublisher) Key() *secure.SessionKey {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.key
}

// TraceTopic returns the topic the publisher's sessions are bound to.
func (sp *SessionPublisher) TraceTopic() ident.UUID { return sp.traceTopic }

// Principal returns the derivation principal.
func (sp *SessionPublisher) Principal() string { return sp.principal }

// SealedParamsFor seals the current parameters to a verifier's public
// key, rekeying first if no live session exists. It also returns the ID
// of the session actually sealed (which a rekey may have just minted),
// so the caller can MarkDistributed exactly that session once the
// response is on the wire.
func (sp *SessionPublisher) SealedParamsFor(pub *rsa.PublicKey) ([]byte, [secure.SessionIDLen]byte, error) {
	sp.mu.Lock()
	if sp.key == nil || !sp.key.ValidAt(sp.now(), 0) {
		if _, err := sp.rekeyLocked(); err != nil {
			sp.mu.Unlock()
			return nil, [secure.SessionIDLen]byte{}, err
		}
	}
	params, id := sp.params, sp.key.ID()
	sp.mu.Unlock()
	sealed, err := params.SealTo(pub)
	return sealed, id, err
}

// sessionRequestMinInterval rate-limits SESSION_KEY_REQUEST publishes
// per requester (per session ID for brokers, per watch for trackers):
// an unknown-session burst collapses into one renegotiation.
const sessionRequestMinInterval = time.Second

// OpenSessionKeyResponse authenticates and opens a SESSION_KEY_RESPONSE
// envelope: the envelope must pass Verify on its token chain (token +
// delegate RSA signature — the one expensive check the session path
// amortizes; a response authenticated only by a session tag is refused,
// since a key holder could otherwise mint itself a successor key), then
// the sealed parameters are opened with the recipient's credential key,
// bound against the verified token's raw bytes, and the session key is
// derived. The derivation principal is the token owner, matching the
// publisher side.
func (g *Guard) OpenSessionKeyResponse(env *message.Envelope, sr *message.SessionKeyResponse,
	priv *rsa.PrivateKey, now time.Time) (*secure.SessionKey, error) {
	outcome, err := g.Verify(env, sr.TraceTopic, now)
	if err != nil {
		return nil, fmt.Errorf("core: session key response: %w", err)
	}
	if outcome == cacheSession {
		return nil, errors.New("core: session key response lacks its token chain")
	}
	tok, err := token.Unmarshal(env.Token)
	if err != nil {
		return nil, fmt.Errorf("core: session key response token: %w", err)
	}
	params, err := secure.OpenSessionParams(priv, sr.Sealed)
	if err != nil {
		return nil, fmt.Errorf("core: session key response: %w", err)
	}
	if params.TokenDigest != sha256.Sum256(env.Token) {
		return nil, errors.New("core: session params bound to a different token")
	}
	return params.Derive(sr.TraceTopic.String(), string(tok.Owner))
}

// Sign authenticates env: with the session key (tag + token omitted —
// the wire saving of §6.3) while the session window is open AND the key
// has been distributed to at least one verifier, otherwise with the RSA
// delegate signature and attached token, rekeying for the next message
// when the window has closed. Gating tags on distribution closes the
// rekey gap: the first messages after every rekey stay on the RSA path
// (universally verifiable) until a SESSION_KEY_RESPONSE lands, instead
// of being dropped as unknown-session by every verifier still holding
// the old key. The returned mechanism reports which path was used.
func (sp *SessionPublisher) Sign(env *message.Envelope) (sessionSigned bool, err error) {
	sp.mu.RLock()
	key, delegate, tokenBytes, distributed := sp.key, sp.delegate, sp.tokenBytes, sp.distributed
	sp.mu.RUnlock()
	if key != nil && distributed && key.ValidAt(sp.now(), 0) {
		return true, env.SignSession(key)
	}
	// Session window closed (or never opened): mint a fresh session for
	// subsequent messages. An undistributed-but-live key needs no rekey —
	// it is waiting on delivery, not expiry.
	if key != nil && !key.ValidAt(sp.now(), 0) {
		sp.mu.Lock()
		if sp.key == key {
			_, _ = sp.rekeyLocked()
		}
		sp.mu.Unlock()
	}
	env.Token = tokenBytes
	return false, env.Sign(delegate)
}
