// Package difftest is a differential crypto harness for the trace
// authorization guard: it replays identical logical envelope streams
// through the reference — the full §4.3 chain, core.VerifyTrace called
// directly — and through the production core.Guard three times: with a
// verified-token cache on the RSA rendering, on the §6.3 session-tagged
// rendering built in memory, and on that rendering as a broker receives
// it (decoded from its encoding, so its tag is checked over the received
// bytes in place); and asserts the four produce byte-identical
// accept/reject verdict strings. The cache and the session path are
// optimizations, never relaxations — any stream an adversary can craft
// (expired windows, rotated tokens, revoked topics, tampered payloads,
// replays, downgrade re-framing) must settle to the same verdict on all.
//
// All time flows through an internal/clock fake, so every validity
// window — token and session alike — is evaluated at deterministic
// instants and the verdict strings are reproducible bit for bit.
package difftest

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// Shared CA fixture: RSA keygen dominates setup cost, so the authority,
// verifier, and TDN identity are built once per test binary.
var (
	fxOnce     sync.Once
	fxCA       *credential.Authority
	fxVerifier *credential.Verifier
	fxTDNIdent *credential.Identity
	fxErr      error
)

func fixture(t *testing.T) {
	t.Helper()
	fxOnce.Do(func() {
		fxCA, fxErr = credential.NewAuthority("difftest-ca", credential.WithKeyBits(secure.PaperRSABits))
		if fxErr != nil {
			return
		}
		if fxVerifier, fxErr = credential.NewVerifier(fxCA.CACertificate()); fxErr != nil {
			return
		}
		fxTDNIdent, fxErr = fxCA.Issue("difftest-tdn")
	})
	if fxErr != nil {
		t.Fatal(fxErr)
	}
}

// revocableResolver wraps the TDN resolver so scenarios can model §5.2
// topic abandonment: a revoked topic stops resolving, which is how the
// RSA path learns a publisher's authority has been withdrawn.
type revocableResolver struct {
	inner   core.AdResolver
	mu      sync.Mutex
	revoked map[ident.UUID]bool
}

func (r *revocableResolver) ResolveAd(id ident.UUID) (*tdn.Advertisement, error) {
	r.mu.Lock()
	dead := r.revoked[id]
	r.mu.Unlock()
	if dead {
		return nil, core.ErrUnknownTopic
	}
	return r.inner.ResolveAd(id)
}

func (r *revocableResolver) revoke(id ident.UUID) {
	r.mu.Lock()
	r.revoked[id] = true
	r.mu.Unlock()
}

// World is one differential universe: a fake clock, a CA-backed
// verifier, a TDN node for advertisements, a session store standing in
// for a verifying broker's installed keys, and the two production guards
// under test — Guard (session store, no cache) and Cached (token cache).
type World struct {
	T        *testing.T
	Clock    *clock.Fake
	Node     *tdn.Node
	Resolver *revocableResolver
	Store    *core.SessionStore
	Skew     time.Duration
	Guard    *core.Guard
	Cached   *core.Guard
}

// NewWorld builds a universe. The fake clock starts at wall time (the
// CA's X.509 validity is anchored there) but every subsequent instant is
// driven explicitly by the scenario.
func NewWorld(t *testing.T) *World {
	t.Helper()
	fixture(t)
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	w := &World{
		T:        t,
		Clock:    clock.NewFake(time.Now()),
		Node:     node,
		Resolver: &revocableResolver{inner: core.NodeResolver(node), revoked: make(map[ident.UUID]bool)},
		Store:    core.NewSessionStore(0),
		Skew:     token.DefaultClockSkew,
	}
	w.Guard = core.NewGuard(core.GuardConfig{Resolver: w.Resolver, Verifier: fxVerifier,
		Clock: w.Clock, Sessions: w.Store})
	w.Cached = core.NewGuard(core.GuardConfig{Resolver: w.Resolver, Verifier: fxVerifier,
		Clock: w.Clock, Cache: core.NewTokenCache(0)})
	return w
}

// Publisher owns one trace topic and holds the live signing materials
// for both paths: the delegate RSA key (token path) and the derived
// session key (tag path), with windows mirroring each other as the
// SessionPublisher keeps them in production.
type Publisher struct {
	w        *World
	Name     ident.EntityID
	Topic    ident.UUID
	identity *credential.Identity

	TokenBytes []byte
	Delegate   *secure.Signer
	Params     *secure.SessionParams
	Key        *secure.SessionKey
}

// NewPublisher issues an identity, advertises a trace topic, and
// delegates publish rights for validFor starting at the fake clock's
// now. The matching session key is derived and installed in the world's
// store, as if negotiation had completed.
func (w *World) NewPublisher(name ident.EntityID, validFor time.Duration) *Publisher {
	w.T.Helper()
	id, err := fxCA.Issue(name)
	if err != nil {
		w.T.Fatal(err)
	}
	signer, err := id.Signer(secure.SHA1)
	if err != nil {
		w.T.Fatal(err)
	}
	req := &tdn.CreateRequest{
		Owner:      name,
		OwnerCert:  id.Credential.Cert,
		Descriptor: "Availability/Traces/" + string(name),
		AllowAny:   true,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(signer); err != nil {
		w.T.Fatal(err)
	}
	ad, err := w.Node.CreateTopic(req)
	if err != nil {
		w.T.Fatal(err)
	}
	p := &Publisher{w: w, Name: name, Topic: ad.TopicID, identity: id}
	p.Rotate(validFor)
	return p
}

// Rotate re-delegates: a fresh token (and delegate key) is granted from
// the fake clock's now, and a fresh session key with the token's exact
// validity window is derived and installed. This is what the
// SessionPublisher does on every token renewal.
func (p *Publisher) Rotate(validFor time.Duration) {
	p.w.T.Helper()
	signer, err := p.identity.Signer(secure.SHA1)
	if err != nil {
		p.w.T.Fatal(err)
	}
	now := p.w.Clock.Now()
	del, err := token.Grant(p.Name, p.Topic, token.RightPublish, validFor, now, signer, secure.PaperRSABits)
	if err != nil {
		p.w.T.Fatal(err)
	}
	delegate, err := secure.NewSigner(del.PrivateKey, core.TraceSigHash)
	if err != nil {
		p.w.T.Fatal(err)
	}
	p.TokenBytes = del.Token.Marshal()
	p.Delegate = delegate
	params, err := secure.NewSessionParams(sha256.Sum256(p.TokenBytes), del.Token.NotBefore, del.Token.NotAfter)
	if err != nil {
		p.w.T.Fatal(err)
	}
	key, err := params.Derive(p.Topic.String(), string(p.Name))
	if err != nil {
		p.w.T.Fatal(err)
	}
	p.Params = params
	p.Key = key
	p.w.Store.Install(p.Topic, key)
}

// Renegotiate reinstalls the current session key. In production this is
// the SESSION_KEY_REQUEST/RESPONSE exchange a verifier falls back to
// after a hard invalidation; here it is the one harness step that models
// that full-RSA-verified recovery.
func (p *Publisher) Renegotiate() { p.w.Store.Install(p.Topic, p.Key) }

// Revoke withdraws the publisher's authority on both paths at once:
// the topic stops resolving (§5.2 abandonment, killing the RSA chain)
// and the session derived from the current token (the world holds one
// per token) is invalidated.
func (p *Publisher) Revoke() {
	p.w.Resolver.revoke(p.Topic)
	p.w.Store.Invalidate(p.Key.ID())
}

// Pair is one logical publish rendered for both pipelines: identical
// type, topic, timestamp, and payload; only the authentication trailer
// differs (token + RSA delegate signature vs session ID + HMAC tag).
type Pair struct {
	RSA     *message.Envelope
	Session *message.Envelope
}

// Emit renders one logical trace event as a Pair, stamped with the fake
// clock's now.
func (p *Publisher) Emit(detail string) *Pair {
	p.w.T.Helper()
	te := &message.TraceEvent{Entity: p.Name, TraceTopic: p.Topic, Detail: detail}
	mk := func() *message.Envelope {
		env := message.New(message.TraceAllsWell, topic.AllUpdates(p.Topic), "", te.Marshal())
		env.Timestamp = p.w.Clock.Now().UnixNano()
		return env
	}
	rsaEnv := mk()
	rsaEnv.Token = p.TokenBytes
	if err := rsaEnv.Sign(p.Delegate); err != nil {
		p.w.T.Fatal(err)
	}
	sessEnv := mk()
	if err := sessEnv.SignSession(p.Key); err != nil {
		p.w.T.Fatal(err)
	}
	return &Pair{RSA: rsaEnv, Session: sessEnv}
}

// Mutate applies the same adversarial edit to both renderings.
func (pr *Pair) Mutate(f func(*message.Envelope)) *Pair {
	f(pr.RSA)
	f(pr.Session)
	return pr
}

// VerifyRSA is the reference: the full §4.3 chain at the fake clock's
// now, called directly rather than through a guard.
func (w *World) VerifyRSA(tt ident.UUID, env *message.Envelope) error {
	return core.VerifyTrace(env, tt, w.Resolver, fxVerifier, w.Clock.Now(), w.Skew)
}

// VerifySession probes the session stage directly at the fake clock's
// now; scenarios use it to observe the store's state after a rejection.
func (w *World) VerifySession(tt ident.UUID, env *message.Envelope) error {
	return core.VerifyTraceSession(env, tt, w.Store, w.Clock.Now(), w.Skew)
}

// Route hands env to the production guard, which picks the stage from
// the envelope itself. Downgrade scenarios depend on this — re-framing
// an envelope moves it between stages, and every stage must reject it.
func (w *World) Route(tt ident.UUID, env *message.Envelope) error {
	_, err := w.Guard.Verify(env, tt, w.Clock.Now())
	return err
}

// Verdicts accumulates one byte per step per column: 'A' for accept,
// 'R' for reject. RSA is the reference (or, under StepRouted, the
// uncached guard), Cached the caching guard on the same RSA rendering,
// Session the guard on the session-tagged rendering, Received the guard
// on that rendering decoded from its wire form. The differential
// contract is that the four strings are byte-identical at the end of
// every scenario.
type Verdicts struct {
	RSA      []byte
	Cached   []byte
	Session  []byte
	Received []byte
}

func mark(err error) byte {
	if err == nil {
		return 'A'
	}
	return 'R'
}

// Step verifies the RSA rendering against the reference and the caching
// guard, and the session rendering against the guard, and records the
// verdict triple.
func (v *Verdicts) Step(w *World, tt ident.UUID, pr *Pair) (rsaErr, sessErr error) {
	return v.record(w, tt, pr, w.VerifyRSA(tt, pr.RSA))
}

// StepRouted is Step with the RSA column also decided by the guard's own
// dispatch, for scenarios where the mutation changes which stage an
// envelope lands on.
func (v *Verdicts) StepRouted(w *World, tt ident.UUID, pr *Pair) (rsaErr, sessErr error) {
	return v.record(w, tt, pr, w.Route(tt, pr.RSA))
}

func (v *Verdicts) record(w *World, tt ident.UUID, pr *Pair, rsaErr error) (error, error) {
	_, cachedErr := w.Cached.Verify(pr.RSA, tt, w.Clock.Now())
	sessErr := w.Route(tt, pr.Session)
	v.RSA = append(v.RSA, mark(rsaErr))
	v.Cached = append(v.Cached, mark(cachedErr))
	v.Session = append(v.Session, mark(sessErr))
	v.Received = append(v.Received, mark(w.Route(tt, w.Receive(pr.Session))))
	return rsaErr, sessErr
}

// Receive returns env as a broker's link receives it: decoded from its
// wire form, fields aliasing the received bytes.
func (w *World) Receive(env *message.Envelope) *message.Envelope {
	w.T.Helper()
	got, err := message.UnmarshalShared(env.Marshal())
	if err != nil {
		w.T.Fatal(err)
	}
	return got
}

// AssertIdentical fails the test unless the four verdict strings are
// byte-identical and match want (a string of 'A'/'R').
func (v *Verdicts) AssertIdentical(t *testing.T, want string) {
	t.Helper()
	if !bytes.Equal(v.RSA, v.Session) || !bytes.Equal(v.RSA, v.Cached) || !bytes.Equal(v.RSA, v.Received) {
		t.Fatalf("verdict divergence:\n  rsa      %s\n  cached   %s\n  session  %s\n  received %s",
			v.RSA, v.Cached, v.Session, v.Received)
	}
	if want != "" && string(v.RSA) != want {
		t.Fatalf("verdicts = %s, want %s", v.RSA, want)
	}
}
