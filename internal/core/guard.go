// Package core implements the paper's tracing scheme on top of the
// substrates: the traced entity runtime (§3.1–§3.2), the broker-side
// trace manager with failure detection and trace publication (§3.3,
// §3.5), the tracker runtime (§3.4), authorization-token enforcement
// (§4), and the confidentiality and signing-cost machinery (§5.1, §6.3).
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// Trace drop accounting by rejection reason (§4.3: invalid messages are
// "discarded and not routed within the network"). Pre-registered so
// /metrics shows every reason at zero before the first drop.
var (
	mDropNoToken      = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "no_token"))
	mDropBadToken     = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "bad_token"))
	mDropUnknownTopic = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "unknown_topic"))
	mDropBadAd        = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "bad_advertisement"))
	mDropUnauthorized = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "unauthorized_token"))
	mDropBadSignature = obs.Default.Counter(obs.WithLabel("traces_dropped_total", "reason", "bad_signature"))
)

// TraceSigHash is the digest used on the trace path (the paper signs
// with 160-bit SHA-1, §6).
const TraceSigHash = traceSigHash

// AdResolver resolves a trace-topic UUID to its advertisement so
// verifiers can learn the topic owner's public key.
type AdResolver interface {
	ResolveAd(id ident.UUID) (*tdn.Advertisement, error)
}

// ResolverFunc adapts a function to AdResolver.
type ResolverFunc func(id ident.UUID) (*tdn.Advertisement, error)

// ResolveAd implements AdResolver.
func (f ResolverFunc) ResolveAd(id ident.UUID) (*tdn.Advertisement, error) { return f(id) }

// ErrUnknownTopic reports an unresolvable trace topic.
var ErrUnknownTopic = errors.New("core: unknown trace topic")

// TDNResolver resolves advertisements through a TDN client.
func TDNResolver(c *tdn.Client) AdResolver {
	return ResolverFunc(func(id ident.UUID) (*tdn.Advertisement, error) {
		ad, err := c.Lookup(id)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownTopic, err)
		}
		return ad, nil
	})
}

// NodeResolver resolves advertisements from an in-process TDN node.
func NodeResolver(n *tdn.Node) AdResolver {
	return ResolverFunc(func(id ident.UUID) (*tdn.Advertisement, error) {
		ad, ok := n.Lookup(id)
		if !ok {
			return nil, ErrUnknownTopic
		}
		return ad, nil
	})
}

// CachingResolver memoizes another resolver; brokers route many traces
// per topic, so the TDN lookup should happen once.
type CachingResolver struct {
	inner AdResolver
	mu    sync.RWMutex
	cache map[ident.UUID]*tdn.Advertisement
}

// NewCachingResolver wraps inner with an unbounded memo (topics are
// UUIDs created once per traced entity; the population is small).
func NewCachingResolver(inner AdResolver) *CachingResolver {
	return &CachingResolver{inner: inner, cache: make(map[ident.UUID]*tdn.Advertisement)}
}

// ResolveAd implements AdResolver.
func (cr *CachingResolver) ResolveAd(id ident.UUID) (*tdn.Advertisement, error) {
	cr.mu.RLock()
	ad, ok := cr.cache[id]
	cr.mu.RUnlock()
	if ok {
		return ad, nil
	}
	ad, err := cr.inner.ResolveAd(id)
	if err != nil {
		return nil, err
	}
	cr.mu.Lock()
	cr.cache[id] = ad
	cr.mu.Unlock()
	return ad, nil
}

// Put primes the cache; the hosting broker inserts advertisements it
// learned from registrations.
func (cr *CachingResolver) Put(ad *tdn.Advertisement) {
	cr.mu.Lock()
	cr.cache[ad.TopicID] = ad
	cr.mu.Unlock()
}

// VerifyTrace performs the full §4.3 validation of a broker-published
// trace message: the attached authorization token must be signed by the
// owner of the trace topic (resolved through the advertisement), must
// not be expired (within the clock-skew tolerance), must delegate
// publish rights, and the envelope must be signed with the token's
// randomly generated delegate key.
func VerifyTrace(env *message.Envelope, traceTopic ident.UUID, resolver AdResolver,
	verifier *credential.Verifier, now time.Time, skew time.Duration) error {
	_, err := verifyTraceFull(env, traceTopic, resolver, verifier, now, skew)
	return err
}

// verifyTraceFull is the uncached pipeline; on success it also returns
// the established facts so VerifyTraceCached can memoize them.
func verifyTraceFull(env *message.Envelope, traceTopic ident.UUID, resolver AdResolver,
	verifier *credential.Verifier, now time.Time, skew time.Duration) (*verifiedToken, error) {
	if len(env.Token) == 0 {
		mDropNoToken.Inc()
		return nil, errors.New("core: trace message lacks authorization token")
	}
	tok, err := token.Unmarshal(env.Token)
	if err != nil {
		mDropBadToken.Inc()
		return nil, fmt.Errorf("core: trace token: %w", err)
	}
	if tok.TraceTopic != traceTopic {
		mDropBadToken.Inc()
		return nil, fmt.Errorf("core: token topic %v does not match message topic %v", tok.TraceTopic, traceTopic)
	}
	ad, err := resolver.ResolveAd(traceTopic)
	if err != nil {
		mDropUnknownTopic.Inc()
		return nil, err
	}
	ownerPub, err := ad.Verify(verifier, now)
	if err != nil {
		mDropBadAd.Inc()
		return nil, fmt.Errorf("core: advertisement: %w", err)
	}
	if tok.Owner != ad.Owner {
		mDropUnauthorized.Inc()
		return nil, fmt.Errorf("core: token owner %q is not topic owner %q", tok.Owner, ad.Owner)
	}
	delegatePub, err := tok.Verify(ownerPub, now, skew, token.RightPublish)
	if err != nil {
		mDropUnauthorized.Inc()
		return nil, fmt.Errorf("core: token: %w", err)
	}
	if err := env.VerifySignature(delegatePub, traceSigHash); err != nil {
		mDropBadSignature.Inc()
		return nil, fmt.Errorf("core: delegate signature: %w", err)
	}
	return &verifiedToken{
		topic:     traceTopic,
		ad:        ad,
		delegate:  delegatePub,
		notBefore: tok.NotBefore,
		notAfter:  tok.NotAfter,
	}, nil
}

// VerifyTraceCached is VerifyTrace accelerated by a verified-token
// cache. On a hit — byte-identical token already verified — only the
// cheap per-message conditions re-run: topic match, advertisement
// identity, skew-tolerant validity-window check against now, and the one
// unavoidable RSA verification of the envelope's delegate signature. The
// expensive X.509 advertisement chain and RSA token-owner checks are
// skipped. Any stale or inapplicable entry (expired window, different
// advertisement, different topic) is invalidated and the full pipeline
// re-runs, so rejections carry exactly the uncached error and drop
// reason. A nil cache degenerates to VerifyTrace.
func VerifyTraceCached(env *message.Envelope, traceTopic ident.UUID, resolver AdResolver,
	verifier *credential.Verifier, now time.Time, skew time.Duration, cache *TokenCache) error {
	_, err := verifyTraceCachedOutcome(env, traceTopic, resolver, verifier, now, skew, cache)
	return err
}

// verifyTraceCachedOutcome is VerifyTraceCached also reporting how the
// verified-token cache participated (the Guard.Verify verdict label).
func verifyTraceCachedOutcome(env *message.Envelope, traceTopic ident.UUID, resolver AdResolver,
	verifier *credential.Verifier, now time.Time, skew time.Duration, cache *TokenCache) (string, error) {
	if cache == nil {
		return cacheBypass, VerifyTrace(env, traceTopic, resolver, verifier, now, skew)
	}
	if len(env.Token) == 0 {
		mDropNoToken.Inc()
		return cacheMiss, errors.New("core: trace message lacks authorization token")
	}
	d := sha256.Sum256(env.Token)
	outcome := cacheMiss
	if e, ok := cache.lookup(d); ok {
		if valid, err := applyCached(env, e, traceTopic, resolver, verifier, now, skew); valid {
			cache.hits.Inc()
			return cacheHit, err
		}
		// Stale: expired mid-cache, advertisement replaced, or topic
		// mismatch. Drop the entry and fall through so the rejection (or
		// re-acceptance under a renewed advertisement) is byte-identical
		// to the uncached path.
		cache.invalidate(d)
		outcome = cacheStale
	}
	cache.misses.Inc()
	e, err := verifyTraceFull(env, traceTopic, resolver, verifier, now, skew)
	if err != nil {
		return outcome, err
	}
	cache.insert(d, e)
	return outcome, nil
}

// applyCached re-validates the per-hit conditions for a cache entry.
// valid=false means the entry no longer applies and the caller must fall
// back to the full pipeline; valid=true means the entry settled the
// verification with the returned error (nil for accept, or the delegate
// signature rejection).
func applyCached(env *message.Envelope, e *verifiedToken, traceTopic ident.UUID,
	resolver AdResolver, verifier *credential.Verifier, now time.Time, skew time.Duration) (valid bool, err error) {
	if e.topic != traceTopic {
		return false, nil
	}
	ad, adErr := resolver.ResolveAd(traceTopic)
	if adErr != nil || ad != e.ad {
		return false, nil
	}
	// The advertisement's own lifetime is clock-checked here (the cheap
	// half of ad.Verify); past it the entry is stale and the full
	// pipeline reproduces the uncached bad_advertisement rejection.
	if now.UnixNano() > ad.ExpiresAt {
		return false, nil
	}
	nb := time.Unix(0, e.notBefore).Add(-skew)
	na := time.Unix(0, e.notAfter).Add(skew)
	if now.Before(nb) || now.After(na) {
		return false, nil
	}
	// The per-message delegate-signature verification is never cached:
	// every envelope's signature is distinct and must be checked.
	if sigErr := env.VerifySignature(e.delegate, traceSigHash); sigErr != nil {
		mDropBadSignature.Inc()
		return true, fmt.Errorf("core: delegate signature: %w", sigErr)
	}
	return true, nil
}

// GuardConfig configures the trace authorization guard.
type GuardConfig struct {
	// Resolver resolves a trace topic to its advertisement (required).
	Resolver AdResolver
	// Verifier validates advertisement credential chains (required).
	Verifier *credential.Verifier
	// Clock times each verdict Admit records on the flight recorder; nil
	// means clock.Real. The verification instant is the caller's: Admit
	// is handed its broker's ingress reading, and Verify takes now.
	Clock clock.Clock
	// Cache memoizes verified tokens so a steady-state RSA trace pays
	// only its per-message delegate-signature check; nil disables it.
	Cache *TokenCache
	// Flight receives one FlightGuard event per verdict Admit reaches:
	// drops always, accepts when the broker sampled the envelope — the
	// broker's ingress decision is the one sampling decision (PROTOCOL.md
	// §3.5), and the guard draws none of its own. Brokers share the
	// recorder with broker.Config.Flight so a trace's guard verdict
	// interleaves with its routing events. Nil records nothing.
	Flight *obs.FlightRecorder
	// Sessions holds the installed §6.3 session keys. Nil means this
	// verifier takes no part in session keys: a session-tagged envelope
	// is dropped as session_unsupported, without scoring its sender.
	Sessions *SessionStore
}

// Guard is the one trace authorization point of §4.3/§5.2: a message on
// a trace derivative topic must prove its token chain — by session tag,
// by a cached verification or by the full chain — or it is "discarded
// and not routed within the network". Brokers enforce it on every
// envelope through Admit; trackers call Verify on what they receive.
type Guard struct {
	resolver AdResolver
	verifier *credential.Verifier
	clk      clock.Clock
	cache    *TokenCache
	flight   *obs.FlightRecorder
	sessions *SessionStore
	// onUnknown is atomic because its owner binds it after the guard may
	// already be vetting traffic (the guard exists before the broker
	// node, the trace manager after it).
	onUnknown atomic.Pointer[func(ident.UUID, [secure.SessionIDLen]byte)]
}

// NewGuard builds a guard from cfg.
func NewGuard(cfg GuardConfig) *Guard {
	g := &Guard{
		resolver: cfg.Resolver,
		verifier: cfg.Verifier,
		clk:      cfg.Clock,
		cache:    cfg.Cache,
		flight:   cfg.Flight,
		sessions: cfg.Sessions,
	}
	if g.clk == nil {
		g.clk = clock.Real{}
	}
	return g
}

// OnUnknownSession binds the renegotiation hook: fn runs, outside any
// lock and on the verifying goroutine, for every session_unknown
// verdict, so its owner can publish a SESSION_KEY_REQUEST. Owners
// rate-limit and must not publish re-entrantly.
func (g *Guard) OnUnknownSession(fn func(traceTopic ident.UUID, sessionID [secure.SessionIDLen]byte)) {
	g.onUnknown.Store(&fn)
}

// Verdict labels returned by Verify and recorded as a guard flight
// event's Cache field: which stage settled the envelope, and how.
const (
	cacheBypass         = "bypass"          // full chain; no cache configured
	cacheHit            = "hit"             // byte-identical token already verified
	cacheStale          = "stale"           // entry invalidated; full chain re-ran
	cacheMiss           = "miss"            // unseen token; full chain ran
	cacheSession        = "session"         // session tag verified
	cacheSessionUnknown = "session_unknown" // tag referenced an uninstalled session
	cacheSessionReject  = "session_reject"  // tag, window or topic check failed, or no store
)

// Verify decides whether env is an authorized message of traceTopic at
// now, trying the cheapest sufficient proof first: the session tag when
// the envelope carries one, else the verified-token cache, else the full
// §4.3 chain. It is the only place the choice between the three stages
// is made. It returns the verdict label with the stage's own error, and
// counts every rejection under its traces_dropped_total reason.
func (g *Guard) Verify(env *message.Envelope, traceTopic ident.UUID, now time.Time) (outcome string, err error) {
	if env.Flags&message.FlagSessionTag == 0 {
		return verifyTraceCachedOutcome(env, traceTopic, g.resolver, g.verifier, now, token.DefaultClockSkew, g.cache)
	}
	if g.sessions == nil {
		mDropSessionUnsupported.Inc()
		return cacheSessionReject, ErrSessionUnsupported
	}
	err = VerifyTraceSession(env, traceTopic, g.sessions, now, token.DefaultClockSkew)
	switch {
	case err == nil:
		return cacheSession, nil
	case !errors.Is(err, ErrUnknownSession):
		return cacheSessionReject, err
	}
	if fn := g.onUnknown.Load(); fn != nil {
		if sid, sidErr := env.SessionID(); sidErr == nil {
			(*fn)(traceTopic, sid)
		}
	}
	return cacheSessionUnknown, err
}

// Admit is the broker.Guard: envelopes on trace derivative topics
// (Table 2) must pass Verify at now, the broker's ingress reading; every
// other topic passes through. Each rejection, and each acceptance of an
// envelope the broker sampled, is recorded once on the flight recorder,
// with the rejection reason, the stage that settled it and the
// verification's cost.
func (g *Guard) Admit(env *message.Envelope, from topic.Principal, now time.Time, sampled bool) error {
	tt, isTrace := topic.TraceTopicOf(env.Topic)
	if !isTrace {
		return nil
	}
	var start time.Time
	if g.flight != nil {
		start = g.clk.Now()
	}
	outcome, err := g.Verify(env, tt, now)
	if g.flight != nil && (err != nil || sampled) {
		ev := obs.FlightEvent{
			Kind:     obs.FlightGuard,
			Trace:    flightTraceID(env),
			Topic:    env.Topic.String(),
			Cache:    outcome,
			DurNanos: g.clk.Now().Sub(start).Nanoseconds(),
		}
		if from.IsBroker {
			ev.Peer = "broker"
		} else {
			ev.Peer = string(from.Entity)
		}
		if err != nil {
			ev.Reason = err.Error()
		}
		g.flight.Record(ev)
	}
	return err
}

// flightTraceID derives the flight correlation ID for an envelope: the
// span's trace ID when it carries one, its own ID otherwise.
func flightTraceID(env *message.Envelope) obs.FlightTrace {
	if env.Span != nil {
		return obs.FlightTrace(env.Span.TraceID)
	}
	return obs.FlightTrace(env.ID)
}
