package core

import (
	"crypto/rsa"
	"crypto/sha256"
	"sync"

	"entitytrace/internal/ident"
	"entitytrace/internal/obs"
	"entitytrace/internal/tdn"
)

// The two guard-cache names the telemetry tick also publishes, per
// broker, from the cache's own counters.
const (
	guardCacheHitsName   = "guard_cache_hits_total"
	guardCacheMissesName = "guard_cache_misses_total"
)

// DefaultTokenCacheSize bounds the verified-token cache when callers do
// not choose a size. One entry exists per distinct token byte string; an
// entity re-delegates once per token validity window, so even large
// broker populations stay far below this.
const DefaultTokenCacheSize = 4096

// tokenDigest keys the cache: a SHA-256 over the raw token bytes
// attached to the envelope. Any change to the token — a tampered byte, a
// re-issued delegation, a rotated topic's fresh token — changes the
// digest, so a cached verdict can never be applied to different bytes.
type tokenDigest = [sha256.Size]byte

// verifiedToken is one cached §4.3 verification outcome: the facts that
// were established by the expensive checks (X.509 advertisement chain,
// RSA token-owner signature, delegate-key parse) and everything needed
// to re-validate the cheap, per-message conditions on each hit.
type verifiedToken struct {
	// topic is the trace topic the token delegates publish rights on; a
	// hit only applies to envelopes for this exact topic.
	topic ident.UUID
	// ad is the advertisement the token was verified against. Compared
	// by pointer on every hit: if the resolver now returns a different
	// advertisement (topic re-registered, cache re-primed, rotation) the
	// entry is stale and the full pipeline re-runs.
	ad *tdn.Advertisement
	// delegate is the parsed randomly generated public key; the one
	// per-message RSA verification always runs against it.
	delegate *rsa.PublicKey
	// notBefore/notAfter are the token's validity bounds (Unix nanos),
	// clock-checked with skew tolerance on every hit so expiry is
	// honoured mid-cache.
	notBefore, notAfter int64
}

// TokenCache memoizes successful §4.3 token verifications so steady-state
// traces pay only the one unavoidable per-message delegate-signature
// verification. It is bounded (a full cache evicts the token put longest
// ago) and safe for concurrent use; hits take only a read lock. A nil
// *TokenCache is valid and means caching disabled — every call falls
// through to the full pipeline.
type TokenCache struct {
	mu      sync.RWMutex
	entries *bounded[tokenDigest, *verifiedToken]

	// The cache's counters, on its own child of obs.Default: one Inc
	// counts for this cache (the telemetry rows) and into the
	// process-wide total of the same name.
	hits, misses, evictions, invalidations *obs.Counter
}

// NewTokenCache creates a cache bounded to size entries; size <= 0
// selects DefaultTokenCacheSize. Callers that want caching disabled pass
// a nil *TokenCache instead.
func NewTokenCache(size int) *TokenCache {
	if size <= 0 {
		size = DefaultTokenCacheSize
	}
	reg := obs.Default.Child()
	return &TokenCache{
		entries:       newBounded[tokenDigest, *verifiedToken](size),
		hits:          reg.Counter(guardCacheHitsName),
		misses:        reg.Counter(guardCacheMissesName),
		evictions:     reg.Counter("guard_cache_evictions_total"),
		invalidations: reg.Counter("guard_cache_invalidations_total"),
	}
}

// lookup returns the cached entry for the digest, if any. It counts
// neither a hit nor a miss: the caller decides after re-validating the
// per-hit conditions (topic match, advertisement identity, validity
// window).
func (c *TokenCache) lookup(d tokenDigest) (*verifiedToken, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	e, ok := c.entries.get(d)
	c.mu.RUnlock()
	return e, ok
}

// insert stores a freshly verified token as the newest entry, evicting
// the oldest when full.
func (c *TokenCache) insert(d tokenDigest, e *verifiedToken) {
	if c == nil {
		return
	}
	c.mu.Lock()
	evicted := c.entries.put(d, e)
	c.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// invalidate drops one entry (stale hit: expired window, changed
// advertisement, rotated topic).
func (c *TokenCache) invalidate(d tokenDigest) {
	if c == nil {
		return
	}
	c.mu.Lock()
	present := c.entries.remove(d)
	c.mu.Unlock()
	if present {
		c.invalidations.Inc()
	}
}

// Len reports the number of live entries.
func (c *TokenCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries.len()
}
