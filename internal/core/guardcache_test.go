package core

import (
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// cacheFixture is a verified-trace setup shared by the cache tests: a
// TDN topic owned by name, a publish delegation, and a factory for
// freshly signed trace envelopes carrying the delegation's token.
type cacheFixture struct {
	node     *tdn.Node
	ad       *tdn.Advertisement
	resolver *CachingResolver
	signer   *secure.Signer // topic owner
	del      *token.Delegation
	delegate *secure.Signer // token's random delegate key
	env      func() *message.Envelope
}

func newCacheFixture(t testing.TB, name ident.EntityID, validFor time.Duration, now time.Time) *cacheFixture {
	t.Helper()
	fixture(t)
	node, err := tdn.NewNode(fxTDNIdent, fxVerifier)
	if err != nil {
		t.Fatal(err)
	}
	owner := issue(t, name)
	signer, _ := owner.Signer(secure.SHA1)
	req := &tdn.CreateRequest{
		Owner:      name,
		OwnerCert:  owner.Credential.Cert,
		Descriptor: "Availability/Traces/" + string(name),
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
	del, err := token.Grant(name, ad.TopicID, token.RightPublish, validFor, now, signer, secure.PaperRSABits)
	if err != nil {
		t.Fatal(err)
	}
	delegate, _ := secure.NewSigner(del.PrivateKey, traceSigHash)
	f := &cacheFixture{
		node:     node,
		ad:       ad,
		resolver: NewCachingResolver(NodeResolver(node)),
		signer:   signer,
		del:      del,
		delegate: delegate,
	}
	f.env = func() *message.Envelope {
		te := &message.TraceEvent{Entity: name, TraceTopic: ad.TopicID, Detail: "ok"}
		env := message.New(message.TraceAllsWell, topic.AllUpdates(ad.TopicID), "", te.Marshal())
		env.Token = del.Token.Marshal()
		if err := env.Sign(delegate); err != nil {
			t.Fatal(err)
		}
		return env
	}
	return f
}

// TestTokenCacheHitMiss verifies the basic memoization contract: the
// first verification of a token is a miss that fills the cache, every
// subsequent byte-identical token is a hit, and the verdicts match the
// uncached pipeline exactly.
func TestTokenCacheHitMiss(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-hitmiss", time.Hour, now)
	cache := NewTokenCache(16)

	for i := 0; i < 5; i++ {
		env := f.env()
		if err := VerifyTraceCached(env, f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
		if err := VerifyTrace(env, f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew); err != nil {
			t.Fatalf("uncached verify %d disagrees: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss then 4 hits", st)
	}
	if st.Size != 1 {
		t.Fatalf("size = %d, want 1 (one distinct token)", st.Size)
	}

	// A hit must still reject a tampered envelope: the per-message
	// delegate signature is never cached.
	env := f.env()
	env.Payload = append(env.Payload, 'x')
	if err := VerifyTraceCached(env, f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err == nil {
		t.Fatal("tampered payload accepted on cache hit")
	}
}

// TestTokenCacheCountsOncePerInstance runs two caches in one process and
// hits only one: each Stats sees its own hits, and the process-wide
// counter rises by exactly those hits — each event is counted once.
func TestTokenCacheCountsOncePerInstance(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-instances", time.Hour, now)
	busy, idle := NewTokenCache(16), NewTokenCache(16)
	verify := func() {
		t.Helper()
		if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, busy); err != nil {
			t.Fatal(err)
		}
	}
	verify() // the miss that fills the cache
	process := obs.Default.Counter(guardCacheHitsName)
	before := process.Value()
	const n = 7
	for i := 0; i < n; i++ {
		verify()
	}
	if got := busy.Stats().Hits; got != n {
		t.Errorf("busy cache hits = %d, want %d", got, n)
	}
	if got := idle.Stats().Hits; got != 0 {
		t.Errorf("idle cache hits = %d, want 0", got)
	}
	if got := process.Value() - before; got != n {
		t.Errorf("process %s rose by %d, want %d", guardCacheHitsName, got, n)
	}
}

// TestTokenCacheNilDisabled checks that a nil cache reproduces the
// uncached behaviour (the -guard-cache=0 contract).
func TestTokenCacheNilDisabled(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-nil", time.Hour, now)
	var cache *TokenCache
	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("nil-cache verify: %v", err)
	}
	if st := cache.Stats(); st != (TokenCacheStats{}) {
		t.Fatalf("nil cache reported stats %+v", st)
	}
	if cache.Len() != 0 {
		t.Fatal("nil cache reported entries")
	}
}

// TestTokenCacheExpiryMidCache drives a fake clock past the token's
// validity window while the token sits in the cache: the stale entry
// must be invalidated and the rejection must be the uncached
// token.ErrExpired, not a cached acceptance.
func TestTokenCacheExpiryMidCache(t *testing.T) {
	now := time.Now()
	const validFor = time.Minute
	f := newCacheFixture(t, "gc-expiry", validFor, now)
	cache := NewTokenCache(16)

	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("initial verify: %v", err)
	}
	// Still inside the window (and the skew tolerance): hit.
	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now.Add(30*time.Second), token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("mid-window verify: %v", err)
	}
	// Clock jumps past NotAfter+skew: the cached verdict must not apply.
	late := now.Add(validFor + token.DefaultClockSkew + time.Second)
	err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, late, token.DefaultClockSkew, cache)
	if !errors.Is(err, token.ErrExpired) {
		t.Fatalf("expired-mid-cache verify = %v, want token.ErrExpired", err)
	}
	st := cache.Stats()
	if st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want the stale entry invalidated", st)
	}
	if cache.Len() != 0 {
		t.Fatalf("expired entry still cached (len=%d)", cache.Len())
	}
	// The rejection must match the uncached pipeline byte-for-byte.
	uncached := VerifyTrace(f.env(), f.ad.TopicID, f.resolver, fxVerifier, late, token.DefaultClockSkew)
	if uncached == nil || err.Error() != uncached.Error() {
		t.Fatalf("cached rejection %q != uncached %q", err, uncached)
	}
}

// TestTokenCacheAdChangeInvalidates replaces the resolver's
// advertisement (what a topic re-registration or §5.2 rotation does to
// the hosting broker's view) and checks the cached entry is dropped and
// the trace re-verified against the new advertisement.
func TestTokenCacheAdChangeInvalidates(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-adchange", time.Hour, now)
	cache := NewTokenCache(16)

	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("initial verify: %v", err)
	}
	// Re-prime the resolver with a distinct (but equivalent) object, as a
	// replication or re-registration would.
	ad2, err := tdn.UnmarshalAdvertisement(f.ad.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	f.resolver.Put(ad2)

	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("verify after ad change: %v", err)
	}
	st := cache.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (stale advertisement)", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (initial + re-verify)", st.Misses)
	}
	// The re-verified entry is pinned to the new advertisement: hit.
	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("verify after re-fill: %v", err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("stats = %+v, want a hit against the re-filled entry", st)
	}
}

// TestTokenCacheTopicMismatchNoHit caches a verdict for one topic and
// replays the same token bytes on a different trace topic (the rotated
// topic replay): the entry must not apply and the full pipeline must
// reject the cross-topic token.
func TestTokenCacheTopicMismatchNoHit(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-rotate", time.Hour, now)
	cache := NewTokenCache(16)

	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("initial verify: %v", err)
	}
	otherTopic := ident.NewUUID()
	env := f.env()
	if err := VerifyTraceCached(env, otherTopic, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err == nil {
		t.Fatal("old-topic token accepted on a different trace topic")
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (topic mismatch must never hit)", st.Hits)
	}
}

// TestTokenCacheTamperNeverHits verifies tampered tokens sharing a long
// prefix with a cached token can never ride the cached verdict: the
// SHA-256 key covers every byte.
func TestTokenCacheTamperNeverHits(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-tamper", time.Hour, now)
	cache := NewTokenCache(16)

	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("initial verify: %v", err)
	}
	// Flip the final byte: maximal prefix collision with the cached
	// token, but a different digest and an invalid owner signature.
	env := f.env()
	env.Token = append([]byte(nil), env.Token...)
	env.Token[len(env.Token)-1] ^= 0xff
	if err := env.Sign(f.delegate); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTraceCached(env, f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err == nil {
		t.Fatal("tampered token accepted")
	}
	st := cache.Stats()
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (tampered token must miss)", st.Hits)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
	// The genuine token must still hit afterwards.
	if err := VerifyTraceCached(f.env(), f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
		t.Fatalf("genuine token after tamper attempt: %v", err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

// TestTokenCacheBounded floods the cache with 10k distinct digests and
// checks occupancy never exceeds the configured bound (FIFO eviction,
// no unbounded growth under hostile token churn).
func TestTokenCacheBounded(t *testing.T) {
	const capacity = 64
	cache := NewTokenCache(capacity)
	e := &verifiedToken{}
	var d tokenDigest
	for i := 0; i < 10000; i++ {
		d = sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		cache.insert(d, e)
		if n := cache.Len(); n > capacity {
			t.Fatalf("len = %d after %d inserts, bound %d", n, i+1, capacity)
		}
	}
	st := cache.Stats()
	if st.Size != capacity {
		t.Fatalf("size = %d, want %d", st.Size, capacity)
	}
	if st.Capacity != capacity {
		t.Fatalf("capacity = %d, want %d", st.Capacity, capacity)
	}
	if want := uint64(10000 - capacity); st.Evictions != want {
		t.Fatalf("evictions = %d, want %d", st.Evictions, want)
	}
	// The newest digest survived; re-inserting it must not evict.
	cache.insert(d, e)
	if st2 := cache.Stats(); st2.Evictions != st.Evictions {
		t.Fatalf("refreshing a present digest evicted (%d -> %d)", st.Evictions, st2.Evictions)
	}

	// Default sizing: non-positive selects the documented default.
	if got := NewTokenCache(0).Stats().Capacity; got != DefaultTokenCacheSize {
		t.Fatalf("NewTokenCache(0) capacity = %d, want %d", got, DefaultTokenCacheSize)
	}
}

// TestTokenCacheConcurrentStress hammers one cache from concurrent
// verifiers, an invalidator, and a stats reader; run under -race it
// proves the lock discipline. Correctness demand: every verification
// verdict stays accept.
func TestTokenCacheConcurrentStress(t *testing.T) {
	now := time.Now()
	f := newCacheFixture(t, "gc-stress", time.Hour, now)
	cache := NewTokenCache(8)
	env := f.env() // shared read-only envelope: verification does not mutate

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := VerifyTraceCached(env, f.ad.TopicID, f.resolver, fxVerifier, now, token.DefaultClockSkew, cache); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cache.InvalidateAll()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = cache.Stats()
			_ = cache.Len()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent verify failed: %v", err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*iters)
	}
}
