package secure

import (
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"errors"
	"fmt"
	"hash"
	"sync"
	"time"

	"entitytrace/internal/wire"
)

// This file implements the §6.3 signing-cost optimization for the trace
// path: after the first successful token + RSA verification of a
// publisher on a topic, publisher and verifiers share a per-session
// symmetric key and subsequent envelopes carry an HMAC-SHA256 session
// tag instead of a per-message RSA delegate signature. The key is never
// sent in the clear: the publisher generates a random session secret,
// seals it to each verifier's RSA credential (the §5.1 trace-key
// construction), and both sides derive the tag key with HKDF-SHA256
// from the secret and a public nonce.

// Session wire sizes.
const (
	// SessionIDLen is the length of a session identifier.
	SessionIDLen = 16
	// SessionSecretLen is the length of the random session secret from
	// which the tag key is derived.
	SessionSecretLen = 32
	// SessionNonceLen is the length of the public HKDF salt nonce.
	SessionNonceLen = 16
	// SessionKeyLen is the length of the derived HMAC key.
	SessionKeyLen = 32
	// SessionTagLen is the length of an HMAC-SHA256 session tag.
	SessionTagLen = sha256.Size
)

// ErrBadSessionTag reports a session tag that failed verification:
// wrong key, tampered content, or a truncated tag.
var ErrBadSessionTag = errors.New("secure: session tag verification failed")

// hkdfExtract is the RFC 5869 extract step: PRK = HMAC-Hash(salt, IKM).
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// hkdfExpand is the RFC 5869 expand step: OKM = T(1) | T(2) | ... with
// T(i) = HMAC-Hash(PRK, T(i-1) | info | i).
func hkdfExpand(prk, info []byte, length int) ([]byte, error) {
	if length <= 0 || length > 255*sha256.Size {
		return nil, fmt.Errorf("secure: invalid HKDF output length %d", length)
	}
	out := make([]byte, 0, length)
	var t []byte
	for i := byte(1); len(out) < length; i++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(t)
		mac.Write(info)
		mac.Write([]byte{i})
		t = mac.Sum(nil)
		out = append(out, t...)
	}
	return out[:length], nil
}

// HKDF derives length bytes of key material from secret with the RFC
// 5869 HKDF-SHA256 construction (extract with salt, then expand with
// info). Implemented directly on crypto/hmac so the module keeps its
// go 1.22 floor.
func HKDF(secret, salt, info []byte, length int) ([]byte, error) {
	return hkdfExpand(hkdfExtract(salt, secret), info, length)
}

// sessionKeyInfo is the HKDF info-string prefix binding derived keys to
// this protocol and version.
const sessionKeyInfo = "entitytrace/session-key/v1"

// SessionParams is the negotiated material one verifier needs to check
// a publisher's session tags: the session identifier, the secret and
// nonce the tag key derives from, the digest of the authorization token
// the session is bound to, and the validity window. The whole struct
// travels only inside a SealedPayload addressed to the verifier's RSA
// credential — an RSA-encrypted nonce exchange.
type SessionParams struct {
	// ID identifies the session on the wire (it prefixes every tag).
	ID [SessionIDLen]byte
	// Secret is the random input keying material (never on the wire in
	// the clear).
	Secret []byte
	// Nonce is the public HKDF salt.
	Nonce []byte
	// TokenDigest is the SHA-256 of the raw authorization-token bytes
	// this session amortizes; token rotation changes the digest and
	// forces a rekey.
	TokenDigest [32]byte
	// NotBefore and NotAfter bound the session validity window in Unix
	// nanoseconds. The window never extends past the bound token's own
	// window.
	NotBefore int64
	NotAfter  int64
}

// NewSessionParams creates fresh session parameters: random ID, secret
// and nonce, bound to tokenDigest and valid over [notBefore, notAfter].
func NewSessionParams(tokenDigest [32]byte, notBefore, notAfter int64) (*SessionParams, error) {
	if notAfter <= notBefore {
		return nil, errors.New("secure: empty session validity window")
	}
	raw, err := RandomBytes(SessionIDLen + SessionSecretLen + SessionNonceLen)
	if err != nil {
		return nil, err
	}
	p := &SessionParams{
		Secret:      raw[SessionIDLen : SessionIDLen+SessionSecretLen],
		Nonce:       raw[SessionIDLen+SessionSecretLen:],
		TokenDigest: tokenDigest,
		NotBefore:   notBefore,
		NotAfter:    notAfter,
	}
	copy(p.ID[:], raw[:SessionIDLen])
	return p, nil
}

// Derive computes the session tag key with HKDF-SHA256. The info string
// binds the key to the protocol version, the session ID, the trace
// topic and the publishing principal, so a key derived for one context
// verifies nothing in another.
func (p *SessionParams) Derive(traceTopic, principal string) (*SessionKey, error) {
	if len(p.Secret) != SessionSecretLen {
		return nil, fmt.Errorf("secure: session secret length %d, want %d", len(p.Secret), SessionSecretLen)
	}
	info := make([]byte, 0, len(sessionKeyInfo)+SessionIDLen+len(traceTopic)+len(principal)+3)
	info = append(info, sessionKeyInfo...)
	info = append(info, 0)
	info = append(info, p.ID[:]...)
	info = append(info, 0)
	info = append(info, traceTopic...)
	info = append(info, 0)
	info = append(info, principal...)
	key, err := HKDF(p.Secret, p.Nonce, info, SessionKeyLen)
	if err != nil {
		return nil, err
	}
	return &SessionKey{
		id:          p.ID,
		mac:         newMacKey(key),
		tokenDigest: p.TokenDigest,
		notBefore:   p.NotBefore,
		notAfter:    p.NotAfter,
	}, nil
}

// macKey is an HMAC-SHA256 key whose key schedule ran once, at
// construction: per message, tagging restores the precomputed inner and
// outer states into pooled digests and hashes only the data — the key
// block compressions and the hmac.New allocations are paid once per key
// instead of once per message. The output is byte-identical HMAC-SHA256
// (TestSessionTagMatchesHMAC, TestSymmetricKeyMatchesFreshPrimitives). It
// is immutable and safe for concurrent use.
type macKey struct {
	key []byte
	// istate and ostate hold the marshaled SHA-256 states after absorbing
	// the ipad- and opad-masked key blocks; nil disables the fast path.
	istate, ostate []byte
}

// newMacKey runs the key schedule for key, which must not exceed the
// SHA-256 block size (session and AES keys never do), so it is never
// pre-hashed.
func newMacKey(key []byte) macKey {
	istate, ostate := precomputeMacStates(key)
	return macKey{key: key, istate: istate, ostate: ostate}
}

// precomputeMacStates returns the marshaled SHA-256 states after
// absorbing the ipad- and opad-masked key blocks, or nils if the hash
// does not support state marshaling.
func precomputeMacStates(key []byte) (istate, ostate []byte) {
	var ipad, opad [sha256.BlockSize]byte
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	marshal := func(block []byte) []byte {
		h := sha256.New()
		h.Write(block)
		m, ok := h.(encoding.BinaryMarshaler)
		if !ok {
			return nil
		}
		state, err := m.MarshalBinary()
		if err != nil {
			return nil
		}
		return state
	}
	istate, ostate = marshal(ipad[:]), marshal(opad[:])
	if istate == nil || ostate == nil {
		return nil, nil
	}
	return istate, ostate
}

// macScratch pools the two transient SHA-256 digests a precomputed-state
// tag computation restores into, plus the inner-sum and tag buffers:
// brokers tag-verify every forwarded trace, so these would otherwise be
// pure hot-path garbage.
type macScratch struct {
	inner, outer hash.Hash
	sum, tag     [sha256.Size]byte
}

var macPool = sync.Pool{
	New: func() any { return &macScratch{inner: sha256.New(), outer: sha256.New()} },
}

// tagInto computes the HMAC-SHA256 tag over the concatenation of parts
// into s.tag and returns it.
func (m *macKey) tagInto(s *macScratch, parts [][]byte) []byte {
	iu := s.inner.(encoding.BinaryUnmarshaler)
	ou := s.outer.(encoding.BinaryUnmarshaler)
	if m.istate == nil || iu.UnmarshalBinary(m.istate) != nil || ou.UnmarshalBinary(m.ostate) != nil {
		mac := hmac.New(sha256.New, m.key)
		for _, p := range parts {
			mac.Write(p)
		}
		return mac.Sum(s.tag[:0])
	}
	for _, p := range parts {
		s.inner.Write(p)
	}
	s.outer.Write(s.inner.Sum(s.sum[:0]))
	return s.outer.Sum(s.tag[:0])
}

// appendTag appends the HMAC-SHA256 tag over the concatenation of parts
// to dst.
func (m *macKey) appendTag(dst []byte, parts ...[]byte) []byte {
	s := macPool.Get().(*macScratch)
	dst = append(dst, m.tagInto(s, parts)...)
	macPool.Put(s)
	return dst
}

// verify checks tag against the HMAC-SHA256 over the concatenation of
// parts, in constant time.
func (m *macKey) verify(tag []byte, parts ...[]byte) bool {
	s := macPool.Get().(*macScratch)
	ok := subtle.ConstantTimeCompare(m.tagInto(s, parts), tag) == 1
	macPool.Put(s)
	return ok
}

// Marshal serializes the parameters (pre-sealing).
func (p *SessionParams) Marshal() []byte {
	w := wire.Writer{Buf: make([]byte, 0, SessionIDLen+2+len(p.Secret)+2+len(p.Nonce)+32+16)}
	w.Raw(p.ID[:])
	w.Bytes16(p.Secret)
	w.Bytes16(p.Nonce)
	w.Raw(p.TokenDigest[:])
	w.I64(p.NotBefore)
	w.I64(p.NotAfter)
	return w.Buf
}

// UnmarshalSessionParams parses the wire form produced by Marshal.
func UnmarshalSessionParams(b []byte) (*SessionParams, error) {
	r := wire.NewReader(b, wire.MaxSmallField)
	p := &SessionParams{}
	copy(p.ID[:], r.Take(SessionIDLen))
	p.Secret = r.Bytes16()
	p.Nonce = r.Bytes16()
	copy(p.TokenDigest[:], r.Take(32))
	p.NotBefore = r.I64()
	p.NotAfter = r.I64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("secure: malformed session params: %w", err)
	}
	if len(p.Secret) != SessionSecretLen {
		return nil, fmt.Errorf("secure: session secret length %d, want %d", len(p.Secret), SessionSecretLen)
	}
	if p.NotAfter <= p.NotBefore {
		return nil, errors.New("secure: empty session validity window")
	}
	return p, nil
}

// SealTo seals the parameters to a verifier's RSA public key, producing
// the wire blob of a SESSION_KEY_RESPONSE payload.
func (p *SessionParams) SealTo(pub *rsa.PublicKey) ([]byte, error) {
	sealed, err := Seal(pub, p.Marshal())
	if err != nil {
		return nil, err
	}
	return sealed.Marshal()
}

// OpenSessionParams opens a blob produced by SealTo with the verifier's
// private key.
func OpenSessionParams(priv *rsa.PrivateKey, blob []byte) (*SessionParams, error) {
	sealed, err := UnmarshalSealedPayload(blob)
	if err != nil {
		return nil, err
	}
	body, err := sealed.Open(priv)
	if err != nil {
		return nil, err
	}
	return UnmarshalSessionParams(body)
}

// SessionKey is a derived per-session HMAC key with its identity,
// token binding and validity window. It is immutable after derivation
// and safe for concurrent use.
type SessionKey struct {
	id          [SessionIDLen]byte
	mac         macKey
	tokenDigest [32]byte
	notBefore   int64
	notAfter    int64
}

// ID returns the session identifier.
func (k *SessionKey) ID() [SessionIDLen]byte { return k.id }

// TokenDigest returns the SHA-256 of the bound authorization token.
func (k *SessionKey) TokenDigest() [32]byte { return k.tokenDigest }

// Window returns the validity bounds in Unix nanoseconds.
func (k *SessionKey) Window() (notBefore, notAfter int64) { return k.notBefore, k.notAfter }

// ValidAt reports whether the key's window covers now with the given
// clock-skew tolerance — the same acceptance rule token validation
// applies, so the session path and the RSA path agree on expiry.
func (k *SessionKey) ValidAt(now time.Time, skew time.Duration) bool {
	if skew < 0 {
		skew = 0
	}
	n := now.UnixNano()
	return n >= k.notBefore-int64(skew) && n <= k.notAfter+int64(skew)
}

// Tag computes the HMAC-SHA256 session tag over data.
func (k *SessionKey) Tag(data []byte) []byte {
	return k.mac.appendTag(nil, data)
}

// AppendTag appends the session tag over data to dst, avoiding the
// separate allocation of Tag on hot paths.
func (k *SessionKey) AppendTag(dst, data []byte) []byte {
	return k.mac.appendTag(dst, data)
}

// VerifyTag checks a session tag over data in constant time.
func (k *SessionKey) VerifyTag(data, tag []byte) error {
	return k.VerifyTagSplit(data, nil, tag)
}

// VerifyTagSplit checks a session tag over head followed by tail, in
// constant time: a verifier holding the signed bytes in two pieces of a
// received buffer tags them where they lie instead of joining them.
func (k *SessionKey) VerifyTagSplit(head, tail, tag []byte) error {
	if len(tag) != SessionTagLen {
		return fmt.Errorf("%w: tag length %d", ErrBadSessionTag, len(tag))
	}
	if !k.mac.verify(tag, head, tail) {
		return ErrBadSessionTag
	}
	return nil
}
