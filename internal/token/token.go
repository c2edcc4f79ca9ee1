// Package token implements the authorization tokens of §4.3: a traced
// entity explicitly authorizes its hosting broker to publish trace
// information by issuing a signed token containing the trace topic, a
// randomly generated public key, the delegated rights, and a validity
// duration.
//
// The random key pair serves two purposes. First, the broker signs the
// trace messages it publishes with the delegated *private* key, so every
// routing broker can check that the publisher actually holds the
// delegation. Second — as the paper notes — embedding a random key
// instead of the broker's own credential ensures "no other broker within
// the network is aware of the broker that a given traced entity is
// connected to".
package token

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/secure"
	"entitytrace/internal/wire"
)

// Rights enumerates the delegated actions (§4.3 item 3: "either publish
// or subscribe. For a broker, this is set to publish").
type Rights uint8

const (
	// RightPublish delegates publishing.
	RightPublish Rights = 1 << iota
	// RightSubscribe delegates subscribing.
	RightSubscribe
)

// Has reports whether r includes all rights in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// String returns a human-readable rights description.
func (r Rights) String() string {
	switch {
	case r.Has(RightPublish | RightSubscribe):
		return "publish+subscribe"
	case r.Has(RightPublish):
		return "publish"
	case r.Has(RightSubscribe):
		return "subscribe"
	default:
		return "none"
	}
}

// Clock-skew bounds from §4.3: "Use of NTP timestamp ensures that
// timestamps are within 30-100 milliseconds of each other". Validation
// accepts tokens whose window is missed by at most the configured skew.
const (
	MinClockSkew = 30 * time.Millisecond
	MaxClockSkew = 100 * time.Millisecond
	// DefaultClockSkew is the tolerance used when none is specified.
	DefaultClockSkew = MaxClockSkew
)

// Validation errors.
var (
	// ErrExpired reports a token outside its validity window.
	ErrExpired = errors.New("token: outside validity window")
	// ErrBadTokenSignature reports a token not signed by the claimed
	// owner.
	ErrBadTokenSignature = errors.New("token: owner signature invalid")
	// ErrRightsMismatch reports a token lacking the required rights.
	ErrRightsMismatch = errors.New("token: required rights not delegated")
	// ErrMalformed reports an undecodable token.
	ErrMalformed = errors.New("token: malformed")
)

const tokenVersion = 1

// Token is an authorization token (§4.3).
type Token struct {
	// TraceTopic is the UUID trace topic the delegation concerns.
	TraceTopic ident.UUID
	// Owner names the issuing (traced) entity.
	Owner ident.EntityID
	// DelegatePub is the DER-encoded randomly generated public key.
	DelegatePub []byte
	// Rights are the delegated actions.
	Rights Rights
	// NotBefore/NotAfter bound the validity window (Unix nanoseconds).
	NotBefore int64
	NotAfter  int64
	// Signature is the owner's signature over the fields above.
	Signature []byte
	// hash is the digest used for the signature.
	Hash secure.Hash
}

// Delegation couples a token with the delegated private key; the issuing
// entity hands this to its hosting broker.
type Delegation struct {
	Token      *Token
	PrivateKey *rsa.PrivateKey
}

// Grant creates a delegation: it generates a fresh random key pair,
// builds a token delegating rights on traceTopic for the given duration,
// and signs it with the owner's signer. A traced entity "will typically
// keep this duration short enough to correspond to its expected presence
// within the system" (§4.3).
func Grant(owner ident.EntityID, traceTopic ident.UUID, rights Rights,
	validFor time.Duration, now time.Time, ownerSigner *secure.Signer, keyBits int) (*Delegation, error) {
	if err := owner.Validate(); err != nil {
		return nil, err
	}
	if validFor <= 0 {
		return nil, errors.New("token: non-positive validity duration")
	}
	pair, err := secure.GenerateKeyPair(keyBits)
	if err != nil {
		return nil, err
	}
	pubDER, err := secure.MarshalPublicKey(pair.Public)
	if err != nil {
		return nil, err
	}
	tok := &Token{
		TraceTopic:  traceTopic,
		Owner:       owner,
		DelegatePub: pubDER,
		Rights:      rights,
		NotBefore:   now.UnixNano(),
		NotAfter:    now.Add(validFor).UnixNano(),
		Hash:        ownerSigner.Hash(),
	}
	if err := tok.sign(ownerSigner); err != nil {
		return nil, err
	}
	return &Delegation{Token: tok, PrivateKey: pair.Private}, nil
}

// signingBytes serializes every field covered by the owner signature.
func (t *Token) signingBytes() []byte {
	w := wire.Writer{Buf: make([]byte, 0, 64+len(t.DelegatePub))}
	w.U8(tokenVersion)
	w.Raw(t.TraceTopic[:])
	w.Str(string(t.Owner))
	w.Bytes(t.DelegatePub)
	w.U8(uint8(t.Rights))
	w.U8(uint8(t.Hash))
	w.I64(t.NotBefore)
	w.I64(t.NotAfter)
	return w.Buf
}

func (t *Token) sign(s *secure.Signer) error {
	sig, err := s.Sign(t.signingBytes())
	if err != nil {
		return err
	}
	t.Signature = sig
	return nil
}

// Verify checks the token: owner signature under ownerPub, and validity
// window against now with the given clock-skew tolerance (§4.3: "check
// to see if the token was signed by the owner of the trace topic, check
// to see if the token has expired"). It returns the delegated public key
// on success so callers can verify the publisher's message signature.
func (t *Token) Verify(ownerPub *rsa.PublicKey, now time.Time, skew time.Duration, required Rights) (*rsa.PublicKey, error) {
	if skew < 0 {
		skew = DefaultClockSkew
	}
	if !t.Rights.Has(required) {
		return nil, fmt.Errorf("%w: have %v, need %v", ErrRightsMismatch, t.Rights, required)
	}
	if err := secure.Verify(ownerPub, t.Hash, t.signingBytes(), t.Signature); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTokenSignature, err)
	}
	nb := time.Unix(0, t.NotBefore).Add(-skew)
	na := time.Unix(0, t.NotAfter).Add(skew)
	if now.Before(nb) || now.After(na) {
		return nil, fmt.Errorf("%w: valid [%v, %v], now %v", ErrExpired,
			time.Unix(0, t.NotBefore), time.Unix(0, t.NotAfter), now)
	}
	pub, err := secure.ParsePublicKey(t.DelegatePub)
	if err != nil {
		return nil, fmt.Errorf("%w: delegate key: %v", ErrMalformed, err)
	}
	return pub, nil
}

// ExpiresSoon reports whether the token's remaining validity at now is
// below threshold; entities "can generate a new token, once a token is
// closer to expiration" (§4.3).
func (t *Token) ExpiresSoon(now time.Time, threshold time.Duration) bool {
	return time.Unix(0, t.NotAfter).Sub(now) < threshold
}

// Marshal serializes the token including the signature.
func (t *Token) Marshal() []byte {
	w := wire.Writer{Buf: t.signingBytes()}
	w.Bytes(t.Signature)
	return w.Buf
}

// Unmarshal parses a wire-format token.
func Unmarshal(b []byte) (*Token, error) {
	r := wire.NewReader(b, wire.MaxSmallField)
	if v := r.U8(); r.Err() == nil && v != tokenVersion {
		return nil, fmt.Errorf("%w: version %d", ErrMalformed, v)
	}
	t := &Token{}
	t.TraceTopic = r.UUID()
	t.Owner = ident.EntityID(r.Str())
	t.DelegatePub = r.Bytes()
	t.Rights = Rights(r.U8())
	t.Hash = secure.Hash(r.U8())
	t.NotBefore = r.I64()
	t.NotAfter = r.I64()
	t.Signature = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return t, nil
}
