// Package tdn implements the Topic Discovery Nodes of §2.2 and §3.1:
// specialized nodes that create trace topics, store cryptographically
// signed topic advertisements, enforce discovery restrictions, honour
// topic lifetimes, and replicate advertisements across TDNs so the loss
// of individual nodes does not disrupt discovery.
package tdn

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"time"

	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/secure"
	"entitytrace/internal/wire"
)

// Errors surfaced by advertisement handling.
var (
	// ErrAdMalformed reports an undecodable advertisement.
	ErrAdMalformed = errors.New("tdn: malformed advertisement")
	// ErrAdExpired reports an advertisement past its lifetime.
	ErrAdExpired = errors.New("tdn: advertisement expired")
	// ErrAdSignature reports a bad TDN signature.
	ErrAdSignature = errors.New("tdn: advertisement signature invalid")
)

const adVersion = 1

// Advertisement is the cryptographically signed record a TDN creates for
// a topic (§3.1): "a cryptographically signed topic advertisement that
// includes the newly created topic, along with the credentials,
// descriptors, discovery restrictions and lifetime. This advertisement
// establishes the ownership of the topic."
type Advertisement struct {
	// TopicID is the 128-bit UUID generated at the TDN ("so that no
	// entity is able to claim some other entity's topic as its own").
	TopicID ident.UUID
	// Owner is the entity the topic belongs to.
	Owner ident.EntityID
	// OwnerCert is the owner's DER-encoded X.509 credential.
	OwnerCert []byte
	// Descriptor is the discovery descriptor, e.g.
	// "Availability/Traces/<Entity-ID>".
	Descriptor string
	// AllowAny permits discovery by any credentialed entity.
	AllowAny bool
	// Allowed lists entity IDs authorized to discover the topic when
	// AllowAny is false (the owner is always allowed).
	Allowed []string
	// CreatedAt and ExpiresAt bound the topic lifetime (Unix nanos).
	CreatedAt int64
	ExpiresAt int64
	// TDNName names the creating TDN; TDNCert is its credential so any
	// node can verify the signature chain.
	TDNName string
	TDNCert []byte
	// Signature is the TDN's signature over all fields above.
	Signature []byte
}

// signingBytes serializes the signed portion.
func (a *Advertisement) signingBytes() []byte {
	var w wire.Writer
	w.U8(adVersion)
	w.Raw(a.TopicID[:])
	w.Str(string(a.Owner))
	w.Bytes(a.OwnerCert)
	w.Str(a.Descriptor)
	w.Bool(a.AllowAny)
	w.U32(uint32(len(a.Allowed)))
	for _, e := range a.Allowed {
		w.Str(e)
	}
	w.I64(a.CreatedAt)
	w.I64(a.ExpiresAt)
	w.Str(a.TDNName)
	w.Bytes(a.TDNCert)
	return w.Buf
}

// Marshal serializes the advertisement including the signature.
func (a *Advertisement) Marshal() []byte {
	w := wire.Writer{Buf: a.signingBytes()}
	w.Bytes(a.Signature)
	return w.Buf
}

// maxListEntries caps the discovery list of an advertisement or a
// create request, and the advertisements in one response.
const maxListEntries = 1 << 16

// UnmarshalAdvertisement parses a wire-format advertisement.
func UnmarshalAdvertisement(b []byte) (*Advertisement, error) {
	r := wire.NewReader(b, wire.MaxField)
	if v := r.U8(); r.Err() == nil && v != adVersion {
		return nil, fmt.Errorf("%w: version %d", ErrAdMalformed, v)
	}
	a := &Advertisement{}
	a.TopicID = r.UUID()
	a.Owner = ident.EntityID(r.Str())
	a.OwnerCert = r.Bytes()
	a.Descriptor = r.Str()
	a.AllowAny = r.Bool()
	n := r.U32()
	if r.Err() == nil && n > maxListEntries {
		return nil, fmt.Errorf("%w: %d allowed entries", ErrAdMalformed, n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		a.Allowed = append(a.Allowed, r.Str())
	}
	a.CreatedAt = r.I64()
	a.ExpiresAt = r.I64()
	a.TDNName = r.Str()
	a.TDNCert = r.Bytes()
	a.Signature = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdMalformed, err)
	}
	return a, nil
}

// Verify checks the advertisement's TDN signature chain against the
// trusted CA and its lifetime against now. On success it returns the
// owner's public key (extracted from the embedded owner credential), so
// relying parties — brokers verifying authorization tokens (§4.3) — can
// resolve the topic owner's key from the advertisement alone.
func (a *Advertisement) Verify(v *credential.Verifier, now time.Time) (*rsa.PublicKey, error) {
	if now.UnixNano() > a.ExpiresAt {
		return nil, fmt.Errorf("%w: expired %v", ErrAdExpired, time.Unix(0, a.ExpiresAt))
	}
	tdnCred := &credential.Credential{Entity: ident.EntityID(a.TDNName), Cert: a.TDNCert}
	tdnPub, err := v.Verify(tdnCred)
	if err != nil {
		return nil, fmt.Errorf("%w: TDN credential: %v", ErrAdSignature, err)
	}
	if err := secure.Verify(tdnPub, secure.SHA256, a.signingBytes(), a.Signature); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdSignature, err)
	}
	ownerCred := &credential.Credential{Entity: a.Owner, Cert: a.OwnerCert}
	ownerPub, err := v.Verify(ownerCred)
	if err != nil {
		return nil, fmt.Errorf("%w: owner credential: %v", ErrAdSignature, err)
	}
	return ownerPub, nil
}

// MayDiscover reports whether the given entity is authorized by the
// advertisement's discovery restrictions.
func (a *Advertisement) MayDiscover(e ident.EntityID) bool {
	if e == a.Owner {
		return true
	}
	if a.AllowAny {
		return true
	}
	for _, allowed := range a.Allowed {
		if allowed == string(e) {
			return true
		}
	}
	return false
}
