package secure

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"

	"entitytrace/internal/wire"
)

// SealedPayload is a hybrid public-key envelope: the payload is encrypted
// with a randomly generated secret key, and that secret key is encrypted
// using the recipient's public key — exactly the construction of the
// registration response (§3.2: "The response message is encrypted with a
// randomly generated secret key, and this secret key is encrypted using
// the entity's public key") and of trace-key distribution (§5.1).
//
// Wire layout: uint16 wrappedKeyLen || wrappedKey || ciphertext.
type SealedPayload struct {
	WrappedKey []byte // RSA-PKCS1v15 encryption of the fresh AES key
	Ciphertext []byte // AES-CBC + HMAC ciphertext of the payload
}

// Seal encrypts payload for the holder of pub.
func Seal(pub *rsa.PublicKey, payload []byte) (*SealedPayload, error) {
	if pub == nil {
		return nil, errors.New("secure: nil recipient key")
	}
	key, err := NewSymmetricKey(PaperAESKeyBytes)
	if err != nil {
		return nil, err
	}
	ct, err := key.EncryptAuthenticated(payload)
	if err != nil {
		return nil, err
	}
	wrapped, err := rsa.EncryptPKCS1v15(rand.Reader, pub, key.Bytes())
	if err != nil {
		return nil, fmt.Errorf("secure: wrapping session key: %w", err)
	}
	return &SealedPayload{WrappedKey: wrapped, Ciphertext: ct}, nil
}

// Open decrypts a SealedPayload with the recipient's private key.
func (sp *SealedPayload) Open(priv *rsa.PrivateKey) ([]byte, error) {
	if priv == nil {
		return nil, errors.New("secure: nil private key")
	}
	raw, err := rsa.DecryptPKCS1v15(rand.Reader, priv, sp.WrappedKey)
	if err != nil {
		return nil, fmt.Errorf("%w: unwrapping session key: %v", ErrBadCiphertext, err)
	}
	key, err := SymmetricKeyFromBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: bad session key length", ErrBadCiphertext)
	}
	return key.DecryptAuthenticated(sp.Ciphertext)
}

// Marshal encodes the envelope for transmission.
func (sp *SealedPayload) Marshal() ([]byte, error) {
	if len(sp.WrappedKey) > 0xffff {
		return nil, errors.New("secure: wrapped key too large")
	}
	w := wire.Writer{Buf: make([]byte, 0, 2+len(sp.WrappedKey)+len(sp.Ciphertext))}
	w.Bytes16(sp.WrappedKey)
	w.Raw(sp.Ciphertext)
	return w.Buf, nil
}

// UnmarshalSealedPayload decodes the wire form produced by Marshal.
func UnmarshalSealedPayload(b []byte) (*SealedPayload, error) {
	r := wire.NewReader(b, wire.MaxSmallField)
	sp := &SealedPayload{WrappedKey: r.Bytes16()}
	sp.Ciphertext = r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: sealed payload: %v", ErrBadCiphertext, err)
	}
	return sp, nil
}
