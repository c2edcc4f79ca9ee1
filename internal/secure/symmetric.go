package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"entitytrace/internal/obs"
)

// Symmetric crypto latencies — the per-message cost of securing traces
// (§5.1) and of the §6.3 signing-cost optimization. Like the session-tag
// histograms they sample 1-in-symLatSample operations: with the key
// schedules precomputed a message costs a few µs, of which two clock
// reads would be a measurable share.
var (
	mEncryptLatency = obs.Default.Histogram("secure_encrypt_ms", nil)
	mDecryptLatency = obs.Default.Histogram("secure_decrypt_ms", nil)
	symLatTick      atomic.Uint64
)

// symLatSample is the 1-in-N sampling rate for the latency histograms.
const symLatSample = 64

// Symmetric key sizes.
const (
	// PaperAESKeyBytes is the paper's 192-bit AES key size.
	PaperAESKeyBytes = 24
	// AES128KeyBytes and AES256KeyBytes are also supported.
	AES128KeyBytes = 16
	AES256KeyBytes = 32
)

// ErrBadCiphertext reports undecryptable or tampered ciphertext.
var ErrBadCiphertext = errors.New("secure: bad ciphertext")

// SymmetricKey is an AES key used for trace encryption (§5.1) and for the
// signing-cost optimization (§6.3). Its AES and HMAC key schedules run
// once, when the key is made, not once per message; it is immutable and
// safe for concurrent use.
type SymmetricKey struct {
	key   []byte
	block cipher.Block
	mac   macKey
}

// checkAESKeySize rejects key sizes other than 16, 24 and 32 bytes.
func checkAESKeySize(n int) error {
	switch n {
	case AES128KeyBytes, PaperAESKeyBytes, AES256KeyBytes:
		return nil
	}
	return fmt.Errorf("secure: invalid AES key size %d", n)
}

// newSymmetricKey builds a key that owns k, running both key schedules.
func newSymmetricKey(k []byte) (*SymmetricKey, error) {
	if err := checkAESKeySize(len(k)); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(k)
	if err != nil {
		return nil, fmt.Errorf("secure: creating AES cipher: %w", err)
	}
	return &SymmetricKey{key: k, block: block, mac: newMacKey(k)}, nil
}

// NewSymmetricKey generates a fresh random AES key of size bytes (16, 24
// or 32).
func NewSymmetricKey(size int) (*SymmetricKey, error) {
	if err := checkAESKeySize(size); err != nil {
		return nil, err
	}
	k, err := RandomBytes(size)
	if err != nil {
		return nil, err
	}
	return newSymmetricKey(k)
}

// SymmetricKeyFromBytes wraps existing key material (e.g. received during
// key distribution).
func SymmetricKeyFromBytes(k []byte) (*SymmetricKey, error) {
	return newSymmetricKey(append([]byte(nil), k...))
}

// Bytes returns a copy of the raw key material.
func (k *SymmetricKey) Bytes() []byte {
	cp := make([]byte, len(k.key))
	copy(cp, k.key)
	return cp
}

// Size returns the key size in bytes.
func (k *SymmetricKey) Size() int { return len(k.key) }

// pkcs7Unpad validates and strips PKCS#7 padding.
func pkcs7Unpad(data []byte, blockSize int) ([]byte, error) {
	if len(data) == 0 || len(data)%blockSize != 0 {
		return nil, ErrBadCiphertext
	}
	pad := int(data[len(data)-1])
	if pad == 0 || pad > blockSize || pad > len(data) {
		return nil, ErrBadCiphertext
	}
	for _, b := range data[len(data)-pad:] {
		if int(b) != pad {
			return nil, ErrBadCiphertext
		}
	}
	return data[:len(data)-pad], nil
}

// Encrypt encrypts plaintext with AES-CBC and PKCS#7 padding (the paper's
// "encryption algorithm and padding scheme"), prepending a random IV.
// The output layout is IV || ciphertext.
func (k *SymmetricKey) Encrypt(plaintext []byte) ([]byte, error) {
	return k.encrypt(plaintext, 0)
}

// encrypt is Encrypt with room for extra more bytes in the result's
// capacity, so a MAC can be appended without growing it.
func (k *SymmetricKey) encrypt(plaintext []byte, extra int) ([]byte, error) {
	timed := symLatTick.Add(1)%symLatSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	bs := k.block.BlockSize()
	n := len(plaintext) + bs - len(plaintext)%bs // padded length: PKCS#7 always pads
	out := make([]byte, bs+n, bs+n+extra)
	iv, body := out[:bs], out[bs:]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("secure: generating IV: %w", err)
	}
	copy(body, plaintext)
	for i := len(plaintext); i < n; i++ {
		body[i] = byte(n - len(plaintext))
	}
	cipher.NewCBCEncrypter(k.block, iv).CryptBlocks(body, body)
	if timed {
		mEncryptLatency.ObserveDuration(time.Since(start))
	}
	return out, nil
}

// Decrypt reverses Encrypt.
func (k *SymmetricKey) Decrypt(ciphertext []byte) ([]byte, error) {
	timed := symLatTick.Add(1)%symLatSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	bs := k.block.BlockSize()
	if len(ciphertext) < 2*bs || (len(ciphertext)-bs)%bs != 0 {
		return nil, ErrBadCiphertext
	}
	iv := ciphertext[:bs]
	body := make([]byte, len(ciphertext)-bs)
	cipher.NewCBCDecrypter(k.block, iv).CryptBlocks(body, ciphertext[bs:])
	out, err := pkcs7Unpad(body, bs)
	if err == nil && timed {
		mDecryptLatency.ObserveDuration(time.Since(start))
	}
	return out, err
}

// EncryptAuthenticated encrypts plaintext and appends an HMAC-SHA256 tag
// (encrypt-then-MAC). This is what the §6.3 optimization relies on: the
// broker accepts messages decryptable (and authentic) under the shared
// secret key as originating from the traced entity, so integrity matters.
func (k *SymmetricKey) EncryptAuthenticated(plaintext []byte) ([]byte, error) {
	ct, err := k.encrypt(plaintext, sha256.Size)
	if err != nil {
		return nil, err
	}
	return k.mac.appendTag(ct, ct), nil
}

// DecryptAuthenticated verifies the HMAC tag and decrypts.
func (k *SymmetricKey) DecryptAuthenticated(ciphertext []byte) ([]byte, error) {
	tagLen := sha256.Size
	if len(ciphertext) < tagLen {
		return nil, ErrBadCiphertext
	}
	body, tag := ciphertext[:len(ciphertext)-tagLen], ciphertext[len(ciphertext)-tagLen:]
	if !k.mac.verify(tag, body) {
		return nil, fmt.Errorf("%w: MAC mismatch", ErrBadCiphertext)
	}
	return k.Decrypt(body)
}

// Equal reports whether two keys hold identical material, in constant
// time.
func (k *SymmetricKey) Equal(other *SymmetricKey) bool {
	if other == nil || len(k.key) != len(other.key) {
		return false
	}
	return bytes.Equal(k.key, other.key) // lengths equal; not secret-dependent branching on content needed here
}
