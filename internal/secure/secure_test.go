package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// Shared key pairs: RSA generation is slow, so generate once.
var (
	testPair  *KeyPair
	otherPair *KeyPair
)

func init() {
	var err error
	testPair, err = GenerateKeyPair(PaperRSABits)
	if err != nil {
		panic(err)
	}
	otherPair, err = GenerateKeyPair(PaperRSABits)
	if err != nil {
		panic(err)
	}
}

func TestGenerateKeyPairRejectsWeakModulus(t *testing.T) {
	if _, err := GenerateKeyPair(512); err == nil {
		t.Fatal("accepted 512-bit modulus")
	}
}

func TestHashString(t *testing.T) {
	if SHA1.String() != "SHA-1" || SHA256.String() != "SHA-256" {
		t.Fatal("unexpected hash names")
	}
	if Hash(99).String() == "" {
		t.Fatal("unknown hash produced empty name")
	}
}

func TestHashDigestUnknown(t *testing.T) {
	if _, err := Hash(99).Digest([]byte("x")); err == nil {
		t.Fatal("unknown hash digest should error")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	der, err := MarshalPublicKey(testPair.Public)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePublicKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(testPair.Public.N) != 0 || back.E != testPair.Public.E {
		t.Fatal("public key round trip mismatch")
	}
}

func TestPrivateKeyRoundTrip(t *testing.T) {
	der, err := MarshalPrivateKey(testPair.Private)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if back.D.Cmp(testPair.Private.D) != 0 {
		t.Fatal("private key round trip mismatch")
	}
}

func TestMarshalNilKeys(t *testing.T) {
	if _, err := MarshalPublicKey(nil); err == nil {
		t.Fatal("MarshalPublicKey(nil) succeeded")
	}
	if _, err := MarshalPrivateKey(nil); err == nil {
		t.Fatal("MarshalPrivateKey(nil) succeeded")
	}
}

func TestParseGarbageKeys(t *testing.T) {
	if _, err := ParsePublicKey([]byte("junk")); err == nil {
		t.Fatal("ParsePublicKey accepted junk")
	}
	if _, err := ParsePrivateKey([]byte("junk")); err == nil {
		t.Fatal("ParsePrivateKey accepted junk")
	}
}

func TestSignVerifySHA1(t *testing.T) {
	s, err := NewSigner(testPair.Private, SHA1)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ALLS_WELL trace for entity-7")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testPair.Public, SHA1, msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSignVerifySHA256(t *testing.T) {
	s, err := NewSigner(testPair.Private, SHA256)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("state transition READY")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testPair.Public, SHA256, msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	s, _ := NewSigner(testPair.Private, SHA1)
	msg := []byte("original content")
	sig, _ := s.Sign(msg)
	tampered := []byte("original content!")
	if err := Verify(testPair.Public, SHA1, tampered, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered message verified, err=%v", err)
	}
}

func TestVerifyDetectsWrongSigner(t *testing.T) {
	s, _ := NewSigner(otherPair.Private, SHA1)
	msg := []byte("spoofed trace")
	sig, _ := s.Sign(msg)
	if err := Verify(testPair.Public, SHA1, msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong-signer message verified, err=%v", err)
	}
}

func TestVerifyWrongHash(t *testing.T) {
	s, _ := NewSigner(testPair.Private, SHA1)
	msg := []byte("digest confusion")
	sig, _ := s.Sign(msg)
	if err := Verify(testPair.Public, SHA256, msg, sig); err == nil {
		t.Fatal("signature verified under wrong hash")
	}
}

func TestNewSignerValidation(t *testing.T) {
	if _, err := NewSigner(nil, SHA1); err == nil {
		t.Fatal("NewSigner(nil) succeeded")
	}
	if _, err := NewSigner(testPair.Private, Hash(42)); err == nil {
		t.Fatal("NewSigner with unknown hash succeeded")
	}
}

func TestSignerAccessors(t *testing.T) {
	s, _ := NewSigner(testPair.Private, SHA1)
	if s.Hash() != SHA1 {
		t.Fatal("Hash() mismatch")
	}
	if s.Public().N.Cmp(testPair.Public.N) != 0 {
		t.Fatal("Public() mismatch")
	}
}

func TestSymmetricRoundTrip(t *testing.T) {
	for _, size := range []int{AES128KeyBytes, PaperAESKeyBytes, AES256KeyBytes} {
		k, err := NewSymmetricKey(size)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("NETWORK_METRICS loss=0.01 rtt=1.9ms")
		ct, err := k.Encrypt(msg)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

// TestSymmetricKeyMatchesFreshPrimitives pins the key schedules a
// SymmetricKey runs once to the per-message construction: for every key
// size, what it emits is byte for byte AES-CBC under a freshly made
// cipher plus HMAC-SHA256 from a fresh hmac.New, and what those emit it
// opens.
func TestSymmetricKeyMatchesFreshPrimitives(t *testing.T) {
	for _, size := range []int{AES128KeyBytes, PaperAESKeyBytes, AES256KeyBytes} {
		k, err := NewSymmetricKey(size)
		if err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(k.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		freshMAC := func(data []byte) []byte {
			m := hmac.New(sha256.New, k.Bytes())
			m.Write(data)
			return m.Sum(nil)
		}
		for _, n := range []int{0, 1, 15, 16, 17, 100} {
			pt := bytes.Repeat([]byte{byte(n)}, n)
			padded := append(append([]byte(nil), pt...), bytes.Repeat([]byte{byte(16 - n%16)}, 16-n%16)...)

			out, err := k.EncryptAuthenticated(pt)
			if err != nil {
				t.Fatal(err)
			}
			iv, body, tag := out[:16], out[16:len(out)-sha256.Size], out[len(out)-sha256.Size:]
			want := make([]byte, len(padded))
			cipher.NewCBCEncrypter(block, iv).CryptBlocks(want, padded)
			if !bytes.Equal(body, want) {
				t.Fatalf("AES-%d, %d bytes: ciphertext differs from a fresh cipher's", size*8, n)
			}
			if !bytes.Equal(tag, freshMAC(out[:len(out)-sha256.Size])) {
				t.Fatalf("AES-%d, %d bytes: tag differs from a fresh HMAC's", size*8, n)
			}

			fresh := append(append([]byte(nil), iv...), want...)
			fresh = append(fresh, freshMAC(fresh)...)
			got, err := k.DecryptAuthenticated(fresh)
			if err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("AES-%d, %d bytes: opening fresh primitives' output = %x, %v", size*8, n, got, err)
			}
		}
	}
}

// TestSymmetricKeyConcurrentUse shares one key between goroutines that
// seal and open at once; run under -race it checks that the schedules
// the key holds are only ever read.
func TestSymmetricKeyConcurrentUse(t *testing.T) {
	k, err := NewSymmetricKey(PaperAESKeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := []byte{byte(g), byte(i)}
				ct, err := k.EncryptAuthenticated(msg)
				if err != nil {
					t.Error(err)
					return
				}
				if pt, err := k.DecryptAuthenticated(ct); err != nil || !bytes.Equal(pt, msg) {
					t.Errorf("goroutine %d round %d: %x, %v", g, i, pt, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSymmetricRoundTripProperty(t *testing.T) {
	k, err := NewSymmetricKey(PaperAESKeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(msg []byte) bool {
		ct, err := k.Encrypt(msg)
		if err != nil {
			return false
		}
		pt, err := k.Decrypt(ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricEmptyPlaintext(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	ct, err := k.Encrypt(nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := k.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt) != 0 {
		t.Fatalf("expected empty plaintext, got %d bytes", len(pt))
	}
}

func TestSymmetricIVRandomized(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	msg := []byte("same plaintext")
	a, _ := k.Encrypt(msg)
	b, _ := k.Encrypt(msg)
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext are identical (IV reuse?)")
	}
}

func TestSymmetricWrongKeyFails(t *testing.T) {
	k1, _ := NewSymmetricKey(PaperAESKeyBytes)
	k2, _ := NewSymmetricKey(PaperAESKeyBytes)
	ct, _ := k1.Encrypt([]byte("secret trace"))
	if pt, err := k2.Decrypt(ct); err == nil && bytes.Equal(pt, []byte("secret trace")) {
		t.Fatal("wrong key decrypted to original plaintext")
	}
}

func TestSymmetricDecryptMalformed(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	cases := [][]byte{nil, {1, 2, 3}, make([]byte, 16), make([]byte, 17), make([]byte, 33)}
	for _, c := range cases {
		if _, err := k.Decrypt(c); err == nil {
			t.Errorf("Decrypt accepted malformed input of %d bytes", len(c))
		}
	}
}

func TestAuthenticatedRoundTrip(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	msg := []byte("ping response #42")
	ct, err := k.EncryptAuthenticated(msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := k.DecryptAuthenticated(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("authenticated round trip mismatch")
	}
}

func TestAuthenticatedDetectsFlippedBit(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	ct, _ := k.EncryptAuthenticated([]byte("authentic trace"))
	ct[len(ct)/2] ^= 0x01
	if _, err := k.DecryptAuthenticated(ct); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("tampered authenticated ciphertext accepted, err=%v", err)
	}
}

func TestAuthenticatedShortInput(t *testing.T) {
	k, _ := NewSymmetricKey(PaperAESKeyBytes)
	if _, err := k.DecryptAuthenticated([]byte("short")); err == nil {
		t.Fatal("short authenticated ciphertext accepted")
	}
}

func TestSymmetricKeyFromBytes(t *testing.T) {
	k1, _ := NewSymmetricKey(PaperAESKeyBytes)
	k2, err := SymmetricKeyFromBytes(k1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Equal(k2) {
		t.Fatal("keys from identical bytes not equal")
	}
	if _, err := SymmetricKeyFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted 3-byte key")
	}
}

func TestSymmetricKeyEqual(t *testing.T) {
	k1, _ := NewSymmetricKey(PaperAESKeyBytes)
	k2, _ := NewSymmetricKey(PaperAESKeyBytes)
	if k1.Equal(k2) {
		t.Fatal("distinct random keys reported equal")
	}
	if k1.Equal(nil) {
		t.Fatal("Equal(nil) = true")
	}
	if k1.Size() != PaperAESKeyBytes {
		t.Fatalf("Size = %d", k1.Size())
	}
}

func TestNewSymmetricKeyBadSize(t *testing.T) {
	if _, err := NewSymmetricKey(20); err == nil {
		t.Fatal("accepted invalid key size")
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("trace key material + AES-192-CBC + PKCS7")
	sp, err := Seal(testPair.Public, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Open(testPair.Private)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("seal/open round trip mismatch")
	}
}

func TestSealOpenWrongRecipient(t *testing.T) {
	sp, err := Seal(testPair.Public, []byte("for test pair only"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Open(otherPair.Private); err == nil {
		t.Fatal("wrong recipient opened sealed payload")
	}
}

func TestSealNilKey(t *testing.T) {
	if _, err := Seal(nil, []byte("x")); err == nil {
		t.Fatal("Seal(nil) succeeded")
	}
	sp := &SealedPayload{}
	if _, err := sp.Open(nil); err == nil {
		t.Fatal("Open(nil) succeeded")
	}
}

func TestSealedPayloadMarshalRoundTrip(t *testing.T) {
	sp, err := Seal(testPair.Public, []byte("wire form"))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSealedPayload(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Open(testPair.Private)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("wire form")) {
		t.Fatal("marshal round trip lost payload")
	}
}

func TestUnmarshalSealedPayloadMalformed(t *testing.T) {
	if _, err := UnmarshalSealedPayload([]byte{0}); err == nil {
		t.Fatal("accepted 1-byte payload")
	}
	// Claims a 1000-byte wrapped key but provides none.
	if _, err := UnmarshalSealedPayload([]byte{0x03, 0xe8}); err == nil {
		t.Fatal("accepted truncated payload")
	}
}

func TestRandomBytes(t *testing.T) {
	a, err := RandomBytes(32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomBytes(32)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two 32-byte random reads are identical")
	}
}
