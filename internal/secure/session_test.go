package secure

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// mustHex decodes a hex string or fails the test.
func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestHKDFRFC5869Vectors pins the hand-rolled HKDF-SHA256 to the RFC
// 5869 Appendix A test vectors (cases 1-3), so the derivation is the
// standard construction, not a lookalike.
func TestHKDFRFC5869Vectors(t *testing.T) {
	cases := []struct {
		name                 string
		ikm, salt, info, okm string
		length               int
	}{
		{
			name:   "A.1 basic",
			ikm:    "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			salt:   "000102030405060708090a0b0c",
			info:   "f0f1f2f3f4f5f6f7f8f9",
			length: 42,
			okm: "3cb25f25faacd57a90434f64d0362f2a" +
				"2d2d0a90cf1a5a4c5db02d56ecc4c5bf" +
				"34007208d5b887185865",
		},
		{
			name: "A.2 longer inputs",
			ikm: "000102030405060708090a0b0c0d0e0f" +
				"101112131415161718191a1b1c1d1e1f" +
				"202122232425262728292a2b2c2d2e2f" +
				"303132333435363738393a3b3c3d3e3f" +
				"404142434445464748494a4b4c4d4e4f",
			salt: "606162636465666768696a6b6c6d6e6f" +
				"707172737475767778797a7b7c7d7e7f" +
				"808182838485868788898a8b8c8d8e8f" +
				"909192939495969798999a9b9c9d9e9f" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			info: "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf" +
				"c0c1c2c3c4c5c6c7c8c9cacbcccdcecf" +
				"d0d1d2d3d4d5d6d7d8d9dadbdcdddedf" +
				"e0e1e2e3e4e5e6e7e8e9eaebecedeeef" +
				"f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
			length: 82,
			okm: "b11e398dc80327a1c8e7f78c596a4934" +
				"4f012eda2d4efad8a050cc4c19afa97c" +
				"59045a99cac7827271cb41c65e590e09" +
				"da3275600c2f09b8367793a9aca3db71" +
				"cc30c58179ec3e87c14c01d5c1f3434f" +
				"1d87",
		},
		{
			name:   "A.3 zero-length salt and info",
			ikm:    "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			salt:   "",
			info:   "",
			length: 42,
			okm: "8da4e775a563c18f715f802a063c5a31" +
				"b8a11f5c5ee1879ec3454e5f3c738d2d" +
				"9d201395faa4b61a96c8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			okm, err := HKDF(mustHex(t, tc.ikm), mustHex(t, tc.salt), mustHex(t, tc.info), tc.length)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(okm, mustHex(t, tc.okm)) {
				t.Fatalf("okm = %x, want %s", okm, tc.okm)
			}
		})
	}
}

func TestHKDFBadLength(t *testing.T) {
	if _, err := HKDF([]byte("secret"), nil, nil, 0); err == nil {
		t.Fatal("accepted zero length")
	}
	if _, err := HKDF([]byte("secret"), nil, nil, 255*32+1); err == nil {
		t.Fatal("accepted over-long output")
	}
}

func newTestParams(t *testing.T) *SessionParams {
	t.Helper()
	var digest [32]byte
	copy(digest[:], bytes.Repeat([]byte{7}, 32))
	p, err := NewSessionParams(digest, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewSessionParamsWindow(t *testing.T) {
	if _, err := NewSessionParams([32]byte{}, 5, 5); err == nil {
		t.Fatal("accepted empty window")
	}
	if _, err := NewSessionParams([32]byte{}, 10, 5); err == nil {
		t.Fatal("accepted inverted window")
	}
}

func TestSessionParamsRoundTrip(t *testing.T) {
	p := newTestParams(t)
	q, err := UnmarshalSessionParams(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || !bytes.Equal(q.Secret, p.Secret) || !bytes.Equal(q.Nonce, p.Nonce) ||
		q.TokenDigest != p.TokenDigest || q.NotBefore != p.NotBefore || q.NotAfter != p.NotAfter {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestUnmarshalSessionParamsMalformed(t *testing.T) {
	wire := newTestParams(t).Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := UnmarshalSessionParams(wire[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	if _, err := UnmarshalSessionParams(append(wire, 0)); err == nil {
		t.Fatal("accepted trailing byte")
	}
	// Wrong secret length round-trips structurally but is rejected.
	p := newTestParams(t)
	p.Secret = p.Secret[:16]
	if _, err := UnmarshalSessionParams(p.Marshal()); err == nil {
		t.Fatal("accepted short secret")
	}
	// Inverted window.
	p = newTestParams(t)
	p.NotBefore, p.NotAfter = p.NotAfter, p.NotBefore
	if _, err := UnmarshalSessionParams(p.Marshal()); err == nil {
		t.Fatal("accepted inverted window")
	}
}

func TestSessionDeriveDeterministic(t *testing.T) {
	p := newTestParams(t)
	k1, err := p.Derive("topic-A", "entity-1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.Derive("topic-A", "entity-1")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the same bytes")
	if !bytes.Equal(k1.Tag(data), k2.Tag(data)) {
		t.Fatal("same params + context derived different keys")
	}
	if k1.ID() != p.ID {
		t.Fatal("derived key lost the session ID")
	}
	if k1.TokenDigest() != p.TokenDigest {
		t.Fatal("derived key lost the token binding")
	}
	if nb, na := k1.Window(); nb != p.NotBefore || na != p.NotAfter {
		t.Fatal("derived key lost the window")
	}
}

// TestSessionDeriveContextSeparation proves the info-string binding: the
// same secret derives unrelated keys for different topics or principals,
// so a key negotiated for one context authenticates nothing in another.
func TestSessionDeriveContextSeparation(t *testing.T) {
	p := newTestParams(t)
	base, err := p.Derive("topic-A", "entity-1")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	tag := base.Tag(data)
	for _, other := range [][2]string{
		{"topic-B", "entity-1"},
		{"topic-A", "entity-2"},
		{"topic-Aentity-1", ""},
		{"", "topic-Aentity-1"},
	} {
		k, err := p.Derive(other[0], other[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := k.VerifyTag(data, tag); err == nil {
			t.Fatalf("key for %q/%q verified a tag from topic-A/entity-1", other[0], other[1])
		}
	}
}

func TestSessionDeriveBadSecret(t *testing.T) {
	p := newTestParams(t)
	p.Secret = []byte("short")
	if _, err := p.Derive("t", "p"); err == nil {
		t.Fatal("derived from malformed secret")
	}
}

func TestSessionSealOpenRoundTrip(t *testing.T) {
	p := newTestParams(t)
	blob, err := p.SealTo(testPair.Public)
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenSessionParams(testPair.Private, blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || !bytes.Equal(q.Secret, p.Secret) {
		t.Fatal("sealed round trip mismatch")
	}
	// The wrong recipient cannot open the blob.
	if _, err := OpenSessionParams(otherPair.Private, blob); err == nil {
		t.Fatal("wrong recipient opened the sealed params")
	}
	// Garbage is rejected before RSA is attempted.
	if _, err := OpenSessionParams(testPair.Private, []byte("junk")); err == nil {
		t.Fatal("opened garbage blob")
	}
}

func TestSessionTagVerify(t *testing.T) {
	k, err := newTestParams(t).Derive("t", "p")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("canonical signing bytes")
	tag := k.Tag(data)
	if len(tag) != SessionTagLen {
		t.Fatalf("tag length %d, want %d", len(tag), SessionTagLen)
	}
	if err := k.VerifyTag(data, tag); err != nil {
		t.Fatal(err)
	}
	// AppendTag agrees with Tag.
	appended := k.AppendTag([]byte("prefix"), data)
	if !bytes.Equal(appended[len("prefix"):], tag) {
		t.Fatal("AppendTag disagrees with Tag")
	}
	// Tampered data.
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if err := k.VerifyTag(bad, tag); err == nil {
		t.Fatal("verified tag over tampered data")
	}
	// Tampered tag.
	badTag := append([]byte(nil), tag...)
	badTag[SessionTagLen-1] ^= 1
	if err := k.VerifyTag(data, badTag); err == nil {
		t.Fatal("verified tampered tag")
	}
	// Truncated tag must be rejected (no prefix matching).
	if err := k.VerifyTag(data, tag[:SessionTagLen-1]); err == nil {
		t.Fatal("verified truncated tag")
	}
	if !strings.Contains(k.VerifyTag(data, tag[:4]).Error(), "tag length") {
		t.Fatal("short tag error should name the length")
	}
}

// TestSessionTagMatchesHMAC pins the precomputed-key-schedule fast path
// to the reference construction: every tag must be exactly
// HMAC-SHA256(key, data), whichever code path produced it, across data
// sizes spanning block boundaries.
func TestSessionTagMatchesHMAC(t *testing.T) {
	k, err := newTestParams(t).Derive("t", "p")
	if err != nil {
		t.Fatal(err)
	}
	if k.mac.istate == nil || k.mac.ostate == nil {
		t.Fatal("precomputed HMAC states missing after Derive")
	}
	slow := &SessionKey{mac: macKey{key: k.mac.key}} // istate nil: hmac.New fallback path
	for _, n := range []int{0, 1, 55, 56, 64, 350, 4096} {
		data := bytes.Repeat([]byte{0x5a}, n)
		ref := hmac.New(sha256.New, k.mac.key)
		ref.Write(data)
		want := ref.Sum(nil)
		if got := k.Tag(data); !bytes.Equal(got, want) {
			t.Fatalf("fast-path tag over %d bytes diverges from HMAC-SHA256", n)
		}
		if got := slow.Tag(data); !bytes.Equal(got, want) {
			t.Fatalf("fallback tag over %d bytes diverges from HMAC-SHA256", n)
		}
		if err := k.VerifyTag(data, want); err != nil {
			t.Fatalf("fast-path verify of reference tag over %d bytes: %v", n, err)
		}
		// The split form tags the same bytes wherever the cut falls.
		for _, cut := range []int{0, n / 3, n} {
			if err := k.VerifyTagSplit(data[:cut], data[cut:], want); err != nil {
				t.Fatalf("split verify of %d bytes cut at %d: %v", n, cut, err)
			}
			if err := slow.VerifyTagSplit(data[:cut], data[cut:], want); err != nil {
				t.Fatalf("fallback split verify of %d bytes cut at %d: %v", n, cut, err)
			}
		}
	}
}

func TestSessionKeyValidAt(t *testing.T) {
	p := newTestParams(t) // window [1000, 2000] ns
	k, err := p.Derive("t", "p")
	if err != nil {
		t.Fatal(err)
	}
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	if k.ValidAt(at(999), 0) {
		t.Fatal("valid before NotBefore without skew")
	}
	if !k.ValidAt(at(1000), 0) || !k.ValidAt(at(2000), 0) {
		t.Fatal("window bounds should be inclusive")
	}
	if k.ValidAt(at(2001), 0) {
		t.Fatal("valid after NotAfter without skew")
	}
	// Skew widens both edges, mirroring token validation.
	if !k.ValidAt(at(999), time.Nanosecond) || !k.ValidAt(at(2001), time.Nanosecond) {
		t.Fatal("skew tolerance not applied")
	}
	// Negative skew is treated as zero, not as a narrower window.
	if !k.ValidAt(at(1500), -time.Hour) {
		t.Fatal("negative skew rejected an in-window time")
	}
}
