package token

import (
	"encoding/hex"
	"testing"

	"entitytrace/internal/ident"
	"entitytrace/internal/secure"
)

// goldenToken is a fixed token; goldenTokenHex is its wire form as the
// codec has always written it.
func goldenToken() *Token {
	return &Token{
		TraceTopic:  ident.UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Owner:       "svc-1",
		DelegatePub: []byte("delegate-der"),
		Rights:      RightPublish,
		NotBefore:   1700000000000000000,
		NotAfter:    1700000060000000000,
		Signature:   []byte("owner-signature"),
		Hash:        secure.SHA256,
	}
}

const goldenTokenHex = "010102030405060708090a0b0c0d0e0f10000000057376632d310000000c64656c65676174652d646572010117979cfe362a000017979d0c2e7158000000000f6f776e65722d7369676e6174757265"

// TestGoldenToken pins the token wire form in both directions.
func TestGoldenToken(t *testing.T) {
	if got := hex.EncodeToString(goldenToken().Marshal()); got != goldenTokenHex {
		t.Fatalf("token encoding changed:\n got %s\nwant %s", got, goldenTokenHex)
	}
	raw, _ := hex.DecodeString(goldenTokenHex)
	tok, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(tok.Marshal()); got != goldenTokenHex {
		t.Fatalf("decoded token re-encodes to %s", got)
	}
}
