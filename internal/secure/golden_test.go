package secure

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenParams and goldenSealed are fixed values; the hex constants
// are their wire forms as the codecs have always written them.
func goldenParams() *SessionParams {
	p := &SessionParams{
		Secret:    bytes.Repeat([]byte{0x5e}, SessionSecretLen),
		Nonce:     bytes.Repeat([]byte{0x0c}, SessionNonceLen),
		NotBefore: 1700000000000000000,
		NotAfter:  1700000060000000000,
	}
	for i := range p.ID {
		p.ID[i] = byte(i + 1)
	}
	for i := range p.TokenDigest {
		p.TokenDigest[i] = byte(0xd0 + i)
	}
	return p
}

var goldenSealed = SealedPayload{WrappedKey: []byte("wrapped-key"), Ciphertext: []byte("ciphertext")}

const (
	goldenParamsHex = "0102030405060708090a0b0c0d0e0f1000205e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e00100c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef17979cfe362a000017979d0c2e715800"
	goldenSealedHex = "000b777261707065642d6b657963697068657274657874"
)

// TestGoldenWire pins the session-parameter and sealed-payload wire
// forms in both directions.
func TestGoldenWire(t *testing.T) {
	if got := hex.EncodeToString(goldenParams().Marshal()); got != goldenParamsHex {
		t.Fatalf("session params encoding changed:\n got %s\nwant %s", got, goldenParamsHex)
	}
	raw, _ := hex.DecodeString(goldenParamsHex)
	p, err := UnmarshalSessionParams(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(p.Marshal()); got != goldenParamsHex {
		t.Fatalf("decoded session params re-encode to %s", got)
	}

	sealed, err := goldenSealed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sealed); got != goldenSealedHex {
		t.Fatalf("sealed payload encoding changed:\n got %s\nwant %s", got, goldenSealedHex)
	}
	raw, _ = hex.DecodeString(goldenSealedHex)
	sp, err := UnmarshalSealedPayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sp.WrappedKey, goldenSealed.WrappedKey) || !bytes.Equal(sp.Ciphertext, goldenSealed.Ciphertext) {
		t.Fatalf("sealed payload decodes to %+v", sp)
	}
}

// FuzzUnmarshalSessionParams checks the session-parameter decoder
// against arbitrary bytes, seeded with the golden encoding: no panic,
// and accepted parameters re-encode to bytes that decode to the same
// parameters.
func FuzzUnmarshalSessionParams(f *testing.F) {
	raw, _ := hex.DecodeString(goldenParamsHex)
	f.Add(raw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalSessionParams(data)
		if err != nil {
			return
		}
		back, err := UnmarshalSessionParams(p.Marshal())
		if err != nil {
			t.Fatalf("accepted params do not round trip: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed %+v to %+v", p, back)
		}
	})
}

// FuzzUnmarshalSealedPayload does the same for the sealed payload.
func FuzzUnmarshalSealedPayload(f *testing.F) {
	raw, _ := hex.DecodeString(goldenSealedHex)
	f.Add(raw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := UnmarshalSealedPayload(data)
		if err != nil {
			return
		}
		enc, err := sp.Marshal()
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		back, err := UnmarshalSealedPayload(enc)
		if err != nil {
			t.Fatalf("accepted payload does not round trip: %v", err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("round trip changed %+v to %+v", sp, back)
		}
	})
}
