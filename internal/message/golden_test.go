package message

import (
	"encoding/hex"
	"testing"

	"entitytrace/internal/ident"
	"entitytrace/internal/topic"
)

// goldenEnvelope is a fixed envelope with every field set and a
// two-hop span; goldenEnvelopeHex is its wire form as the codec has
// always written it.
func goldenEnvelope() *Envelope {
	return &Envelope{
		ID:        ident.UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Type:      TraceAllsWell,
		Topic:     topic.MustParse("/Availability/Traces/svc-1"),
		Source:    "svc-1",
		Timestamp: 1700000000000000000,
		SeqNum:    42,
		RequestID: ident.UUID{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf},
		TTL:       7,
		Flags:     FlagSessionTag,
		Payload:   []byte("payload"),
		Token:     []byte("token"),
		Signature: []byte("signature"),
		Span: &Span{
			TraceID: ident.UUID{0xf0, 1, 0xf2, 3, 0xf4, 5, 0xf6, 7, 0xf8, 9, 0xfa, 11, 0xfc, 13, 0xfe, 15},
			Hops: []Hop{
				{Node: "svc-1", AtNanos: 1700000000000000001},
				{Node: "broker-1", AtNanos: 1700000000000000002},
			},
		},
	}
}

const goldenEnvelopeHex = "010102030405060708090a0b0c0d0e0f1000170000001a2f417661696c6162696c6974792f5472616365732f7376632d31000000057376632d3117979cfe362a0000000000000000002aa0a1a2a3a4a5a6a7a8a9aaabacadaeaf070004000000077061796c6f616400000005746f6b656e000000097369676e617475726501f001f203f405f607f809fa0bfc0dfe0f02000000057376632d3117979cfe362a00010000000862726f6b65722d3117979cfe362a0002"

// TestGoldenEnvelope pins the envelope wire form: the fixed envelope
// encodes to the recorded bytes, and those bytes decode to an envelope
// that encodes to them again.
func TestGoldenEnvelope(t *testing.T) {
	if got := hex.EncodeToString(goldenEnvelope().Marshal()); got != goldenEnvelopeHex {
		t.Fatalf("envelope encoding changed:\n got %s\nwant %s", got, goldenEnvelopeHex)
	}
	raw, _ := hex.DecodeString(goldenEnvelopeHex)
	e, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(e.Marshal()); got != goldenEnvelopeHex {
		t.Fatalf("decoded envelope re-encodes to %s", got)
	}
}
