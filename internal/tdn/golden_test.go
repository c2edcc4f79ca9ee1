package tdn

import (
	"encoding/hex"
	"reflect"
	"testing"

	"entitytrace/internal/ident"
)

// goldenAd is a fixed advertisement with a discovery list.
func goldenAd() *Advertisement {
	return &Advertisement{
		TopicID:    ident.UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Owner:      "svc-1",
		OwnerCert:  []byte("owner-cert"),
		Descriptor: "Availability/Traces/svc-1",
		Allowed:    []string{"watcher-1", "watcher-2"},
		CreatedAt:  1700000000000000000,
		ExpiresAt:  1700003600000000000,
		TDNName:    "tdn-1",
		TDNCert:    []byte("tdn-cert"),
		Signature:  []byte("tdn-signature"),
	}
}

// goldenCreate is a fixed topic-creation request.
func goldenCreate() *CreateRequest {
	return &CreateRequest{
		Owner:      "svc-1",
		OwnerCert:  []byte("owner-cert"),
		Descriptor: "Availability/Traces/svc-1",
		AllowAny:   true,
		Allowed:    []string{"watcher-1"},
		Lifetime:   3600000000000,
		RequestID:  ident.RequestID{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf},
		Signature:  []byte("create-signature"),
	}
}

// Golden encodings, as the codecs have always written them.
const (
	goldenAdSigningHex     = "010102030405060708090a0b0c0d0e0f10000000057376632d310000000a6f776e65722d6365727400000019417661696c6162696c6974792f5472616365732f7376632d31000000000200000009776174636865722d3100000009776174636865722d3217979cfe362a00001797a04466e2a0000000000574646e2d310000000874646e2d63657274"
	goldenAdHex            = "010102030405060708090a0b0c0d0e0f10000000057376632d310000000a6f776e65722d6365727400000019417661696c6162696c6974792f5472616365732f7376632d31000000000200000009776174636865722d3100000009776174636865722d3217979cfe362a00001797a04466e2a0000000000574646e2d310000000874646e2d636572740000000d74646e2d7369676e6174757265"
	goldenCreateSigningHex = "000000057376632d310000000a6f776e65722d6365727400000019417661696c6162696c6974792f5472616365732f7376632d310100000009776174636865722d31a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0000034630b8a000"
	goldenCreateHex        = "01000000057376632d310000000a6f776e65722d6365727400000019417661696c6162696c6974792f5472616365732f7376632d31010000000100000009776174636865722d310000034630b8a000a0a1a2a3a4a5a6a7a8a9aaabacadaeaf000000106372656174652d7369676e6174757265"
	goldenDiscoverHex      = "0200000019417661696c6162696c6974792f5472616365732f7376632d3100000009776174636865722d310000000c776174636865722d63657274"
	goldenResponseHex      = "0000000000000000010000009a010102030405060708090a0b0c0d0e0f10000000057376632d310000000a6f776e65722d6365727400000019417661696c6162696c6974792f5472616365732f7376632d31000000000200000009776174636865722d3100000009776174636865722d3217979cfe362a00001797a04466e2a0000000000574646e2d310000000874646e2d636572740000000d74646e2d7369676e6174757265"
	goldenNotFoundHex      = "010000000d756e6b6e6f776e20746f70696300000000"
)

func goldenHex(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s encoding changed:\n got %s\nwant %s", what, h, want)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenWire pins every tdn encoding — the advertisement (signed
// and full, the form written to disk), the create and discover request
// frames and the response frame — in both directions.
func TestGoldenWire(t *testing.T) {
	ad, req := goldenAd(), goldenCreate()
	goldenHex(t, "advertisement signing bytes", ad.signingBytes(), goldenAdSigningHex)
	goldenHex(t, "advertisement", ad.Marshal(), goldenAdHex)
	goldenHex(t, "create signing bytes", req.signingBytes(), goldenCreateSigningHex)
	goldenHex(t, "create request", marshalCreateRequest(req), goldenCreateHex)
	goldenHex(t, "discover request", marshalDiscoverRequest("Availability/Traces/svc-1", "watcher-1", []byte("watcher-cert")), goldenDiscoverHex)
	goldenHex(t, "response", marshalResponse(statusOK, "", [][]byte{ad.Marshal()}), goldenResponseHex)
	goldenHex(t, "not-found response", marshalResponse(statusNotFound, "unknown topic", nil), goldenNotFoundHex)

	back, err := UnmarshalAdvertisement(mustHex(t, goldenAdHex))
	if err != nil {
		t.Fatal(err)
	}
	goldenHex(t, "decoded advertisement", back.Marshal(), goldenAdHex)

	raw := mustHex(t, goldenCreateHex)
	cr, err := unmarshalCreateRequest(raw[1:])
	if err != nil {
		t.Fatal(err)
	}
	goldenHex(t, "decoded create request", marshalCreateRequest(cr), goldenCreateHex)

	raw = mustHex(t, goldenDiscoverHex)
	query, requester, cert, err := unmarshalDiscoverRequest(raw[1:])
	if err != nil {
		t.Fatal(err)
	}
	goldenHex(t, "decoded discover request", marshalDiscoverRequest(query, requester, cert), goldenDiscoverHex)

	for _, h := range []string{goldenResponseHex, goldenNotFoundHex} {
		status, detail, ads, err := unmarshalResponse(mustHex(t, h))
		if err != nil {
			t.Fatal(err)
		}
		wire := make([][]byte, len(ads))
		for i, a := range ads {
			wire[i] = a.Marshal()
		}
		goldenHex(t, "decoded response", marshalResponse(status, detail, wire), h)
	}
}

// FuzzUnmarshalResponse checks the client-side response decoder against
// arbitrary bytes, seeded with the golden responses: no panic, and an
// accepted response re-encodes to bytes that decode to the same
// response.
func FuzzUnmarshalResponse(f *testing.F) {
	for _, h := range []string{goldenResponseHex, goldenNotFoundHex} {
		raw, _ := hex.DecodeString(h)
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		status, detail, ads, err := unmarshalResponse(data)
		if err != nil {
			return
		}
		wire := make([][]byte, len(ads))
		for i, a := range ads {
			wire[i] = a.Marshal()
		}
		status2, detail2, ads2, err := unmarshalResponse(marshalResponse(status, detail, wire))
		if err != nil {
			t.Fatalf("accepted response does not round trip: %v", err)
		}
		if status2 != status || detail2 != detail || !reflect.DeepEqual(ads2, ads) {
			t.Fatal("round trip changed the response")
		}
	})
}
