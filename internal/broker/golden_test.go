package broker

import (
	"encoding/hex"
	"testing"
)

// goldenControls holds one fixed frame of every control kind with its
// wire body as the codec has always written it; the REPLAY and ACK-CUR
// frames carry their cursor.
var goldenControls = []struct {
	c   control
	hex string
}{
	{control{Kind: ctrlHello, IsBroker: true, Name: "broker-1"}, "01010000000862726f6b65722d3100000000000000000000000000000000"},
	{control{Kind: ctrlSub, ID: 7, Topic: "/Availability/Traces/svc-1"}, "02000000000000000000000000070000001a2f417661696c6162696c6974792f5472616365732f7376632d3100000000"},
	{control{Kind: ctrlUnsub, ID: 8, Topic: "/Availability/Traces/svc-1"}, "03000000000000000000000000080000001a2f417661696c6162696c6974792f5472616365732f7376632d3100000000"},
	{control{Kind: ctrlAck, ID: 7}, "04000000000000000000000000070000000000000000"},
	{control{Kind: ctrlDeny, ID: 9, Topic: "/Availability/Traces/svc-2", Reason: "constrained topic"}, "05000000000000000000000000090000001a2f417661696c6162696c6974792f5472616365732f7376632d3200000011636f6e73747261696e656420746f706963"},
	{control{Kind: ctrlBye}, "06000000000000000000000000000000000000000000"},
	{control{Kind: ctrlDisconnect, ID: uint64(ReasonSlowConsumer), Reason: "egress saturated"}, "0700000000000000000000000002000000000000001065677265737320736174757261746564"},
	{control{Kind: ctrlReplay, ID: 10, Topic: "/Availability/Traces/svc-1", Cursor: 1234}, "080000000000000000000000000a0000001a2f417661696c6162696c6974792f5472616365732f7376632d310000000000000000000004d2"},
	{control{Kind: ctrlAckCur, Topic: "/Availability/Traces/svc-1", Cursor: 1 << 40}, "09000000000000000000000000000000001a2f417661696c6162696c6974792f5472616365732f7376632d31000000000000010000000000"},
}

// TestGoldenControlFrames pins every control frame's wire form in both
// directions.
func TestGoldenControlFrames(t *testing.T) {
	for _, g := range goldenControls {
		if got := hex.EncodeToString(marshalControl(&g.c)); got != g.hex {
			t.Errorf("kind %d encoding changed:\n got %s\nwant %s", g.c.Kind, got, g.hex)
			continue
		}
		raw, _ := hex.DecodeString(g.hex)
		back, err := parseControl(raw)
		if err != nil {
			t.Fatalf("kind %d: %v", g.c.Kind, err)
		}
		if *back != g.c {
			t.Errorf("kind %d decodes to %+v, want %+v", g.c.Kind, *back, g.c)
		}
	}
}

// FuzzParseControl checks the control-frame decoder against arbitrary
// bytes, seeded with the golden frames: no panic, and an accepted frame
// re-encodes to bytes that decode to the same frame.
func FuzzParseControl(f *testing.F) {
	for _, g := range goldenControls {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseControl(data)
		if err != nil {
			return
		}
		back, err := parseControl(marshalControl(c))
		if err != nil {
			t.Fatalf("accepted frame does not round trip: %v", err)
		}
		if *back != *c {
			t.Fatalf("round trip changed %+v to %+v", *c, *back)
		}
	})
}
