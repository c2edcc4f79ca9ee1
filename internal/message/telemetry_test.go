package message

import (
	"reflect"
	"testing"

	"entitytrace/internal/wire"
)

func TestTelemetrySnapshotRoundtrip(t *testing.T) {
	in := &TelemetrySnapshot{
		Broker:         "hb2",
		AtNanos:        1_723_000_000_123_456_789,
		FabricEpoch:    7,
		IntervalMillis: 1000,
		Rows: []TelemetryRow{
			{Name: "broker_published_total", Counter: true, Value: 1234},
			{Name: "broker_egress_queue_depth", Counter: false, Value: 17},
			{Name: "guard_hits_total", Counter: true, Value: -55}, // restart re-anchor delta
			{Name: "fabric_epoch", Counter: false, Value: 7},
		},
		Alerts: []TelemetryAlert{
			{Rule: "deep-queues", Series: "broker_egress_queue_depth", Firing: true,
				SinceNanos: 42, Value: 170.5},
			{Rule: "quiet", Series: "broker_published_total", Firing: false,
				SinceNanos: 17, Value: 0.25},
		},
	}
	out, err := UnmarshalTelemetrySnapshot(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed snapshot:\n in=%+v\nout=%+v", in, out)
	}
}

func TestTelemetrySnapshotEmpty(t *testing.T) {
	in := &TelemetrySnapshot{Broker: "hb0", AtNanos: 1, IntervalMillis: 50}
	out, err := UnmarshalTelemetrySnapshot(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Broker != "hb0" || len(out.Rows) != 0 || len(out.Alerts) != 0 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestTelemetrySnapshotRowCap(t *testing.T) {
	in := &TelemetrySnapshot{Broker: "hb0", AtNanos: 1}
	for i := 0; i < maxTelemetryRows+10; i++ {
		in.Rows = append(in.Rows, TelemetryRow{Name: "s", Value: int64(i)})
		in.Alerts = append(in.Alerts, TelemetryAlert{Rule: "r", Series: "s"})
		in.Avail = append(in.Avail, AvailabilityRow{Entity: "e"})
	}
	out, err := UnmarshalTelemetrySnapshot(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != maxTelemetryRows || len(out.Alerts) != maxTelemetryRows || len(out.Avail) != maxTelemetryRows {
		t.Fatalf("marshal did not truncate at the cap: %d rows, %d alerts, %d avail rows",
			len(out.Rows), len(out.Alerts), len(out.Avail))
	}
	// A forged count beyond the cap is rejected outright, not allocated.
	var w wire.Writer
	w.Str("hb0")
	w.I64(1)
	w.U64(0)
	w.U32(50)
	w.U16(maxTelemetryRows + 1)
	if _, err := UnmarshalTelemetrySnapshot(w.Buf); err == nil {
		t.Fatal("oversized row count accepted")
	}
}

func TestTelemetrySnapshotTruncated(t *testing.T) {
	wire := (&TelemetrySnapshot{
		Broker: "hb1", AtNanos: 5, IntervalMillis: 50,
		Rows:   []TelemetryRow{{Name: "a", Counter: true, Value: -3}},
		Alerts: []TelemetryAlert{{Rule: "r", Series: "a", Firing: true, SinceNanos: 9, Value: 1}},
	}).Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := UnmarshalTelemetrySnapshot(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected too (r.Done()).
	if _, err := UnmarshalTelemetrySnapshot(append(wire, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
