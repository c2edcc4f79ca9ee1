package message

import (
	"bytes"
	"testing"
	"time"

	"entitytrace/internal/topic"
)

// FuzzUnmarshalEnvelope hammers the envelope parser with mutated wire
// bytes: it must never panic, and anything it accepts must re-marshal
// and re-parse to the same bytes-level structure. The corpus seeds both
// the seed wire format (no span trailer) and span'd envelopes, so
// mutations explore the optional trailer's parse paths.
func FuzzUnmarshalEnvelope(f *testing.F) {
	e := New(TraceAllsWell, topic.MustParse("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates"),
		"entity", []byte("payload"))
	e.Token = []byte("token")
	e.Signature = []byte("signature")
	f.Add(e.Marshal()) // seed format: no span trailer
	spanned := e.Clone()
	spanned.StartSpan()
	spanned.AddHop("entity", time.Unix(0, 1))
	spanned.AddHop("broker-1", time.Unix(0, 2_000_000))
	f.Add(spanned.Marshal()) // span trailer with two hops
	empty := e.Clone()
	empty.StartSpan()
	f.Add(empty.Marshal()) // span trailer with zero hops
	// Span trailer at exactly MaxHops: the largest hop count the parser
	// accepts, so mutations probe the boundary (MaxHops+1 must reject).
	full := e.Clone()
	full.StartSpan()
	for i := 0; i < MaxHops; i++ {
		full.AddHop("n", time.Unix(0, int64(i)))
	}
	f.Add(full.Marshal())
	f.Add([]byte{})
	f.Add([]byte{1})
	// Truncated span trailers: cut the spanned wire at several points
	// inside the trailer so mutations start from half-parsed hop records.
	spannedWire := spanned.Marshal()
	plainLen := len(e.Marshal())
	for _, cut := range []int{1, 2, len(spanned.Marshal()[plainLen:]) / 2, len(spannedWire) - plainLen - 1} {
		if cut > 0 && plainLen+cut < len(spannedWire) {
			f.Add(append([]byte(nil), spannedWire[:plainLen+cut]...))
		}
	}
	// Flipped signature bytes: parseable envelopes whose signatures can
	// no longer verify, seeding the corrupted-frame handling paths.
	for _, pos := range []int{0, len(e.Signature) / 2, len(e.Signature) - 1} {
		flipped := e.Clone()
		flipped.Signature[pos] ^= 0xFF
		f.Add(flipped.Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		if err != nil {
			return
		}
		back, err := Unmarshal(env.Marshal())
		if err != nil {
			t.Fatalf("accepted envelope does not round trip: %v", err)
		}
		if back.ID != env.ID || back.Type != env.Type || !back.Topic.Equal(env.Topic) {
			t.Fatal("round trip changed envelope identity")
		}
		if (back.Span == nil) != (env.Span == nil) {
			t.Fatal("round trip changed span presence")
		}
		if env.Span != nil && len(back.Span.Hops) != len(env.Span.Hops) {
			t.Fatal("round trip changed hop count")
		}
	})
}

// FuzzPayloadParsers covers every typed payload decoder.
func FuzzPayloadParsers(f *testing.F) {
	f.Add((&Registration{Entity: "e", CertDER: []byte{1}}).Marshal())
	f.Add((&Ping{Number: 1}).Marshal())
	f.Add((&PingResponse{State: StateReady}).Marshal())
	f.Add((&StateReport{From: StateReady, To: StateShutdown}).Marshal())
	f.Add((&LoadReport{CPUPercent: 1}).Marshal())
	f.Add((&NetworkReport{LossRate: 0.5}).Marshal())
	f.Add((&GaugeInterestProbe{Secured: true}).Marshal())
	f.Add((&InterestResponse{Tracker: "t"}).Marshal())
	f.Add((&TraceKey{Purpose: PurposeTrace, Key: []byte{1}}).Marshal())
	f.Add((&Delegation{TokenBytes: []byte{1}}).Marshal())
	f.Add((&TraceEvent{Entity: "e"}).Marshal())
	f.Add((&ErrorReport{Code: 1}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic on arbitrary input.
		_, _ = UnmarshalRegistration(data)
		_, _ = UnmarshalRegistrationResponse(data)
		_, _ = UnmarshalPing(data)
		_, _ = UnmarshalPingResponse(data)
		_, _ = UnmarshalStateReport(data)
		_, _ = UnmarshalLoadReport(data)
		_, _ = UnmarshalNetworkReport(data)
		_, _ = UnmarshalGaugeInterestProbe(data)
		_, _ = UnmarshalInterestResponse(data)
		_, _ = UnmarshalTraceKey(data)
		_, _ = UnmarshalDelegation(data)
		_, _ = UnmarshalTraceEvent(data)
		_, _ = UnmarshalErrorReport(data)
	})
}

// FuzzTelemetrySnapshot hammers the telemetry snapshot parser: it must
// never panic, stay within the row cap, and anything it accepts must
// re-marshal and re-parse identically (the delta rows use the zigzag
// varint helpers, so the corpus seeds negative and large values to walk
// the multi-byte encodings).
func FuzzTelemetrySnapshot(f *testing.F) {
	f.Add((&TelemetrySnapshot{Broker: "hb0", AtNanos: 1, IntervalMillis: 50}).Marshal())
	f.Add((&TelemetrySnapshot{
		Broker: "hb1", AtNanos: 1 << 40, FabricEpoch: 3, IntervalMillis: 1000,
		Rows: []TelemetryRow{
			{Name: "broker_published_total", Counter: true, Value: 12345},
			{Name: "broker_egress_queue_depth", Value: 17},
			{Name: "re_anchor_total", Counter: true, Value: -1 << 50},
		},
		Alerts: []TelemetryAlert{
			{Rule: "deep-queues", Series: "broker_egress_queue_depth",
				Firing: true, SinceNanos: 42, Value: 170.5},
			{Rule: "deep-queues", Series: "broker_egress_queue_depth",
				Firing: false, SinceNanos: 42, Value: 3},
		},
	}).Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add((&TelemetrySnapshot{
		Broker: "hb2", AtNanos: 9, IntervalMillis: 1000,
		Avail: []AvailabilityRow{
			{Entity: "svc-1", State: 1, SinceNanos: 5, Uptime5m: 1, Uptime1h: -1, Uptime24h: -1,
				BudgetRemaining: 0.5, BurnRate: 2},
			{Entity: "svc-2", State: 3, Transitions: 4, Flaps: 1, DowntimeNanos: 1 << 40,
				MTBFNanos: 7, MTTRNanos: 8, DetectLastNanos: 9, DetectMaxNanos: 10,
				BudgetRemaining: -1, BurnRate: -1, Breaches: 2},
		},
	}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := UnmarshalTelemetrySnapshot(data)
		if err != nil {
			return
		}
		if len(ts.Rows) > maxTelemetryRows || len(ts.Alerts) > maxTelemetryRows || len(ts.Avail) > maxTelemetryRows {
			t.Fatalf("accepted %d rows / %d alerts / %d avail rows past the cap",
				len(ts.Rows), len(ts.Alerts), len(ts.Avail))
		}
		back, err := UnmarshalTelemetrySnapshot(ts.Marshal())
		if err != nil {
			t.Fatalf("accepted snapshot does not round trip: %v", err)
		}
		if back.Broker != ts.Broker || back.AtNanos != ts.AtNanos ||
			back.FabricEpoch != ts.FabricEpoch || back.IntervalMillis != ts.IntervalMillis ||
			len(back.Rows) != len(ts.Rows) || len(back.Alerts) != len(ts.Alerts) ||
			len(back.Avail) != len(ts.Avail) {
			t.Fatal("round trip changed snapshot header or counts")
		}
		for i := range ts.Rows {
			if back.Rows[i] != ts.Rows[i] {
				t.Fatalf("round trip changed row %d: %+v vs %+v", i, ts.Rows[i], back.Rows[i])
			}
		}
		// Avail rows carry float ratios a fuzzed NaN would fail a
		// field-wise != on; they must survive bit for bit instead.
		if !bytes.Equal(back.Marshal(), ts.Marshal()) {
			t.Fatalf("round trip changed avail rows: %+v vs %+v", ts.Avail, back.Avail)
		}
	})
}
