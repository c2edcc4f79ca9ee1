// Telemetry-plane hot-path benchmarks (PROTOCOL.md §3.10): steady-state
// time-series appends (the per-tick sampling cost every broker pays),
// the TELEMETRY_SNAPSHOT codec, and the tracectl top assembler's ingest
// path. All live in the root package so `make benchdiff` tracks them
// alongside the other hot paths.
package entitytrace

import (
	"fmt"
	"testing"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/tracectl"
)

// benchSnapshot builds a TELEMETRY_SNAPSHOT shaped like a real broker
// tick: a full row set plus one standing alert.
func benchSnapshot(atNanos int64) *message.TelemetrySnapshot {
	ts := &message.TelemetrySnapshot{
		Broker:         "hb0",
		AtNanos:        atNanos,
		FabricEpoch:    3,
		IntervalMillis: 1000,
		Alerts: []message.TelemetryAlert{
			{Rule: "deep-queues", Series: "broker_egress_queue_depth",
				Firing: true, SinceNanos: atNanos - int64(time.Second), Value: 170},
		},
	}
	for i := 0; i < 16; i++ {
		ts.Rows = append(ts.Rows, message.TelemetryRow{
			Name: fmt.Sprintf("broker_series_%d_total", i), Counter: true, Value: int64(i * 17)})
	}
	for _, g := range []string{"broker_egress_queue_depth", "broker_peers",
		"broker_subscriptions", "fabric_epoch", "fabric_members"} {
		ts.Rows = append(ts.Rows, message.TelemetryRow{Name: g, Value: 4})
	}
	return ts
}

// BenchmarkTelemetryAppend measures the steady-state per-sample cost of
// the bounded time-series store — the price a broker pays per series per
// telemetry tick. Must stay allocation-free once the block ring is warm.
func BenchmarkTelemetryAppend(b *testing.B) {
	s := timeseries.New(timeseries.Options{}).Series("bench_depth", timeseries.Gauge)
	base := time.Now().UnixNano()
	step := int64(time.Second)
	for i := 0; i < 256; i++ { // warm the block ring past its first fill
		s.Append(base+int64(i)*step, int64(i%97))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(base+int64(256+i)*step, int64(i%97))
	}
}

// BenchmarkTelemetryQuery measures reading a fully-populated fine window
// back out (the /timeseries endpoint and alert engine path).
func BenchmarkTelemetryQuery(b *testing.B) {
	s := timeseries.New(timeseries.Options{}).Series("bench_depth", timeseries.Gauge)
	base := time.Now().UnixNano()
	step := int64(time.Second)
	for i := 0; i < 900; i++ { // full 15m fine retention
		s.Append(base+int64(i)*step, int64(i%97))
	}
	since := base + 800*step
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Query(since, 0); len(pts) == 0 {
			b.Fatal("empty query")
		}
	}
}

func BenchmarkTelemetrySnapshotMarshal(b *testing.B) {
	ts := benchSnapshot(time.Now().UnixNano())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts.Marshal()
	}
}

func BenchmarkTelemetrySnapshotUnmarshal(b *testing.B) {
	wire := benchSnapshot(time.Now().UnixNano()).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := message.UnmarshalTelemetrySnapshot(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryIngest measures the tracectl top assembler folding
// one broker snapshot into the fleet board — the subscriber-side cost
// per telemetry tick per broker.
func BenchmarkTelemetryIngest(b *testing.B) {
	a := tracectl.NewTopAssembler(nil)
	base := time.Now().UnixNano()
	ts := benchSnapshot(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.AtNanos = base + int64(i+1)*int64(time.Second)
		a.Ingest(ts)
	}
}
