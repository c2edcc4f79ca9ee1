// Availability-ledger benchmarks: the per-event cost the ledger adds to
// the tracker's verified-delivery path and the broker's publish funnel,
// plus the fleet digest snapshot. TestExportAvailBench archives the
// numbers in BENCH_avail.json and enforces the tens-of-nanoseconds
// steady-state budget.
//
// Run with: make avail, or
// go test -bench 'Avail' -benchmem .
package entitytrace

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/clock"
)

var availBenchT0 = time.Unix(1_700_000_000, 0)

// BenchmarkAvailObserve measures the steady-state hot path — the
// observation confirms the ledger's current belief — which is what
// every AllsWell/ping-derived event pays on the delivery path.
func BenchmarkAvailObserve(b *testing.B) {
	l := avail.New(avail.Config{Clock: clock.NewFake(availBenchT0)})
	seen := availBenchT0.Add(time.Second)
	ob := avail.Observation{Entity: "bench", Kind: avail.KindUp, SeenAt: seen}
	l.Observe(ob)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(ob)
	}
}

// BenchmarkAvailObserveTransition measures the slow path: every
// observation flips the state, closing an interval and running the flap
// and detection accounting.
func BenchmarkAvailObserveTransition(b *testing.B) {
	l := avail.New(avail.Config{Clock: clock.NewFake(availBenchT0), FlapWindow: time.Nanosecond})
	seen := availBenchT0.Add(time.Second)
	l.Observe(avail.Observation{Entity: "bench", Kind: avail.KindUp, SeenAt: seen})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := avail.KindDown
		if i%2 == 1 {
			k = avail.KindUp
		}
		l.Observe(avail.Observation{Entity: "bench", Kind: k,
			SeenAt: seen.Add(time.Duration(i) * time.Millisecond)})
	}
}

// BenchmarkAvailDigest measures one fleet snapshot: 256 entities with
// SLOs, every row deriving window ratios, MTBF/MTTR and the budget.
func BenchmarkAvailDigest(b *testing.B) {
	fc := clock.NewFake(availBenchT0)
	l := avail.New(avail.Config{Clock: fc, DefaultSLO: avail.SLO{Target: 0.999, Window: time.Hour}})
	for i := 0; i < 256; i++ {
		e := fmt.Sprintf("entity-%03d", i)
		l.Observe(avail.Observation{Entity: e, Kind: avail.KindUp})
		fc.Advance(time.Millisecond)
		if i%3 == 0 {
			l.Observe(avail.Observation{Entity: e, Kind: avail.KindDown})
			fc.Advance(time.Millisecond)
			l.Observe(avail.Observation{Entity: e, Kind: avail.KindUp})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := l.Digest("bench"); len(d.Rows) != 256 {
			b.Fatalf("rows = %d", len(d.Rows))
		}
	}
}

// TestExportAvailBench runs the ledger benchmarks and writes the
// numbers to BENCH_avail.json. The steady-state observation must stay
// in the tens of nanoseconds with zero allocations — it runs on the
// same goroutine that delivers every verified trace.
func TestExportAvailBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping BENCH_avail.json export in -short mode")
	}
	// Tests must not write tracked files: a bare `go test ./...` skips
	// the export, its Makefile recipe opts in.
	if os.Getenv("AVAIL_EXPORT") == "" {
		t.Skip("set AVAIL_EXPORT=1 (make avail) to run the benchmark export")
	}
	steady := runHotpathBench(BenchmarkAvailObserve)
	transition := runHotpathBench(BenchmarkAvailObserveTransition)
	digest := runHotpathBench(BenchmarkAvailDigest)

	// Coarse CI-tolerant backstop on the tens-of-ns budget; the precise
	// regression bound is held by benchdiff's repeated paired runs.
	if steady.NsPerOp > 500 {
		t.Fatalf("steady-state observe = %.1f ns/op, want tens of ns (<500)", steady.NsPerOp)
	}
	if steady.AllocsPerOp != 0 {
		t.Fatalf("steady-state observe allocates (%d allocs/op)", steady.AllocsPerOp)
	}

	out := struct {
		Description string       `json:"description"`
		Observe     hotpathBench `json:"observe_steady_state"`
		Transition  hotpathBench `json:"observe_transition"`
		Digest256   hotpathBench `json:"digest_256_entities"`
	}{
		Description: "availability ledger: steady-state observation (per verified trace on the delivery path), state-flip observation (interval close + flap/detect accounting), and a 256-entity fleet digest with SLO budgets",
		Observe:     steady,
		Transition:  transition,
		Digest256:   digest,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_avail.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_avail.json (observe %.1f ns/op %d allocs, transition %.1f ns/op, digest %.0f ns/op)",
		steady.NsPerOp, steady.AllocsPerOp, transition.NsPerOp, digest.NsPerOp)
}
