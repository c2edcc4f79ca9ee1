// Fleet telemetry plane end-to-end (PROTOCOL.md §3.10): a 4-broker
// fabric publishes delta-encoded TELEMETRY_SNAPSHOTs on the
// system-telemetry topic; one `tracectl top` subscription assembles
// every broker's series, an injected egress-queue-depth breach fires
// exactly one edge-triggered alert (clearing after the hold-down), and
// a crashed broker raises the synthesized absence-of-heartbeat alert —
// all asserted through the -format json board.
package entitytrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/topic"
	"entitytrace/internal/tracectl"
)

// TestMetricNameLint keeps every metric registered by any package in
// this binary honest against the exposition naming conventions
// (counters end _total, histograms carry a unit, no kind collisions).
// The root package imports effectively everything, so init-registered
// metrics across the codebase are all visible here. The same lint then
// runs over what a live broker puts on /System/Telemetry, with the rule
// that makes a second name for one count impossible: a row's name is its
// /metrics name. Every counter row must be a counter of that name in the
// broker's own registry — whose counters each have one declaration and
// one incrementing statement — or, for the pair sampled from the guard
// cache, in the process registry; a telemetry-only alias fails here.
func TestMetricNameLint(t *testing.T) {
	if v := obs.CheckNames(obs.Default.Snapshot()); len(v) != 0 {
		t.Fatalf("metric naming violations:\n  %s", strings.Join(v, "\n  "))
	}
	tb, err := harness.New(harness.Options{Brokers: 1, TelemetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cl, err := broker.Connect(tb.Transport(), tb.Addrs[0], "lint-watcher")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	snaps := make(chan *message.TelemetrySnapshot, 1)
	if err := cl.Subscribe(topic.SystemTelemetry(), func(env *message.Envelope) {
		if ts, err := message.UnmarshalTelemetrySnapshot(env.Payload); err == nil {
			select {
			case snaps <- ts:
			default:
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	var ts *message.TelemetrySnapshot
	select {
	case ts = <-snaps:
	case <-time.After(10 * time.Second):
		t.Fatal("no telemetry snapshot")
	}
	own, process := tb.Brokers[0].Health().Metrics, obs.Default.Snapshot()
	wire := obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	for _, r := range ts.Rows {
		if !r.Counter {
			wire.Gauges[r.Name] = r.Value
			continue
		}
		wire.Counters[r.Name] = uint64(r.Value)
		_, scoped := own.Counters[r.Name]
		_, wide := process.Counters[r.Name]
		if !scoped && !(wide && strings.HasPrefix(r.Name, "guard_cache_")) {
			t.Errorf("counter row %q is not a counter of that name in the broker's registry", r.Name)
		}
	}
	for name := range own.Counters {
		if _, ok := wire.Counters[name]; !ok {
			t.Errorf("registry counter %q is not a telemetry row", name)
		}
	}
	if v := obs.CheckNames(wire); len(v) != 0 {
		t.Errorf("telemetry row naming violations:\n  %s", strings.Join(v, "\n  "))
	}
}

// telemetryBoard polls the assembler's rendered -format json output —
// the same bytes `tracectl top -format json` prints — back into a
// TopBoard, so every assertion goes through the public JSON surface.
func telemetryBoard(t *testing.T, a *tracectl.TopAssembler) *tracectl.TopBoard {
	t.Helper()
	var buf bytes.Buffer
	if err := tracectl.RenderTopJSON(&buf, a.Board()); err != nil {
		t.Fatal(err)
	}
	var b tracectl.TopBoard
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatalf("board JSON does not parse: %v\n%s", err, buf.String())
	}
	return &b
}

func boardAlert(b *tracectl.TopBoard, rule string) *tracectl.TopAlert {
	for i := range b.Alerts {
		if b.Alerts[i].Rule == rule {
			return &b.Alerts[i]
		}
	}
	return nil
}

func TestTelemetryFleetTopE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry e2e skipped in short mode")
	}
	const interval = 250 * time.Millisecond
	rules, err := timeseries.ParseRules(
		"deep-queues: broker_egress_queue_depth > 50 for 500ms hold 750ms")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := harness.New(harness.Options{
		Brokers:           4,
		Fabric:            true,
		TelemetryInterval: interval,
		TelemetryRules:    rules,
		EgressQueue:       2048,
		// Keep the stalled consumer connected (not evicted) so the injected
		// queue depth persists across the rule's for-window.
		SlowConsumerDeadline: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// One subscription on one broker sees the whole fleet: the topic's
	// Disseminate distribution propagates snapshots network-wide.
	a := tracectl.NewTopAssembler(nil)
	go func() {
		_ = tracectl.WatchTelemetry(tb.Transport(), tb.Addrs[0], "telemetry-watcher",
			5*time.Minute, interval, a, nil)
	}()

	// Phase 1: every broker's series assemble from /System/Telemetry.
	waitFor(t, 30*time.Second, func() bool {
		b := telemetryBoard(t, a)
		if len(b.Brokers) != 4 {
			return false
		}
		for _, v := range b.Brokers {
			if v.Stale || v.AtNanos == 0 {
				return false
			}
			for _, series := range []string{
				"broker_published_total", "broker_egress_queue_depth",
				"fabric_epoch", "fabric_members",
			} {
				if _, ok := v.Series[series]; !ok {
					return false
				}
			}
			// Gossip convergence: every broker's own membership view must
			// have reached full strength, not merely started reporting.
			if v.Series["fabric_members"].Value != 4 {
				return false
			}
		}
		return true
	})
	board := telemetryBoard(t, a)
	if boardAlert(board, "deep-queues") != nil || board.Episodes != 0 {
		t.Fatalf("alerts before any breach: %+v", board.Alerts)
	}

	// Phase 2: inject the egress breach on broker 0 — a consumer that
	// acks its subscription and then never reads another frame, plus a
	// publisher piling frames onto it. The per-peer queue depth climbs
	// past the threshold and stays there.
	noise := topic.MustParse("/e2e/telemetry/noise")
	stallTr := &stallRecvTransport{Transport: tb.Transport(), passRecvs: 2}
	staller, err := broker.Connect(stallTr, tb.Addrs[0], "telemetry-staller")
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()
	if err := staller.Subscribe(noise, func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	pub, err := broker.Connect(tb.Transport(), tb.Addrs[0], "telemetry-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Publish until the stalled peer's queue visibly exceeds the rule
	// threshold: the subscription must first propagate across the fabric,
	// so frames sent too early are legitimately dropped, not queued.
	waitFor(t, 30*time.Second, func() bool {
		for i := 0; i < 100; i++ {
			if err := pub.Publish(message.New(message.TypeData, noise, "telemetry-pub", []byte("fill"))); err != nil {
				t.Fatalf("noise publish: %v", err)
			}
		}
		time.Sleep(20 * time.Millisecond)
		queued := 0
		for _, p := range tb.Brokers[0].Health().Peers {
			queued += p.Queued
		}
		return queued > 100
	})

	// Phase 3: exactly one firing edge, via the JSON board.
	waitFor(t, 30*time.Second, func() bool {
		return boardAlert(telemetryBoard(t, a), "deep-queues") != nil
	})
	board = telemetryBoard(t, a)
	al := boardAlert(board, "deep-queues")
	if al.Series != "broker_egress_queue_depth" || al.Broker != "hb0" || al.Value <= 50 {
		t.Fatalf("firing alert = %+v", al)
	}
	if board.Episodes != 1 {
		t.Fatalf("episodes after fire = %d, want 1", board.Episodes)
	}
	// The alert stays edge-triggered: several more publisher intervals of
	// a standing breach add no new episodes.
	time.Sleep(4 * interval)
	if got := telemetryBoard(t, a).Episodes; got != 1 {
		t.Fatalf("standing breach re-fired: %d episodes", got)
	}

	// Phase 4: relieve the breach; the alert clears after the hold-down
	// without opening a second episode.
	staller.Close()
	waitFor(t, 30*time.Second, func() bool {
		return boardAlert(telemetryBoard(t, a), "deep-queues") == nil
	})
	if got := telemetryBoard(t, a).Episodes; got != 1 {
		t.Fatalf("episodes after clear = %d, want 1 (clear must not re-fire)", got)
	}

	// Phase 5: crash a broker. Its snapshots stop, and the assembler's
	// subscriber-side absence detector raises the synthesized
	// heartbeat-absent alert a dead broker cannot publish for itself.
	if err := tb.StopBroker(3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool {
		al := boardAlert(telemetryBoard(t, a), "heartbeat-absent")
		return al != nil && al.Broker == "hb3" && al.Synthesized
	})
	board = telemetryBoard(t, a)
	var hb3 *tracectl.TopBrokerView
	for i := range board.Brokers {
		if board.Brokers[i].Broker == "hb3" {
			hb3 = &board.Brokers[i]
		}
	}
	if hb3 == nil || !hb3.Stale {
		t.Fatalf("crashed broker not marked stale: %+v", hb3)
	}
	if board.Episodes != 2 {
		t.Fatalf("episodes after crash = %d, want 2 (deep-queues + heartbeat-absent)", board.Episodes)
	}

	// The text renderer carries the same story for humans.
	var txt bytes.Buffer
	tracectl.RenderTop(&txt, a.Board())
	for _, want := range []string{"hb0", "hb3", "[STALE]", "ALERT*", "heartbeat-absent", "fleet: 4 broker(s)"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("RenderTop output missing %q:\n%s", want, txt.String())
		}
	}
}
