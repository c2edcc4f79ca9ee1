// Durable-log end-to-end suite: broker crash recovery, catch-up replay
// and tamper refusal exercised through the full stack (entity → broker
// with durable trace log → tracker, with credentials, tokens and trace
// verification). PROTOCOL.md §3.8. Run alone with `make durable`.
package entitytrace

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/core"
	"entitytrace/internal/durable"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/sysinfo"
	"entitytrace/internal/topic"
)

// durableOptions is the common testbed shape of this suite: one broker
// persisting trace derivatives with per-append fsync (so an abandoned
// store loses nothing), automatic reconnect, and a tracker whose redial
// is paced far slower than the entity's. That asymmetry opens a
// deterministic window after a broker restart in which the entity is
// back and publishing while the tracker is still away — transitions
// that can only ever reach the tracker through catch-up replay.
func durableOptions(logDir string) harness.Options {
	return harness.Options{
		Brokers:          1,
		Detector:         tolerantDetector(),
		Reconnect:        true,
		ReconnectBackoff: backoff.Config{Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		TrackerReconnectBackoff: backoff.Config{
			Initial: 2500 * time.Millisecond, Max: 4 * time.Second, Jitter: -1,
		},
		LogDir:   logDir,
		LogFsync: durable.FsyncAlways,
	}
}

// stateTransitionsOnly keeps the experiment's durable log to exactly one
// topic: with no interest in other classes the manager publishes (and
// the broker persists) nothing else, so the log head counts state
// transitions alone and "every persisted record delivered exactly once"
// becomes an equality check.
func stateTransitionsOnly() topic.ClassSet {
	return topic.NewClassSet(topic.ClassStateTransitions)
}

// TestDurableCrashRecoveryClosesTraceGap is the headline invariant: a
// broker killed mid-stream and restarted on the same log directory must
// leave the tracker's view gapless and duplicate-free. Transitions
// published in the window where the entity has reconnected but the
// tracker has not are provably persisted (the recovered log's head
// advances) and reach the tracker only through §3.8 catch-up replay.
func TestDurableCrashRecoveryClosesTraceGap(t *testing.T) {
	if testing.Short() {
		t.Skip("durable suite skipped in short mode")
	}
	tb, err := harness.New(durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("crash-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("crash-tracker", 0, "crash-entity", stateTransitionsOnly())
	if err != nil {
		t.Fatal(err)
	}
	// The trace manager's interest table is in-memory and dies with the
	// broker. A second, fast-redialing tracker re-announces interest
	// right after the restart, so the manager resumes publishing (and
	// the broker persisting) while the slow audit tracker is still away.
	if _, err := tb.StartTrackerPaced("crash-keeper", 0, "crash-entity", stateTransitionsOnly(),
		backoff.Config{Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ts := topic.StateTransitions(h.Watch.TraceTopic()).String()
	log := newStateLog()

	// Phase 1: live traffic through the durable pump.
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)
	driveState(t, ent, h, message.StateRecovering, log, 10*time.Second)
	driveState(t, ent, h, message.StateReady, log, 10*time.Second)

	// Phase 2: crash — no final sync on the store — and restart on the
	// same directory. Recovery must verify the persisted segments and
	// resume the same offset space.
	if err := tb.StopBroker(0); err != nil {
		t.Fatal(err)
	}
	if err := tb.RestartBroker(0); err != nil {
		t.Fatalf("recovery refused a legitimate crash log: %v", err)
	}

	// Phase 3: the gap. The entity reconnects within its ~20ms backoff;
	// the tracker sleeps its multi-second pace. Each publish retries
	// until the recovered log's head advances — proof the transition is
	// durably persisted while the tracker is away.
	publishInGap := func(want message.EntityState) {
		before := tb.Nodes[0].Store.Head(ts)
		deadline := time.Now().Add(5 * time.Second)
		for tb.Nodes[0].Store.Head(ts) <= before {
			if time.Now().After(deadline) {
				t.Fatalf("gap transition to %v never reached the recovered log", want)
			}
			_ = ent.SetState(want) // fails while the entity is still redialing; retried
			time.Sleep(50 * time.Millisecond)
		}
	}
	publishInGap(message.StateRecovering)
	publishInGap(message.StateReady)

	// Phase 4: the tracker reconnects, resumes its replay cursor, and
	// live delivery continues on top of the replayed backlog.
	driveState(t, ent, h, message.StateRecovering, log, 30*time.Second)

	// Every record the broker ever persisted must reach the tracker
	// exactly once: distinct transitions seen == recovered log head.
	deadline := time.Now().Add(10 * time.Second)
	for {
		drainInto(h, log, 250*time.Millisecond)
		if uint64(len(log.byAt)) == tb.Nodes[0].Store.Head(ts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracker saw %d distinct transitions, durable log holds %d",
				len(log.byAt), tb.Nodes[0].Store.Head(ts))
		}
	}
	if d := log.duplicates(); d != 0 {
		t.Fatalf("%d duplicate transitions reached the tracker across the crash", d)
	}
	// Sanity: the three pre-crash phases, two gap transitions and the
	// final live one are all distinct reports.
	if len(log.byAt) < 6 {
		t.Fatalf("only %d distinct transitions seen, want >= 6", len(log.byAt))
	}
}

// TestDurableLateTrackerReplaysHistory starts a second tracker long
// after the transitions it cares about were published. Its REPLAY from
// offset zero must deliver the full retained history exactly once —
// the paper's availability ledger built entirely from catch-up.
func TestDurableLateTrackerReplaysHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("durable suite skipped in short mode")
	}
	tb, err := harness.New(durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("history-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The early tracker's interest makes the manager publish (and the
	// broker persist) the transitions the late joiner will replay.
	early, err := tb.StartTracker("early-tracker", 0, "history-entity", stateTransitionsOnly())
	if err != nil {
		t.Fatal(err)
	}
	ts := topic.StateTransitions(early.Watch.TraceTopic()).String()
	earlyLog := newStateLog()
	driveState(t, ent, early, message.StateReady, earlyLog, 15*time.Second)
	driveState(t, ent, early, message.StateRecovering, earlyLog, 10*time.Second)
	driveState(t, ent, early, message.StateReady, earlyLog, 10*time.Second)

	late, err := tb.StartTracker("late-tracker", 0, "history-entity", stateTransitionsOnly())
	if err != nil {
		t.Fatal(err)
	}
	lateLog := newStateLog()
	deadline := time.Now().Add(15 * time.Second)
	for {
		drainInto(late, lateLog, 250*time.Millisecond)
		if uint64(len(lateLog.byAt)) == tb.Nodes[0].Store.Head(ts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late tracker replayed %d distinct transitions, durable log holds %d",
				len(lateLog.byAt), tb.Nodes[0].Store.Head(ts))
		}
	}
	if d := lateLog.duplicates(); d != 0 {
		t.Fatalf("%d duplicate transitions in the late tracker's replay", d)
	}
	if len(lateLog.byAt) < 3 {
		t.Fatalf("late tracker saw %d distinct transitions, want >= 3", len(lateLog.byAt))
	}
}

// TestDurableTamperedSegmentRefusedOnRestart flips one byte in a sealed
// segment between crash and restart: recovery must refuse the whole log
// with the typed tamper error rather than serve altered history.
func TestDurableTamperedSegmentRefusedOnRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("durable suite skipped in short mode")
	}
	dir := t.TempDir()
	opts := durableOptions(dir)
	// Tiny segments so steady publishing seals several of them.
	opts.LogSegmentBytes = 1024
	tb, err := harness.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("tamper-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("tamper-tracker", 0, "tamper-entity", stateTransitionsOnly())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	// Alternate states until some topic directory holds at least two
	// segments: only then is that topic's first segment sealed into the
	// hash chain. (A lone segment per topic is the active one, whose
	// damage is torn-tail truncation, not tamper refusal.)
	var target string
	for round := 0; target == ""; round++ {
		if round >= 200 {
			t.Fatal("publishing never sealed a segment")
		}
		driveState(t, ent, h, roundState(round), log, 15*time.Second)
		segs, err := filepath.Glob(filepath.Join(dir, "hb0", "*", "seg-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		byTopic := make(map[string][]string)
		for _, s := range segs {
			d := filepath.Dir(s)
			byTopic[d] = append(byTopic[d], s) // glob output is sorted
		}
		for _, list := range byTopic {
			if len(list) >= 2 {
				target = list[0]
				break
			}
		}
	}
	if err := tb.StopBroker(0); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the oldest (sealed) segment.
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = tb.RestartBroker(0)
	if err == nil {
		t.Fatal("recovery accepted a tampered sealed segment")
	}
	if !errors.Is(err, durable.ErrTampered) {
		t.Fatalf("recovery error = %v, want durable.ErrTampered", err)
	}
	var corrupt *durable.CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("recovery error %v does not carry the corrupt segment", err)
	}
	if corrupt.Path != target {
		t.Fatalf("corrupt segment path = %s, tampered %s", corrupt.Path, target)
	}
}

// roundState alternates READY and RECOVERING so every report is a real
// transition.
func roundState(round int) message.EntityState {
	if round%2 == 0 {
		return message.StateReady
	}
	return message.StateRecovering
}

// TestDurableBatchedEgressDeliversReplayStream runs the combination the
// benchmark had to leave out: egress drain coalescing (BatchBytes) on
// brokers that persist before fan-out (LogDir), with a replay-mode
// tracker. The replay pump's offset-annotated frames share the tracker
// connection's egress queue with everything else; when a drain packed
// them into a batch frame the client dropped the whole batch, nothing
// was ever ACKed and the cursor rewound forever. Every report of a
// sustained burst must reach the tracker exactly once, without a single
// redelivery.
func TestDurableBatchedEgressDeliversReplayStream(t *testing.T) {
	if testing.Short() {
		t.Skip("durable suite skipped in short mode")
	}
	tb, err := harness.New(harness.Options{
		Brokers:     3,
		Transport:   "tcp",
		SessionKeys: true,
		Symmetric:   true,
		BatchBytes:  32 << 10,
		LogDir:      t.TempDir(),
		Detector:    tolerantDetector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("batched-entity", 0)
	if err != nil {
		t.Fatal(err)
	}

	// A tracker with its own callback: the harness handle's event
	// channel drops on overflow, and this test counts every delivery.
	id, err := tb.CA.Issue("batched-tracker")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := broker.Connect(tb.Transport(), tb.Addrs[2], "batched-tracker")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := core.NewTracker(core.TrackerConfig{
		Identity:  id,
		Verifier:  tb.Verifier,
		Discovery: tb.Node,
		Resolver:  core.NewCachingResolver(core.NodeResolver(tb.Node)),
		Client:    cl,
		Replay:    true,
	})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	defer tk.Close()
	var mu sync.Mutex
	seen := make(map[int64]int)
	if _, err := tk.TrackEntity("batched-entity", topic.NewClassSet(topic.ClassLoad), func(ev core.Event) {
		if ev.Load != nil {
			mu.Lock()
			seen[ev.Load.At]++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	delivered := func(at int64) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[at]
	}
	report := func(at int64) {
		t.Helper()
		if err := ent.ReportLoad(sysinfo.Load{CPUPercent: 50, Workload: 0.5, At: time.Unix(0, at)}); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up: reports are dropped as unknown_session until the session
	// keys are distributed; wait for the path to carry one end to end.
	warm := int64(0)
	waitSession(t, "a load report through the batched durable path", func() bool {
		warm++
		report(warm)
		mu.Lock()
		defer mu.Unlock()
		return len(seen) > 0
	})

	// The burst: a closed loop with a window deep enough that drains
	// find several frames queued, shallow enough not to shed.
	const total, window = 3000, 128
	const base = int64(1_000_000)
	redeliveries := obs.Default.Counter("durable_redeliveries_total")
	batches := obs.Default.Counter("broker_egress_batch_sends_total")
	redelivered0, batches0 := redeliveries.Value(), batches.Value()
	for i := int64(0); i < total; i++ {
		if i >= window {
			waitSession(t, "the burst's window to open", func() bool { return delivered(base+i-window) > 0 })
		}
		report(base + i)
	}
	waitSession(t, "the burst's tail", func() bool { return delivered(base+total-1) > 0 })

	mu.Lock()
	for i := int64(0); i < total; i++ {
		if n := seen[base+i]; n != 1 {
			mu.Unlock()
			t.Fatalf("report %d delivered %d times, want exactly once", i, n)
		}
	}
	mu.Unlock()
	if n := redeliveries.Value() - redelivered0; n != 0 {
		t.Fatalf("durable_redeliveries_total moved by %d during the burst", n)
	}
	if batches.Value() == batches0 {
		t.Fatal("no egress drain coalesced: the batched path was not exercised")
	}
}
