// Availability end-to-end suite: the ledger → telemetry snapshot → board
// pipeline driven the way an operator uses it. A 3-broker chain hosts an
// entity whose verified traces feed the brokers' availability ledgers;
// the suite asserts that `tracectl avail` renders the fleet board from
// the ledger rows on the system-telemetry topic, that the /avail admin
// endpoint serves the same rows over HTTP, that a seeded link flap
// leaves transitions and downtime in the host broker's ledger, and that
// a scripted flapping entity matches fake-clock ground truth exactly
// (with FLAPPING damping suppressing per-transition alert churn). Run
// the suite alone with `make avail`.
package entitytrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/clock"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/tracectl"
)

// availHarness stands up a 3-broker chain with per-broker availability
// ledgers riding telemetry snapshots every 150 ms under a default SLO, so
// board tests observe budget rows without waiting out production
// cadences.
func availHarness(t *testing.T) *harness.Testbed {
	t.Helper()
	tb, err := harness.New(harness.Options{
		Brokers:           3,
		TelemetryInterval: 150 * time.Millisecond,
		Avail:             avail.Config{DefaultSLO: avail.SLO{Target: 0.99, Window: time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// ledgerRow polls the ledger until the entity's digest row satisfies
// ok, returning the matching row.
func ledgerRow(t *testing.T, l *avail.Ledger, entity string, d time.Duration, ok func(message.AvailabilityRow) bool) message.AvailabilityRow {
	t.Helper()
	var last message.AvailabilityRow
	deadline := time.Now().Add(d)
	for {
		for _, row := range l.Digest("probe").Rows {
			if row.Entity == entity {
				last = row
				if ok(row) {
					return row
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger row for %s never satisfied condition; last: %+v", entity, last)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestAvailCtlBoard runs an entity on hb0 and a tracker on hb2, then
// watches the system-telemetry topic from hb2 the way `tracectl avail`
// does: the host broker's ledger rows must disseminate network-wide in
// its snapshots and render a board row with the entity UP, an uptime bar
// and the SLO budget position. The same digests must round-trip through
// the JSON renderer.
func TestAvailCtlBoard(t *testing.T) {
	tb := availHarness(t)
	ent, err := tb.StartEntity("board-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.StartTracker("board-tracker", 2, "board-entity",
		topic.NewClassSet(topic.ClassStateTransitions)); err != nil {
		t.Fatal(err)
	}
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	ledgerRow(t, tb.Nodes[0].Manager.Avail(), "board-entity", 10*time.Second,
		func(r message.AvailabilityRow) bool { return avail.State(r.State) == avail.Up })

	deadline := time.Now().Add(15 * time.Second)
	var digests []*message.AvailabilityDigest
	for {
		a := tracectl.NewTopAssembler(nil)
		if err := tracectl.WatchTelemetry(tb.Transport(), tb.Addrs[2], "availctl-e2e",
			500*time.Millisecond, time.Second, a, nil); err != nil {
			t.Fatalf("watch telemetry: %v", err)
		}
		digests = a.Avail()
		var out bytes.Buffer
		tracectl.RenderAvailBoard(&out, digests)
		got := out.String()
		if strings.Contains(got, "reporter hb0") && strings.Contains(got, "board-entity") &&
			strings.Contains(got, "UP") && strings.Contains(got, "budget") &&
			strings.Contains(got, "5m [") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("availability board incomplete:\n%s", got)
		}
	}

	// The same digests drive -format json: the document must parse back
	// into rows carrying the entity and its budget position.
	var js bytes.Buffer
	if err := tracectl.RenderAvailJSON(&js, digests); err != nil {
		t.Fatal(err)
	}
	var decoded []*message.AvailabilityDigest
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("avail JSON did not parse: %v\n%s", err, js.String())
	}
	found := false
	for _, d := range decoded {
		for _, row := range d.Rows {
			if row.Entity == "board-entity" && avail.State(row.State) == avail.Up && row.BudgetRemaining >= 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("JSON output missing UP board-entity row with budget:\n%s", js.String())
	}
}

// TestAvailAdminEndpoint serves a broker ledger and a tracker ledger
// through the /avail admin handler and pulls both with the tracectl
// client: the rows must match the ledgers, and the ?entity= filter must
// narrow the digest.
func TestAvailAdminEndpoint(t *testing.T) {
	tb := availHarness(t)
	ent, err := tb.StartEntity("admin-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("admin-tracker", 2, "admin-entity",
		topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	ledgerRow(t, tb.Nodes[0].Manager.Avail(), "admin-entity", 10*time.Second,
		func(r message.AvailabilityRow) bool { return avail.State(r.State) == avail.Up })
	// The tracker ledger fills once a verified trace is delivered; the
	// first report may race interest propagation, so retry the report.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := h.Avail.State("admin-entity"); ok && st == avail.Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tracker ledger never saw admin-entity up")
		}
		_ = ent.SetState(message.StateReady)
		time.Sleep(100 * time.Millisecond)
	}

	brokerSrv := httptest.NewServer(avail.Handler(tb.Nodes[0].Manager.Avail(), "hb0"))
	defer brokerSrv.Close()
	trackerSrv := httptest.NewServer(avail.Handler(h.Avail, "admin-tracker"))
	defer trackerSrv.Close()

	cl := &tracectl.Client{Admins: []string{brokerSrv.URL, trackerSrv.URL}}
	digests, err := cl.FetchAvail()
	if err != nil {
		t.Fatal(err)
	}
	reporters := make(map[string]bool)
	for _, d := range digests {
		reporters[d.Reporter] = true
		found := false
		for _, row := range d.Rows {
			if row.Entity == "admin-entity" && avail.State(row.State) == avail.Up {
				found = true
			}
		}
		if !found {
			t.Fatalf("reporter %s digest missing UP admin-entity row: %+v", d.Reporter, d.Rows)
		}
	}
	if !reporters["hb0"] || !reporters["admin-tracker"] {
		t.Fatalf("expected digests from hb0 and admin-tracker, got %v", reporters)
	}

	// ?entity= narrows the digest to the named entity.
	resp, err := brokerSrv.Client().Get(brokerSrv.URL + "?entity=no-such-entity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var filtered message.AvailabilityDigest
	if err := json.NewDecoder(resp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Rows) != 0 {
		t.Fatalf("entity filter leaked rows: %+v", filtered.Rows)
	}
}

// TestAvailChaosLinkFlap force-closes every connection (the chaos
// injector's seeded flap) and lets reconnect/resume heal the path: the
// host broker's ledger must record the outage — at least one down and
// one up transition with nonzero downtime — and settle back to UP.
func TestAvailChaosLinkFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in short mode")
	}
	tb, inj := chaosHarness(t, 23, harness.Options{
		Brokers:           2,
		Detector:          tolerantDetector(),
		Reconnect:         true,
		PersistentLinks:   true,
		TelemetryInterval: 150 * time.Millisecond,
		Avail:             avail.Config{DefaultSLO: avail.SLO{Target: 0.99, Window: time.Minute}},
	})
	ent, err := tb.StartEntity("avail-flap-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("avail-flap-tracker", 1, "avail-flap-entity", topic.AllClasses())
	if err != nil {
		t.Fatal(err)
	}
	log := newStateLog()
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)
	ledger := tb.Nodes[0].Manager.Avail()
	ledgerRow(t, ledger, "avail-flap-entity", 10*time.Second,
		func(r message.AvailabilityRow) bool { return avail.State(r.State) == avail.Up })

	if n := inj.Flap(); n == 0 {
		t.Fatal("flap closed no connections")
	}
	// The drop publishes a DISCONNECT trace (ledger: down); the redialed
	// session's next verified reports flip it back up.
	driveState(t, ent, h, message.StateRecovering, log, 30*time.Second)
	driveState(t, ent, h, message.StateReady, log, 15*time.Second)

	row := ledgerRow(t, ledger, "avail-flap-entity", 15*time.Second, func(r message.AvailabilityRow) bool {
		return avail.State(r.State) == avail.Up && r.Transitions >= 2 && r.DowntimeNanos > 0
	})
	if row.MTTRNanos <= 0 {
		t.Fatalf("recovered outage left no MTTR: %+v", row)
	}
	// The tracker's own ledger follows the same verified stream.
	if st, ok := h.Avail.State("avail-flap-entity"); !ok || st != avail.Up {
		t.Fatalf("tracker ledger state after recovery = %v (known=%v), want Up", st, ok)
	}
}

// TestAvailFlappingGroundTruth scripts a seeded flapping entity against
// a fake clock and checks the ledger against arithmetic ground truth:
// exact transition count and cumulative downtime, the exact worst
// time-to-detect, a single flap episode for one continuous burst — and
// damping, i.e. far fewer emitted transition events than transitions
// once FLAPPING engages.
func TestAvailFlappingGroundTruth(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	fc := clock.NewFake(t0)
	var events []avail.Event
	l := avail.New(avail.Config{
		Clock:           fc,
		FlapTransitions: 4,
		FlapWindow:      time.Minute,
		FlapHold:        30 * time.Second,
		OnEvent:         func(e avail.Event) { events = append(events, e) },
	})
	rng := rand.New(rand.NewSource(7))

	const entity = "gt-entity"
	l.Observe(avail.Observation{Entity: entity, Kind: avail.KindUp})

	// 20 down/up cycles with seeded gaps; every down observation carries
	// a seeded report-to-seen detection delay.
	var (
		transitions uint32
		downtime    time.Duration
		maxDetect   time.Duration
	)
	for i := 0; i < 20; i++ {
		fc.Advance(time.Duration(1+rng.Intn(5)) * time.Second)
		detect := time.Duration(10+rng.Intn(190)) * time.Millisecond
		maxDetect = max(maxDetect, detect)
		l.Observe(avail.Observation{Entity: entity, Kind: avail.KindDown, At: fc.Now().Add(-detect)})
		transitions++
		gap := time.Duration(1+rng.Intn(5)) * time.Second
		fc.Advance(gap)
		downtime += gap
		l.Observe(avail.Observation{Entity: entity, Kind: avail.KindUp})
		transitions++
	}
	// Quiet period past the hold-down; the next confirming observation
	// (an entity's routine alls-well) emits flap_end and settles to UP.
	fc.Advance(45 * time.Second)
	l.Observe(avail.Observation{Entity: entity, Kind: avail.KindUp})
	if st, ok := l.State(entity); !ok || st != avail.Up {
		t.Fatalf("state after quiet period = %v (known=%v), want Up", st, ok)
	}

	var row message.AvailabilityRow
	for _, r := range l.Digest("gt").Rows {
		if r.Entity == entity {
			row = r
		}
	}
	if row.Entity == "" {
		t.Fatal("digest missing ground-truth entity")
	}
	if row.Transitions != transitions {
		t.Fatalf("transitions = %d, ground truth %d", row.Transitions, transitions)
	}
	if row.DowntimeNanos != int64(downtime) {
		t.Fatalf("downtime = %v, ground truth %v", time.Duration(row.DowntimeNanos), downtime)
	}
	if row.DetectMaxNanos != int64(maxDetect) {
		t.Fatalf("detect max = %v, ground truth %v", time.Duration(row.DetectMaxNanos), maxDetect)
	}
	if row.Flaps != 1 {
		t.Fatalf("flap episodes = %d, want 1 (one continuous burst)", row.Flaps)
	}

	// Damping: once FLAPPING engaged (after FlapTransitions flips), the
	// per-transition events stop; alert churn is a handful of events, not
	// one per flip.
	var transitionEvents, flapStarts, flapEnds int
	for _, e := range events {
		switch e.Type {
		case "transition":
			transitionEvents++
		case "flap_start":
			flapStarts++
		case "flap_end":
			flapEnds++
		}
	}
	if flapStarts != 1 || flapEnds != 1 {
		t.Fatalf("flap_start=%d flap_end=%d, want 1/1", flapStarts, flapEnds)
	}
	if transitionEvents >= int(transitions) {
		t.Fatalf("damping failed: %d transition events for %d transitions", transitionEvents, transitions)
	}
	// FlapTransitions is 4 here: the burst may emit at most the flips
	// that precede the FLAPPING overlay plus the settle transition.
	if transitionEvents > 5 {
		t.Fatalf("alert churn: %d transition events, want <= FlapTransitions+1", transitionEvents)
	}
}
