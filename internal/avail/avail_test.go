package avail

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
)

var t0 = time.Unix(1_700_000_000, 0)

// fixture builds a fake-clock ledger and an event collector.
func fixture(t *testing.T, mutate func(*Config)) (*Ledger, *clock.Fake, *events) {
	t.Helper()
	fc := clock.NewFake(t0)
	evs := &events{}
	cfg := Config{
		Clock:   fc,
		OnEvent: evs.record,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), fc, evs
}

type events struct {
	mu  sync.Mutex
	all []Event
}

func (e *events) record(ev Event) {
	e.mu.Lock()
	e.all = append(e.all, ev)
	e.mu.Unlock()
}

func (e *events) ofType(typ string) []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Event
	for _, ev := range e.all {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func observe(l *Ledger, entity string, k Kind) {
	l.Observe(Observation{Entity: entity, Kind: k})
}

func row(t *testing.T, l *Ledger, entity string) message.AvailabilityRow {
	t.Helper()
	for _, r := range l.Digest("test").Rows {
		if r.Entity == entity {
			return r
		}
	}
	t.Fatalf("no digest row for %q", entity)
	return message.AvailabilityRow{}
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v ±%v", name, got, want, tol)
	}
}

// TestTransitionsAndUptime drives a known up/down timeline under the
// fake clock and checks the ledger's every derived number exactly.
func TestTransitionsAndUptime(t *testing.T) {
	l, fc, evs := fixture(t, nil)

	observe(l, "e", KindUp) // t=0
	if st, ok := l.State("e"); !ok || st != Up {
		t.Fatalf("state after first up = %v,%v", st, ok)
	}
	fc.Advance(60 * time.Second)
	observe(l, "e", KindDown) // up 60s
	fc.Advance(30 * time.Second)
	observe(l, "e", KindUp)      // down 30s
	fc.Advance(30 * time.Second) // up 30s so far

	r := row(t, l, "e")
	if State(r.State) != Up {
		t.Fatalf("state = %v", State(r.State))
	}
	if r.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", r.Transitions)
	}
	if got := time.Duration(r.DowntimeNanos); got != 30*time.Second {
		t.Fatalf("downtime = %v, want 30s", got)
	}
	// 5m window: observed 120s, up 90s.
	approx(t, "uptime5m", r.Uptime5m, 90.0/120.0, 1e-9)
	approx(t, "uptime1h", r.Uptime1h, 90.0/120.0, 1e-9)
	// One failure after 60s up, one recovery after 30s down.
	if time.Duration(r.MTBFNanos) != 60*time.Second {
		t.Fatalf("MTBF = %v, want 60s", time.Duration(r.MTBFNanos))
	}
	if time.Duration(r.MTTRNanos) != 30*time.Second {
		t.Fatalf("MTTR = %v, want 30s", time.Duration(r.MTTRNanos))
	}
	trans := evs.ofType("transition")
	if len(trans) != 2 {
		t.Fatalf("transition events = %d, want 2", len(trans))
	}
	if trans[0].Old != Up || trans[0].New != Down {
		t.Fatalf("first transition %v->%v", trans[0].Old, trans[0].New)
	}
}

// TestObserveSteadyStateAllocs: an observation that confirms the
// ledger's current belief — what every ALLS_WELL pays on the tracker's
// delivery path — allocates nothing.
func TestObserveSteadyStateAllocs(t *testing.T) {
	l, _, _ := fixture(t, nil)
	ob := Observation{Entity: "e", Kind: KindUp, SeenAt: t0.Add(time.Second)}
	l.Observe(ob)
	if n := testing.AllocsPerRun(1000, func() { l.Observe(ob) }); n != 0 {
		t.Fatalf("steady-state Observe allocates %v times per call", n)
	}
}

// TestSuspectCountsAsUp: FAILURE_SUSPICION changes the display state
// but not the uptime accounting until FAILED confirms.
func TestSuspectCountsAsUp(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "e", KindUp)
	fc.Advance(50 * time.Second)
	observe(l, "e", KindSuspect)
	if st, _ := l.State("e"); st != Suspect {
		t.Fatalf("state = %v, want SUSPECT", st)
	}
	fc.Advance(50 * time.Second)
	r := row(t, l, "e")
	approx(t, "uptime5m under suspicion", r.Uptime5m, 1.0, 1e-9)
	if r.Transitions != 0 {
		t.Fatalf("suspicion counted as transition: %d", r.Transitions)
	}
	observe(l, "e", KindDown)
	fc.Advance(100 * time.Second)
	r = row(t, l, "e")
	approx(t, "uptime5m after failure", r.Uptime5m, 0.5, 1e-9)
}

// TestWindowRatiosDiffer: a long-ago outage ages out of the short
// window while still weighing on the long one.
func TestWindowRatiosDiffer(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "e", KindUp)
	fc.Advance(10 * time.Minute)
	observe(l, "e", KindDown)
	fc.Advance(10 * time.Minute) // 10m outage
	observe(l, "e", KindUp)
	fc.Advance(20 * time.Minute) // clean for 20m

	r := row(t, l, "e")
	approx(t, "uptime5m", r.Uptime5m, 1.0, 1e-9) // outage aged out of 5m
	// 1h window: observed 40m, down 10m.
	approx(t, "uptime1h", r.Uptime1h, 30.0/40.0, 1e-9)
}

// TestFlapDetectionAndDamping: five rapid transitions trip FLAPPING,
// per-transition alerts are suppressed while it holds, and the
// hold-down clears it only after a quiet period.
func TestFlapDetectionAndDamping(t *testing.T) {
	l, fc, evs := fixture(t, func(c *Config) {
		c.FlapTransitions = 5
		c.FlapWindow = time.Minute
		c.FlapHold = 30 * time.Second
	})
	observe(l, "e", KindUp)
	// 6 flips, 2s apart: the 5th flip lands within the 1m window.
	kinds := []Kind{KindDown, KindUp, KindDown, KindUp, KindDown, KindUp}
	for _, k := range kinds {
		fc.Advance(2 * time.Second)
		observe(l, "e", k)
	}
	if st, _ := l.State("e"); st != Flapping {
		t.Fatalf("state = %v, want FLAPPING", st)
	}
	starts := evs.ofType("flap_start")
	if len(starts) != 1 {
		t.Fatalf("flap_start events = %d, want 1", len(starts))
	}
	// Damping: of the 6 transitions, only those before the flap tripped
	// produced transition alerts (the 5th flip became flap_start, the
	// 6th was suppressed).
	if got := len(evs.ofType("transition")); got != 4 {
		t.Fatalf("transition alerts = %d, want 4 (damped)", got)
	}
	r := row(t, l, "e")
	if r.Flaps != 1 {
		t.Fatalf("flaps = %d, want 1", r.Flaps)
	}
	if r.Transitions != 6 {
		t.Fatalf("transitions = %d, want 6 (counting continues while damped)", r.Transitions)
	}

	// Still flapping before the hold expires...
	fc.Advance(29 * time.Second)
	if st, _ := l.State("e"); st != Flapping {
		t.Fatalf("hold-down released early: %v", st)
	}
	// ...and clear after it.
	fc.Advance(2 * time.Second)
	if st, _ := l.State("e"); st != Up {
		t.Fatalf("state after hold-down = %v, want UP", st)
	}
}

// TestFlapRequiresWindow: the same number of transitions spread wider
// than the flap window never trips FLAPPING.
func TestFlapRequiresWindow(t *testing.T) {
	l, fc, evs := fixture(t, func(c *Config) {
		c.FlapTransitions = 4
		c.FlapWindow = time.Minute
	})
	observe(l, "e", KindUp)
	for i, k := range []Kind{KindDown, KindUp, KindDown, KindUp, KindDown, KindUp} {
		fc.Advance(30 * time.Second)
		observe(l, "e", k)
		_ = i
	}
	if st, _ := l.State("e"); st == Flapping {
		t.Fatal("slow transitions tripped FLAPPING")
	}
	if len(evs.ofType("flap_start")) != 0 {
		t.Fatal("unexpected flap_start")
	}
}

// TestTimeToDetect: the failure observation carries the broker's stamp;
// the ledger records the clamped local delta, and prefers the
// skew-corrected span total when hops are present.
func TestTimeToDetect(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "e", KindUp)
	fc.Advance(10 * time.Second)
	now := fc.Now()
	l.Observe(Observation{Entity: "e", Kind: KindDown, At: now.Add(-2 * time.Second)})
	r := row(t, l, "e")
	if got := time.Duration(r.DetectLastNanos); got != 2*time.Second {
		t.Fatalf("detect last = %v, want 2s", got)
	}

	// Recovery, then a second failure carrying span hops: TotalNanos of
	// the assembled flow wins over raw stamp arithmetic.
	fc.Advance(10 * time.Second)
	observe(l, "e", KindUp)
	fc.Advance(10 * time.Second)
	base := fc.Now().UnixNano()
	l.Observe(Observation{Entity: "e", Kind: KindDown, Hops: []obs.HopRecord{
		{Node: "hb0", AtNanos: base - int64(3*time.Second)},
		{Node: "hb1", AtNanos: base - int64(time.Second)},
		{Node: "tracker", AtNanos: base},
	}})
	r = row(t, l, "e")
	if got := time.Duration(r.DetectLastNanos); got != 3*time.Second {
		t.Fatalf("detect last with hops = %v, want 3s", got)
	}
	if got := time.Duration(r.DetectMaxNanos); got != 3*time.Second {
		t.Fatalf("detect max = %v, want 3s", got)
	}
}

// TestSLOBreachAndRecovery drives an entity through its error budget:
// 99% over 20 minutes tolerates 12s of downtime; a 30s outage breaches
// (once, edge-triggered), and enough clean uptime afterwards clears it.
func TestSLOBreachAndRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	l, fc, evs := fixture(t, func(c *Config) {
		c.DefaultSLO = SLO{Target: 0.99, Window: 20 * time.Minute}
		c.Registry = reg
	})
	observe(l, "e", KindUp)
	fc.Advance(10 * time.Minute)
	observe(l, "e", KindDown)
	fc.Advance(30 * time.Second)
	observe(l, "e", KindUp)

	r := row(t, l, "e")
	bs, ok := l.Budget("e")
	if !ok {
		t.Fatal("no budget status")
	}
	if !bs.Breached {
		t.Fatalf("30s downtime against a 12s budget not breached: %+v", bs)
	}
	if r.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0", r.BudgetRemaining)
	}
	if r.Breaches != 1 {
		t.Fatalf("breaches = %d, want 1", r.Breaches)
	}
	if len(evs.ofType("slo_breach")) != 1 {
		t.Fatalf("slo_breach events = %d, want 1", len(evs.ofType("slo_breach")))
	}
	if got := reg.Counter("avail_slo_breaches_total").Value(); got != 1 {
		t.Fatalf("breach counter = %d, want 1", got)
	}
	// A second digest does not double-count the same episode.
	_ = row(t, l, "e")
	if got := reg.Counter("avail_slo_breaches_total").Value(); got != 1 {
		t.Fatalf("breach counter after re-evaluation = %d, want 1", got)
	}

	// Clean uptime ages the outage out of the window; the breach clears.
	fc.Advance(25 * time.Minute)
	r = row(t, l, "e")
	if len(evs.ofType("slo_clear")) != 1 {
		t.Fatalf("slo_clear events = %d", len(evs.ofType("slo_clear")))
	}
	if r.BudgetRemaining != 1 {
		t.Fatalf("budget remaining after recovery = %v, want 1", r.BudgetRemaining)
	}

	// Gauges reflect the refreshed position in PPM.
	snap := reg.Snapshot()
	if v, ok := snap.Gauges[`entity_up{entity="e"}`]; !ok || v != 1 {
		t.Fatalf("entity_up gauge = %d,%v", v, ok)
	}
	if v, ok := snap.Gauges[`availability_ratio_ppm{entity="e",window="5m"}`]; !ok || v != 1_000_000 {
		t.Fatalf("5m ratio gauge = %d,%v", v, ok)
	}
	if v, ok := snap.Gauges[`error_budget_remaining_ppm{entity="e"}`]; !ok || v != 1_000_000 {
		t.Fatalf("budget gauge = %d,%v", v, ok)
	}
}

// TestBurnAlert: the burn-rate threshold emits one edge-triggered
// alert.
func TestBurnAlert(t *testing.T) {
	l, fc, evs := fixture(t, func(c *Config) {
		c.DefaultSLO = SLO{Target: 0.99, Window: time.Hour}
		c.BurnAlert = 2
	})
	observe(l, "e", KindUp)
	fc.Advance(10 * time.Minute)
	observe(l, "e", KindDown)
	// 1 minute down over 11 minutes observed: burn = (60/660)/0.01 ≈ 9.
	fc.Advance(time.Minute)
	_ = row(t, l, "e")
	_ = row(t, l, "e")
	if got := len(evs.ofType("burn_alert")); got != 1 {
		t.Fatalf("burn_alert events = %d, want 1", got)
	}
	bs, _ := l.Budget("e")
	if bs.BurnRate < 2 {
		t.Fatalf("burn rate = %v, want > 2", bs.BurnRate)
	}
}

// TestSetSLOPerEntity overrides and clears per-entity objectives.
func TestSetSLOPerEntity(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "e", KindUp)
	fc.Advance(time.Minute)
	if _, ok := l.Budget("e"); ok {
		t.Fatal("budget reported without an SLO")
	}
	l.SetSLO("e", SLO{Target: 0.999, Window: time.Hour})
	if _, ok := l.Budget("e"); !ok {
		t.Fatal("budget missing after SetSLO")
	}
	r := row(t, l, "e")
	if r.BudgetRemaining < 0 {
		t.Fatal("digest row missing budget after SetSLO")
	}
	l.SetSLO("e", SLO{}) // invalid clears
	if _, ok := l.Budget("e"); ok {
		t.Fatal("budget survived clearing")
	}
	// Default applies to entities first seen after the change.
	l.SetSLO("", SLO{Target: 0.99, Window: time.Hour})
	observe(l, "late", KindUp)
	if _, ok := l.Budget("late"); !ok {
		t.Fatal("default SLO not applied to new entity")
	}
}

// TestIntervalRingBound: past its interval bound the ledger keeps
// working and window math never claims coverage it pruned. Four rings'
// worth of 100ms intervals span 204.8s of the 5m window, of which the
// ring retains the last 51.2s: counting the pruned 153.6s as observed
// would read about 0.12 uptime instead of 0.5.
func TestIntervalRingBound(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	const n = 4 * maxIntervals
	observe(l, "e", KindUp)
	for i := 0; i < n; i++ {
		fc.Advance(100 * time.Millisecond)
		if i%2 == 0 {
			observe(l, "e", KindDown)
		} else {
			observe(l, "e", KindUp)
		}
	}
	r := row(t, l, "e")
	if r.Transitions != n {
		t.Fatalf("transitions = %d, want %d", r.Transitions, n)
	}
	// Alternating 100ms up/100ms down: the retained window must still
	// show roughly half uptime.
	approx(t, "uptime5m (pruned)", r.Uptime5m, 0.5, 0.2)
	// Cumulative downtime uses accumulators, not the ring: n/2 outages.
	if got, want := time.Duration(r.DowntimeNanos), n/2*100*time.Millisecond; got < want*9/10 {
		t.Fatalf("cumulative downtime = %v, want ~%v", got, want)
	}
}

// TestMaxEntities: the ledger drops (and counts) observations past its
// entity bound.
func TestMaxEntities(t *testing.T) {
	reg := obs.NewRegistry()
	l, _, _ := fixture(t, func(c *Config) { c.Registry = reg })
	for i := 0; i < maxEntities; i++ {
		observe(l, fmt.Sprintf("e%d", i), KindUp)
	}
	observe(l, "past", KindUp)
	if _, ok := l.State("past"); ok {
		t.Fatal("entity past the bound was tracked")
	}
	if _, ok := l.State("e0"); !ok {
		t.Fatal("entity inside the bound was not tracked")
	}
	if got := reg.Counter("avail_observations_dropped_total").Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}
	if got := len(l.Digest("x").Rows); got != maxEntities {
		t.Fatalf("digest rows = %d, want %d", got, maxEntities)
	}
}

// TestIntervalRingGrowsLazily: an entity holds only the interval history
// it has — none when seen once, a few slots after a few transitions —
// rather than the full maxIntervals ring.
func TestIntervalRingGrowsLazily(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "once", KindUp)
	observe(l, "flips", KindUp)
	for i := 0; i < 3; i++ {
		fc.Advance(time.Second)
		if i%2 == 0 {
			observe(l, "flips", KindDown)
		} else {
			observe(l, "flips", KindUp)
		}
	}
	if c := cap(l.records["once"].ivals); c != 0 {
		t.Fatalf("entity seen once holds %d interval slots, want 0", c)
	}
	rec := l.records["flips"]
	if rec.n != 3 || cap(rec.ivals) > 4 {
		t.Fatalf("entity with 3 closed intervals holds n=%d in %d slots, want 3 in at most 4", rec.n, cap(rec.ivals))
	}
	if r := row(t, l, "flips"); r.Transitions != 3 {
		t.Fatalf("transitions = %d, want 3", r.Transitions)
	}
}

// TestKindForType covers the trace-type mapping.
func TestKindForType(t *testing.T) {
	ups := []message.Type{message.TraceJoin, message.TraceInitializing,
		message.TraceRecovering, message.TraceReady, message.TraceAllsWell,
		message.TraceLoadInformation}
	for _, mt := range ups {
		if k, ok := KindForType(mt); !ok || k != KindUp {
			t.Fatalf("%v -> %v,%v want KindUp", mt, k, ok)
		}
	}
	if k, ok := KindForType(message.TraceFailureSuspicion); !ok || k != KindSuspect {
		t.Fatalf("suspicion -> %v,%v", k, ok)
	}
	downs := []message.Type{message.TraceFailed, message.TraceDisconnect, message.TraceShutdown}
	for _, mt := range downs {
		if k, ok := KindForType(mt); !ok || k != KindDown {
			t.Fatalf("%v -> %v,%v want KindDown", mt, k, ok)
		}
	}
	// 26 and 27 are the reserved wire values of the retired broker
	// self-monitoring snapshot and availability digest.
	for _, mt := range []message.Type{message.TraceGaugeInterest,
		message.TraceRevertingToSilentMode, message.Type(26),
		message.Type(27), message.TypePing} {
		if _, ok := KindForType(mt); ok {
			t.Fatalf("%v unexpectedly mapped", mt)
		}
	}
}

// TestDigestWireRoundTrip: ledger digest -> telemetry snapshot wire
// form -> parse preserves every row field.
func TestDigestWireRoundTrip(t *testing.T) {
	l, fc, _ := fixture(t, func(c *Config) {
		c.DefaultSLO = SLO{Target: 0.999, Window: time.Hour}
	})
	observe(l, "a", KindUp)
	fc.Advance(time.Minute)
	observe(l, "a", KindDown)
	fc.Advance(time.Second)
	observe(l, "b", KindUp)
	d := l.Digest("hb0")
	ts := &message.TelemetrySnapshot{Broker: "hb0", AtNanos: d.AtNanos, Avail: d.Rows}
	back, err := message.UnmarshalTelemetrySnapshot(ts.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Broker != "hb0" || back.AtNanos != d.AtNanos || len(back.Avail) != 2 {
		t.Fatalf("round trip header: %+v", back)
	}
	for i := range d.Rows {
		if back.Avail[i] != d.Rows[i] {
			t.Fatalf("row %d mismatch:\n  got  %+v\n  want %+v", i, back.Avail[i], d.Rows[i])
		}
	}
}

// TestHandler serves and parses the /avail JSON, including the entity
// filter and the disabled-ledger 503.
func TestHandler(t *testing.T) {
	l, fc, _ := fixture(t, nil)
	observe(l, "a", KindUp)
	observe(l, "b", KindUp)
	fc.Advance(time.Second)
	srv := httptest.NewServer(Handler(l, "node-1"))
	defer srv.Close()

	get := func(url string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d, err := ParseDigest(get(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if d.Reporter != "node-1" || len(d.Rows) != 2 {
		t.Fatalf("dump: %+v", d)
	}
	d, err = ParseDigest(get(srv.URL + "?entity=b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 1 || d.Rows[0].Entity != "b" {
		t.Fatalf("entity filter: %+v", d.Rows)
	}
	if _, err := ParseDigest([]byte("{")); err == nil {
		t.Fatal("ParseDigest accepted garbage")
	}

	off := httptest.NewServer(Handler(nil, "node-1"))
	defer off.Close()
	resp, err := off.Client().Get(off.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("nil ledger status = %d, want 503", resp.StatusCode)
	}
}

// TestFormatWindow covers the label renderer.
func TestFormatWindow(t *testing.T) {
	cases := map[time.Duration]string{
		5 * time.Minute:         "5m",
		time.Hour:               "1h",
		24 * time.Hour:          "24h",
		90 * time.Second:        "90s",
		1500 * time.Millisecond: "1.5s",
	}
	for d, want := range cases {
		if got := FormatWindow(d); got != want {
			t.Fatalf("FormatWindow(%v) = %q, want %q", d, got, want)
		}
	}
}
