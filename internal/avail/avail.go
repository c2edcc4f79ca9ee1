// Package avail derives availability analytics from the verified trace
// stream: a per-entity state machine driven by trace observations, a
// bounded interval ledger behind it, and an SLO engine on top. The
// paper's machinery proves *that* an entity's availability can be
// tracked securely; this package turns the resulting stream into the
// numbers an operator asks for — rolling-window uptime, MTBF/MTTR,
// flap detection with hold-down damping, skew-corrected time-to-detect
// and error-budget burn. Everything is driven by an injected clock, so
// the whole ledger is deterministic under internal/clock fakes.
package avail

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
)

// State is the availability state the ledger exposes for an entity.
// The numeric values are the wire encoding used by
// message.AvailabilityRow.State.
type State uint8

const (
	// Unknown: no observation yet.
	Unknown State = iota
	// Up: last evidence shows the entity available.
	Up
	// Suspect: the broker published FAILURE_SUSPICION; still counted as
	// up for uptime accounting until FAILED/DISCONNECT confirms.
	Suspect
	// Down: the entity failed, disconnected or shut down.
	Down
	// Flapping: the entity crossed up<->down too often within the flap
	// window; held until it stays quiet for the hold-down period.
	Flapping
)

// String names the state the way the board renders it.
func (s State) String() string {
	switch s {
	case Up:
		return "UP"
	case Suspect:
		return "SUSPECT"
	case Down:
		return "DOWN"
	case Flapping:
		return "FLAPPING"
	default:
		return "UNKNOWN"
	}
}

// Kind classifies one observation's availability evidence.
type Kind uint8

const (
	// KindUp is positive evidence of availability (JOIN, READY,
	// ALLS_WELL, ...).
	KindUp Kind = iota
	// KindSuspect is the broker's unconfirmed failure suspicion.
	KindSuspect
	// KindDown is confirmed unavailability (FAILED, DISCONNECT,
	// SHUTDOWN).
	KindDown
)

// KindForType maps a trace type to its availability evidence. The
// second result is false for traces that carry no availability signal
// (interest gauging, silent mode, system snapshots).
func KindForType(t message.Type) (Kind, bool) {
	switch t {
	case message.TraceJoin, message.TraceInitializing, message.TraceRecovering,
		message.TraceReady, message.TraceAllsWell, message.TraceLoadInformation:
		return KindUp, true
	case message.TraceFailureSuspicion:
		return KindSuspect, true
	case message.TraceFailed, message.TraceDisconnect, message.TraceShutdown:
		return KindDown, true
	default:
		return 0, false
	}
}

// Observation is one availability-relevant trace about an entity.
type Observation struct {
	// Entity names the traced entity.
	Entity string
	// Kind is the availability evidence.
	Kind Kind
	// At is the reporter-stamped event time (the broker's SentAt for
	// failure traces); the zero value means unknown.
	At time.Time
	// SeenAt is the local observation time; the zero value selects the
	// ledger clock's now.
	SeenAt time.Time
	// Hops, when present, carries the trace's span records so
	// time-to-detect can be skew-corrected via obs.Assemble instead of
	// trusting raw cross-node clock arithmetic.
	Hops []obs.HopRecord
}

// Event is an availability alert emitted through Config.OnEvent.
type Event struct {
	// Entity names the subject.
	Entity string
	// Type is one of "transition", "flap_start", "flap_end",
	// "slo_breach", "slo_clear" or "burn_alert".
	Type string
	// Old and New frame a transition; equal for non-transition events.
	Old, New State
	// At is the ledger time of the event.
	At time.Time
}

// The ledger's memory bounds: closed up/down intervals retained per
// entity, and tracked entities (observations about further entities are
// dropped and counted).
const (
	maxIntervals = 512
	maxEntities  = 4096
)

// Config tunes a Ledger. The zero value is usable: real clock, the
// 5m/1h/24h windows, and the default flap parameters.
type Config struct {
	// Clock drives all ledger time; nil selects clock.Real.
	Clock clock.Clock
	// FlapTransitions is the N in "N up<->down transitions within
	// FlapWindow mean FLAPPING"; zero selects 5.
	FlapTransitions int
	// FlapWindow is the flap-counting window; zero selects 1 minute.
	FlapWindow time.Duration
	// FlapHold is the hold-down: the entity must stay transition-free
	// this long before FLAPPING clears; zero selects 30 seconds.
	FlapHold time.Duration
	// DefaultSLO applies to entities without a per-entity SetSLO; the
	// zero value disables SLO accounting.
	DefaultSLO SLO
	// BurnAlert, when positive, emits a burn_alert event whenever an
	// entity's error-budget burn rate crosses above it (edge
	// triggered).
	BurnAlert float64
	// Registry receives the ledger's gauges and counters; nil disables
	// metrics.
	Registry *obs.Registry
	// Log receives structured availability events; nil silences them.
	Log *slog.Logger
	// OnEvent, when set, receives every availability alert. Called
	// without ledger locks held.
	OnEvent func(Event)
}

// DefaultWindows are the rolling uptime windows the ledger derives.
var DefaultWindows = []time.Duration{5 * time.Minute, time.Hour, 24 * time.Hour}

// interval is one closed stretch of up or down time.
type interval struct {
	start, end int64 // unix nanos
	up         bool
}

// record is one entity's ledger: current state, the bounded closed
// interval ring, running accumulators and SLO position. Each record has
// its own lock so observations about different entities never contend.
type record struct {
	mu sync.Mutex

	state     State // Unknown/Up/Suspect/Down; Flapping is the overlay below
	since     int64 // when state was entered
	firstSeen int64
	lastSeen  int64

	// Bounded ring of closed intervals; prunedTo marks time dropped off
	// the old end so window math never claims coverage it lost.
	ivals    []interval
	head, n  int
	prunedTo int64
	curStart int64
	curUp    bool

	// Closed-interval accumulators for MTBF/MTTR.
	upAccum, downAccum   int64
	failures, recoveries uint64
	transitions          uint64

	// Flap detection: ring of the last FlapTransitions flip times.
	flips     []int64
	flipHead  int
	flipN     int
	flapping  bool
	flapSince int64
	flaps     uint64

	// Skew-corrected time-to-detect of the last/worst failure.
	detectLast, detectMax int64

	// SLO position (evaluated at digest/status time).
	slo      SLO
	hasSLO   bool
	breached bool
	breaches uint64
	burnHot  bool
}

// Ledger tracks availability for a set of entities.
type Ledger struct {
	cfg Config

	mu      sync.RWMutex
	records map[string]*record

	// Metrics (nil when Config.Registry is nil).
	transitionsTotal *obs.Counter
	flapsTotal       *obs.Counter
	breachesTotal    *obs.Counter
	burnAlertsTotal  *obs.Counter
	droppedTotal     *obs.Counter
	detectHist       *obs.Histogram
}

// New builds a ledger.
func New(cfg Config) *Ledger {
	cfg.Log = obs.OrDiscard(cfg.Log)
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.FlapTransitions <= 0 {
		cfg.FlapTransitions = 5
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = time.Minute
	}
	if cfg.FlapHold <= 0 {
		cfg.FlapHold = 30 * time.Second
	}
	l := &Ledger{cfg: cfg, records: make(map[string]*record)}
	if r := cfg.Registry; r != nil {
		l.transitionsTotal = r.Counter("avail_transitions_total")
		l.flapsTotal = r.Counter("avail_flaps_total")
		l.breachesTotal = r.Counter("avail_slo_breaches_total")
		l.burnAlertsTotal = r.Counter("avail_burn_alerts_total")
		l.droppedTotal = r.Counter("avail_observations_dropped_total")
		l.detectHist = r.Histogram("avail_detect_latency_ms", nil)
	}
	return l
}

// record returns the entity's record, creating it under the entity
// bound; nil when the ledger is full.
func (l *Ledger) record(entity string) *record {
	l.mu.RLock()
	rec := l.records[entity]
	l.mu.RUnlock()
	if rec != nil {
		return rec
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec = l.records[entity]; rec != nil {
		return rec
	}
	if len(l.records) >= maxEntities {
		return nil
	}
	rec = &record{
		flips: make([]int64, l.cfg.FlapTransitions),
	}
	if l.cfg.DefaultSLO.Target > 0 {
		rec.slo, rec.hasSLO = l.cfg.DefaultSLO, true
	}
	l.records[entity] = rec
	return rec
}

// Observe feeds one availability observation into the ledger. The
// steady-state path — an observation that confirms the current state —
// is a map read plus a per-entity lock and timestamp store, so it can
// sit directly on the tracker's verified delivery path.
func (l *Ledger) Observe(ob Observation) {
	rec := l.record(ob.Entity)
	if rec == nil {
		if l.droppedTotal != nil {
			l.droppedTotal.Inc()
		}
		return
	}
	target := Up
	switch ob.Kind {
	case KindSuspect:
		target = Suspect
	case KindDown:
		target = Down
	}
	now := ob.SeenAt
	if now.IsZero() {
		now = l.cfg.Clock.Now()
	}
	nn := now.UnixNano()

	rec.mu.Lock()
	if rec.state == target && !rec.flapping {
		// Hot path: evidence confirms what the ledger already believes.
		rec.lastSeen = nn
		rec.mu.Unlock()
		return
	}
	events := l.advance(rec, ob, target, nn)
	rec.mu.Unlock()
	l.emit(events)
}

// advance applies a (potential) state change with rec.mu held and
// returns the alerts to emit once the lock is released.
func (l *Ledger) advance(rec *record, ob Observation, target State, nn int64) []Event {
	var events []Event
	old := displayState(rec)
	rec.lastSeen = nn

	// Hold-down: clear FLAPPING once the entity has stayed quiet.
	if rec.flapping && nn-l.lastFlip(rec) >= int64(l.cfg.FlapHold) {
		rec.flapping = false
		events = append(events, Event{Entity: ob.Entity, Type: "flap_end",
			Old: Flapping, New: target, At: time.Unix(0, nn)})
	}

	if rec.state != target {
		wasUp := rec.state == Up || rec.state == Suspect
		isUp := target == Up || target == Suspect
		switch {
		case rec.state == Unknown:
			rec.firstSeen = nn
			rec.curStart = nn
			rec.curUp = isUp
		case wasUp != isUp:
			l.closeInterval(rec, nn)
			rec.curStart = nn
			rec.curUp = isUp
			rec.transitions++
			if isUp {
				rec.recoveries++
			} else {
				rec.failures++
				l.noteDetection(rec, ob, nn)
			}
			if l.transitionsTotal != nil {
				l.transitionsTotal.Inc()
			}
			if flapped := l.recordFlip(rec, nn); flapped {
				events = append(events, Event{Entity: ob.Entity, Type: "flap_start",
					Old: old, New: Flapping, At: time.Unix(0, nn)})
			} else if !rec.flapping {
				// Damping: while FLAPPING, individual transitions are
				// suppressed — the flap episode is the alert.
				events = append(events, Event{Entity: ob.Entity, Type: "transition",
					Old: old, New: target, At: time.Unix(0, nn)})
			}
		}
		rec.state = target
		rec.since = nn
	}
	return events
}

// closeInterval retires the open interval into the bounded ring,
// folding it into the MTBF/MTTR accumulators.
func (l *Ledger) closeInterval(rec *record, nn int64) {
	iv := interval{start: rec.curStart, end: nn, up: rec.curUp}
	if iv.up {
		rec.upAccum += iv.end - iv.start
	} else {
		rec.downAccum += iv.end - iv.start
	}
	if len(rec.ivals) < maxIntervals {
		// The ring grows to its bound before it wraps, so an entity costs
		// only the history it has.
		rec.ivals = append(rec.ivals, iv)
		rec.n++
		rec.head = len(rec.ivals) % maxIntervals
		return
	}
	// Ring full: the oldest interval falls off; remember how far the
	// ledger's window coverage now reaches back.
	rec.prunedTo = rec.ivals[rec.head].end
	rec.ivals[rec.head] = iv
	rec.head = (rec.head + 1) % len(rec.ivals)
}

// recordFlip pushes a transition time into the flap ring and reports
// whether this transition started a flap episode.
func (l *Ledger) recordFlip(rec *record, nn int64) bool {
	rec.flips[rec.flipHead] = nn
	rec.flipHead = (rec.flipHead + 1) % len(rec.flips)
	if rec.flipN < len(rec.flips) {
		rec.flipN++
	}
	if rec.flipN < l.cfg.FlapTransitions {
		return false
	}
	// The ring is full here, so the next write slot holds the Nth-back
	// flip.
	oldest := rec.flips[rec.flipHead]
	if nn-oldest > int64(l.cfg.FlapWindow) {
		return false
	}
	if rec.flapping {
		return false
	}
	rec.flapping = true
	rec.flapSince = nn
	rec.flaps++
	if l.flapsTotal != nil {
		l.flapsTotal.Inc()
	}
	return true
}

// lastFlip returns the most recent transition time, or 0.
func (l *Ledger) lastFlip(rec *record) int64 {
	if rec.flipN == 0 {
		return 0
	}
	idx := (rec.flipHead - 1 + len(rec.flips)) % len(rec.flips)
	return rec.flips[idx]
}

// noteDetection records the time-to-detect of a failure: how long after
// the entity stopped being available the observer learned of it. With
// span hops present the delta is skew-corrected through obs.Assemble
// (the same normalization the waterfall uses); otherwise it falls back
// to the clamped difference between the reporter stamp and local
// receipt.
func (l *Ledger) noteDetection(rec *record, ob Observation, nn int64) {
	var d int64
	if len(ob.Hops) > 0 {
		if asm := obs.Assemble(ob.Hops); asm != nil {
			d = asm.TotalNanos
		}
	} else if !ob.At.IsZero() {
		d = nn - ob.At.UnixNano()
	}
	if d < 0 {
		d = 0
	}
	rec.detectLast = d
	if d > rec.detectMax {
		rec.detectMax = d
	}
	if l.detectHist != nil {
		l.detectHist.ObserveDuration(time.Duration(d))
	}
}

// displayState folds the flap overlay into the exposed state.
func displayState(rec *record) State {
	if rec.flapping {
		return Flapping
	}
	return rec.state
}

// emit delivers alerts to the log and callback outside ledger locks.
func (l *Ledger) emit(events []Event) {
	for _, ev := range events {
		switch ev.Type {
		case "transition":
			l.cfg.Log.Info("availability transition",
				"entity", ev.Entity, "from", ev.Old.String(), "to", ev.New.String())
		case "flap_start":
			l.cfg.Log.Warn("entity flapping", "entity", ev.Entity)
		case "flap_end":
			l.cfg.Log.Info("flap cleared", "entity", ev.Entity, "state", ev.New.String())
		case "slo_breach":
			l.cfg.Log.Warn("SLO breached", "entity", ev.Entity)
		case "slo_clear":
			l.cfg.Log.Info("SLO recovered", "entity", ev.Entity)
		case "burn_alert":
			l.cfg.Log.Warn("error-budget burn alert", "entity", ev.Entity)
		}
		if l.cfg.OnEvent != nil {
			l.cfg.OnEvent(ev)
		}
	}
}

// State returns the entity's current availability state.
func (l *Ledger) State(entity string) (State, bool) {
	l.mu.RLock()
	rec := l.records[entity]
	l.mu.RUnlock()
	if rec == nil {
		return Unknown, false
	}
	nn := l.cfg.Clock.Now().UnixNano()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	l.settle(rec, nn)
	return displayState(rec), true
}

// settle applies time-driven state (flap hold-down expiry) with rec.mu
// held; read paths call it so a quiet entity's FLAPPING clears even
// without fresh observations.
func (l *Ledger) settle(rec *record, nn int64) {
	if rec.flapping && nn-l.lastFlip(rec) >= int64(l.cfg.FlapHold) {
		rec.flapping = false
	}
}

// uptimeInWindow computes up and observed nanos within [nn-w, nn],
// honouring the ring's pruning bound. Observed covers only time the
// ledger actually has data for.
func (l *Ledger) uptimeInWindow(rec *record, nn int64, w time.Duration) (up, observed int64) {
	start := nn - int64(w)
	if rec.firstSeen > start {
		start = rec.firstSeen
	}
	if rec.prunedTo > start {
		start = rec.prunedTo
	}
	if rec.state == Unknown || start >= nn {
		return 0, 0
	}
	for i := 0; i < rec.n; i++ {
		iv := rec.ivals[(rec.head-rec.n+i+len(rec.ivals))%len(rec.ivals)]
		if iv.end <= start {
			continue
		}
		s := iv.start
		if s < start {
			s = start
		}
		if iv.up {
			up += iv.end - s
		}
	}
	s := rec.curStart
	if s < start {
		s = start
	}
	if s < nn && rec.curUp {
		up += nn - s
	}
	return up, nn - start
}

// FormatWindow renders a window duration the way the metrics label and
// the board spell it: "5m", "1h", "24h".
func FormatWindow(w time.Duration) string {
	switch {
	case w%time.Hour == 0:
		return fmt.Sprintf("%dh", w/time.Hour)
	case w%time.Minute == 0:
		return fmt.Sprintf("%dm", w/time.Minute)
	case w%time.Second == 0:
		return fmt.Sprintf("%ds", w/time.Second)
	default:
		return w.String()
	}
}
