package avail

import (
	"sort"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/obs"
)

// SLO is an availability objective: Target availability (e.g. 0.999)
// over a rolling Window (e.g. one hour). The error budget is the
// complement: (1-Target)*Window of tolerated downtime per window.
type SLO struct {
	Target float64
	Window time.Duration
}

// Valid reports whether the SLO is enforceable.
func (s SLO) Valid() bool {
	return s.Target > 0 && s.Target < 1 && s.Window > 0
}

// BudgetStatus is one entity's error-budget position against its SLO.
type BudgetStatus struct {
	// Observed is how much of the window the ledger has data for.
	Observed time.Duration
	// Downtime is the down time within the window.
	Downtime time.Duration
	// Budget is the tolerated downtime per window: (1-Target)*Window.
	Budget time.Duration
	// Remaining is Budget-Downtime (negative once breached).
	Remaining time.Duration
	// BurnRate is the budget consumption rate normalized so 1.0 burns
	// the budget exactly over the window: (Downtime/Observed)/(1-Target).
	BurnRate float64
	// Breached reports Downtime >= Budget.
	Breached bool
}

// RemainingFraction is Remaining/Budget clamped to [0,1] — what the
// gauge and the digest carry.
func (b BudgetStatus) RemainingFraction() float64 {
	if b.Budget <= 0 {
		return 0
	}
	f := float64(b.Remaining) / float64(b.Budget)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// SetSLO sets a per-entity availability objective (creating the
// entity's record if needed); an invalid SLO clears it. The empty
// entity name changes the default applied to entities first seen from
// now on.
func (l *Ledger) SetSLO(entity string, slo SLO) {
	if entity == "" {
		l.mu.Lock()
		l.cfg.DefaultSLO = slo
		l.mu.Unlock()
		return
	}
	rec := l.record(entity)
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.slo, rec.hasSLO = slo, slo.Valid()
	rec.breached, rec.burnHot = false, false
	rec.mu.Unlock()
}

// budgetLocked evaluates the entity's budget position with rec.mu held.
func (l *Ledger) budgetLocked(rec *record, nn int64) BudgetStatus {
	slo := rec.slo
	st := BudgetStatus{Budget: time.Duration((1 - slo.Target) * float64(slo.Window))}
	up, observed := l.uptimeInWindow(rec, nn, slo.Window)
	st.Observed = time.Duration(observed)
	st.Downtime = time.Duration(observed - up)
	st.Remaining = st.Budget - st.Downtime
	if observed > 0 && slo.Target < 1 {
		st.BurnRate = (float64(observed-up) / float64(observed)) / (1 - slo.Target)
	}
	st.Breached = st.Downtime >= st.Budget && st.Budget > 0
	return st
}

// checkSLOLocked evaluates the budget and flags edge-triggered breach
// and burn-rate crossings; returned events must be emitted after the
// record lock is released.
func (l *Ledger) checkSLOLocked(entity string, rec *record, nn int64) (BudgetStatus, []Event) {
	st := l.budgetLocked(rec, nn)
	var events []Event
	state := displayState(rec)
	if st.Breached && !rec.breached {
		rec.breached = true
		rec.breaches++
		if l.breachesTotal != nil {
			l.breachesTotal.Inc()
		}
		events = append(events, Event{Entity: entity, Type: "slo_breach",
			Old: state, New: state, At: time.Unix(0, nn)})
	} else if !st.Breached && rec.breached {
		rec.breached = false
		events = append(events, Event{Entity: entity, Type: "slo_clear",
			Old: state, New: state, At: time.Unix(0, nn)})
	}
	if l.cfg.BurnAlert > 0 {
		if st.BurnRate >= l.cfg.BurnAlert && !rec.burnHot {
			rec.burnHot = true
			if l.burnAlertsTotal != nil {
				l.burnAlertsTotal.Inc()
			}
			events = append(events, Event{Entity: entity, Type: "burn_alert",
				Old: state, New: state, At: time.Unix(0, nn)})
		} else if st.BurnRate < l.cfg.BurnAlert {
			rec.burnHot = false
		}
	}
	return st, events
}

// Digest snapshots the whole ledger as an AvailabilityDigest: one row
// per entity with state, window ratios, MTBF/MTTR, flap and detection
// statistics and the SLO budget position. Building the digest also
// refreshes the per-entity gauges (entity_up, availability_ratio_ppm,
// error_budget_remaining_ppm) and performs the edge-triggered SLO
// breach/burn accounting, so the digest loop doubles as the SLO
// evaluation cadence.
func (l *Ledger) Digest(reporter string) *message.AvailabilityDigest {
	now := l.cfg.Clock.Now()
	nn := now.UnixNano()

	l.mu.RLock()
	entities := make([]string, 0, len(l.records))
	for e := range l.records {
		entities = append(entities, e)
	}
	l.mu.RUnlock()
	sort.Strings(entities)

	d := &message.AvailabilityDigest{Reporter: reporter, AtNanos: nn}
	var pending []Event
	for _, entity := range entities {
		l.mu.RLock()
		rec := l.records[entity]
		l.mu.RUnlock()
		if rec == nil {
			continue
		}
		row, events := l.row(entity, rec, nn)
		d.Rows = append(d.Rows, row)
		pending = append(pending, events...)
	}
	l.emit(pending)
	return d
}

// row builds one entity's digest row and refreshes its gauges.
func (l *Ledger) row(entity string, rec *record, nn int64) (message.AvailabilityRow, []Event) {
	rec.mu.Lock()
	l.settle(rec, nn)
	state := displayState(rec)
	row := message.AvailabilityRow{
		Entity:          entity,
		State:           uint8(state),
		SinceNanos:      rec.since,
		Transitions:     uint32(rec.transitions),
		Flaps:           uint32(rec.flaps),
		MTBFNanos:       meanNanos(rec.upAccum, rec.failures),
		MTTRNanos:       meanNanos(rec.downAccum, rec.recoveries),
		DetectLastNanos: rec.detectLast,
		DetectMaxNanos:  rec.detectMax,
		BudgetRemaining: -1,
		BurnRate:        -1,
	}
	row.DowntimeNanos = rec.downAccum
	if rec.state != Unknown && !rec.curUp {
		row.DowntimeNanos += nn - rec.curStart
	}
	ratios := [3]float64{-1, -1, -1}
	for i, w := range DefaultWindows {
		up, observed := l.uptimeInWindow(rec, nn, w)
		r := -1.0
		if observed > 0 {
			r = float64(up) / float64(observed)
		}
		if i < len(ratios) {
			ratios[i] = r
		}
	}
	row.Uptime5m, row.Uptime1h, row.Uptime24h = ratios[0], ratios[1], ratios[2]

	var events []Event
	if rec.hasSLO && rec.slo.Valid() {
		var st BudgetStatus
		st, events = l.checkSLOLocked(entity, rec, nn)
		row.BudgetRemaining = st.RemainingFraction()
		row.BurnRate = st.BurnRate
		row.Breaches = uint32(rec.breaches)
	}
	rec.mu.Unlock()

	l.refreshGauges(entity, state, ratios[:], row)
	return row, events
}

// refreshGauges publishes the entity's current position into the
// registry. Gauges are integer-valued, so ratios are exposed in parts
// per million (999_500 == 99.95%).
func (l *Ledger) refreshGauges(entity string, state State, ratios []float64, row message.AvailabilityRow) {
	r := l.cfg.Registry
	if r == nil {
		return
	}
	up := int64(0)
	if state == Up || state == Suspect {
		up = 1
	}
	r.Gauge(obs.WithLabel("entity_up", "entity", entity)).Set(up)
	for i, w := range DefaultWindows {
		if i >= len(ratios) || ratios[i] < 0 {
			continue
		}
		name := "availability_ratio_ppm{entity=\"" + entity + "\",window=\"" + FormatWindow(w) + "\"}"
		r.Gauge(name).Set(int64(ratios[i] * 1e6))
	}
	if row.BudgetRemaining >= 0 {
		r.Gauge(obs.WithLabel("error_budget_remaining_ppm", "entity", entity)).Set(int64(row.BudgetRemaining * 1e6))
	}
}

// Budget returns the entity's current budget position (false when the
// entity is unknown or carries no SLO).
func (l *Ledger) Budget(entity string) (BudgetStatus, bool) {
	l.mu.RLock()
	rec := l.records[entity]
	l.mu.RUnlock()
	if rec == nil {
		return BudgetStatus{}, false
	}
	nn := l.cfg.Clock.Now().UnixNano()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !rec.hasSLO || !rec.slo.Valid() {
		return BudgetStatus{}, false
	}
	return l.budgetLocked(rec, nn), true
}

// meanNanos is total/count, zero-safe.
func meanNanos(total int64, count uint64) int64 {
	if count == 0 {
		return 0
	}
	return total / int64(count)
}
