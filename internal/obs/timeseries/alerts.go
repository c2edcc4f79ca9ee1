package timeseries

import (
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"entitytrace/internal/obs"
)

// This file is the rule-driven anomaly engine on top of the store:
// threshold, rate-of-change and absence-of-heartbeat rules, evaluated
// once per sampler tick. Alerts are edge-triggered with a hold-down —
// the condition must hold for the rule's 'for' window before the single
// firing edge, and must stay false for the 'hold' window before the
// single clearing edge — mirroring the availability ledger's flap
// damping, so a metric oscillating around its threshold raises one
// alert episode, not a storm.

// RuleKind selects a rule's condition.
type RuleKind uint8

const (
	// Threshold compares the series' latest value against Value.
	Threshold RuleKind = iota
	// RateOfChange compares the series' per-second rate over the 'for'
	// window against Value (counters re-anchor across resets).
	RateOfChange
	// Absent fires when the series has recorded no sample within the
	// 'for' window — the absence-of-heartbeat rule.
	Absent
)

// String names the kind (the grammar's spelling).
func (k RuleKind) String() string {
	switch k {
	case RateOfChange:
		return "rate"
	case Absent:
		return "absent"
	default:
		return "threshold"
	}
}

// Rule is one parsed alert rule (see ParseRules for the grammar).
type Rule struct {
	// Name labels the rule in alerts and logs (defaults to the rule's
	// source text).
	Name string
	// Series is the store series the condition reads.
	Series string
	// Kind selects the condition.
	Kind RuleKind
	// Less inverts the comparison to < (Threshold and RateOfChange).
	Less bool
	// Value is the comparison bound (unused for Absent).
	Value float64
	// For is how long the condition must hold before the firing edge;
	// for Absent it is the silence window itself.
	For time.Duration
	// Hold is how long the condition must stay false before the
	// clearing edge (zero selects For).
	Hold time.Duration
}

func (r Rule) holdDown() time.Duration {
	if r.Hold > 0 {
		return r.Hold
	}
	return r.For
}

// ParseRules parses a semicolon-separated rule list, the -alert-rules
// flag grammar (PROTOCOL.md §3.10):
//
//	rules := rule (';' rule)*
//	rule  := [name ':'] cond 'for' dur ['hold' dur]
//	cond  := series ('>'|'<') number        threshold on the latest value
//	       | rate '(' series ')' ('>'|'<') number   per-second rate over the for-window
//	       | absent '(' series ')'          no sample within the for-window
//
// e.g. "deep-queues: broker_egress_queue_depth > 100 for 2s hold 10s;
// absent(broker_published_total) for 5s". Whitespace is insignificant.
func ParseRules(s string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseRule(s string) (Rule, error) {
	r := Rule{Name: s}
	body := s
	// An explicit name ends at the first ':' (series names never carry
	// one; a rate(...) or absent(...) call never precedes it).
	if i := strings.IndexByte(s, ':'); i >= 0 {
		r.Name = strings.TrimSpace(s[:i])
		body = strings.TrimSpace(s[i+1:])
		if r.Name == "" || body == "" {
			return r, fmt.Errorf("timeseries: rule %q: empty name or body", s)
		}
	}
	fields := strings.Fields(body)
	// Re-join, then split on the 'for' keyword from the right so the
	// condition text keeps its own spacing-insensitive parse.
	forIdx := -1
	for i, f := range fields {
		if f == "for" {
			forIdx = i
		}
	}
	if forIdx < 0 || forIdx == len(fields)-1 {
		return r, fmt.Errorf("timeseries: rule %q: missing 'for <duration>'", s)
	}
	var err error
	if r.For, err = time.ParseDuration(fields[forIdx+1]); err != nil || r.For <= 0 {
		return r, fmt.Errorf("timeseries: rule %q: bad for-duration %q", s, fields[forIdx+1])
	}
	rest := fields[forIdx+2:]
	switch {
	case len(rest) == 0:
	case len(rest) == 2 && rest[0] == "hold":
		if r.Hold, err = time.ParseDuration(rest[1]); err != nil || r.Hold <= 0 {
			return r, fmt.Errorf("timeseries: rule %q: bad hold-duration %q", s, rest[1])
		}
	default:
		return r, fmt.Errorf("timeseries: rule %q: trailing %q", s, strings.Join(rest, " "))
	}
	cond := strings.Join(fields[:forIdx], " ")
	return parseCond(r, s, cond)
}

func parseCond(r Rule, src, cond string) (Rule, error) {
	if inner, ok := callArg(cond, "absent"); ok {
		r.Kind = Absent
		r.Series = inner
		return r, nil
	}
	lhs, op, rhs, err := splitCompare(cond)
	if err != nil {
		return r, fmt.Errorf("timeseries: rule %q: %w", src, err)
	}
	r.Less = op == '<'
	if r.Value, err = strconv.ParseFloat(rhs, 64); err != nil {
		return r, fmt.Errorf("timeseries: rule %q: bad bound %q", src, rhs)
	}
	if inner, ok := callArg(lhs, "rate"); ok {
		r.Kind = RateOfChange
		r.Series = inner
		return r, nil
	}
	r.Kind = Threshold
	r.Series = lhs
	if r.Series == "" {
		return r, fmt.Errorf("timeseries: rule %q: empty series", src)
	}
	return r, nil
}

// callArg extracts X from "fn(X)" (nil-tolerant of spaces).
func callArg(s, fn string) (string, bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, fn+"(") || !strings.HasSuffix(s, ")") {
		return "", false
	}
	inner := strings.TrimSpace(s[len(fn)+1 : len(s)-1])
	return inner, inner != ""
}

func splitCompare(cond string) (lhs string, op byte, rhs string, err error) {
	gt := strings.IndexByte(cond, '>')
	lt := strings.IndexByte(cond, '<')
	switch {
	case gt >= 0 && lt < 0:
		return strings.TrimSpace(cond[:gt]), '>', strings.TrimSpace(cond[gt+1:]), nil
	case lt >= 0 && gt < 0:
		return strings.TrimSpace(cond[:lt]), '<', strings.TrimSpace(cond[lt+1:]), nil
	default:
		return "", 0, "", fmt.Errorf("condition %q: want one of '>' or '<', or absent(series)", cond)
	}
}

// Alert is one edge or standing state of a rule.
type Alert struct {
	// Rule is the rule's name.
	Rule string `json:"rule"`
	// Series is the series the rule watches.
	Series string `json:"series"`
	// Firing is true while the alert stands (a clearing edge reports
	// false).
	Firing bool `json:"firing"`
	// SinceNanos is when the firing edge happened; it identifies the
	// episode (two alerts with equal Rule and SinceNanos are the same
	// episode).
	SinceNanos int64 `json:"since_nanos"`
	// Value is the observed value at the most recent evaluation.
	Value float64 `json:"value"`
}

type ruleState struct {
	condSince  int64 // when the condition last became true (0: false)
	clearSince int64 // while firing, when it last became false
	firedAt    int64 // episode start (0: not firing)
	lastValue  float64
}

// mAlertsFiring is the number of alert rules currently firing,
// process-wide (every engine adds its own firing count).
var mAlertsFiring = obs.Default.Gauge("obs_alerts_firing")

// Engine evaluates a rule set against a store. Call Eval once per
// sampler tick; it returns only the edges (fire/clear transitions) and
// Firing returns the standing set for telemetry snapshots.
type Engine struct {
	store  *Store
	rules  []Rule
	states []ruleState
	log    *slog.Logger
}

// NewEngine builds an engine over store with rules; log (nil-safe)
// receives one structured line per edge.
func NewEngine(store *Store, rules []Rule, log *slog.Logger) *Engine {
	return &Engine{store: store, rules: rules, states: make([]ruleState, len(rules)), log: obs.OrDiscard(log)}
}

// Eval evaluates every rule at nowNanos and returns the edges: one
// Alert per rule that fired or cleared this evaluation.
func (e *Engine) Eval(nowNanos int64) []Alert {
	var edges []Alert
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.states[i]
		cond, value, immediate := e.condition(r, nowNanos)
		st.lastValue = value
		if st.firedAt == 0 {
			// Idle: arm on condition, fire after it holds For (absence
			// already encodes its window, so it fires on the spot).
			if !cond {
				st.condSince = 0
				continue
			}
			if st.condSince == 0 {
				st.condSince = nowNanos
			}
			if !immediate && nowNanos-st.condSince < int64(r.For) {
				continue
			}
			st.firedAt = nowNanos
			st.clearSince = 0
			mAlertsFiring.Add(1)
			e.log.Warn("alert firing", "rule", r.Name, "series", r.Series,
				"kind", r.Kind.String(), "value", value)
			edges = append(edges, Alert{Rule: r.Name, Series: r.Series, Firing: true,
				SinceNanos: st.firedAt, Value: value})
			continue
		}
		// Firing: clear only after the condition stays false for the
		// hold-down window (flap damping).
		if cond {
			st.clearSince = 0
			continue
		}
		if st.clearSince == 0 {
			st.clearSince = nowNanos
		}
		if nowNanos-st.clearSince < int64(r.holdDown()) {
			continue
		}
		since := st.firedAt
		st.firedAt, st.condSince, st.clearSince = 0, 0, 0
		mAlertsFiring.Add(-1)
		e.log.Info("alert cleared", "rule", r.Name, "series", r.Series,
			"kind", r.Kind.String(), "value", value)
		edges = append(edges, Alert{Rule: r.Name, Series: r.Series, Firing: false,
			SinceNanos: since, Value: value})
	}
	return edges
}

// Firing returns the currently standing alerts (for telemetry snapshot
// rows), ordered like the rule set.
func (e *Engine) Firing() []Alert {
	var out []Alert
	for i := range e.rules {
		if st := &e.states[i]; st.firedAt != 0 {
			r := &e.rules[i]
			out = append(out, Alert{Rule: r.Name, Series: r.Series, Firing: true,
				SinceNanos: st.firedAt, Value: st.lastValue})
		}
	}
	return out
}

// condition evaluates one rule: the boolean, the observed value, and
// whether a true condition fires immediately (absence rules, whose
// window is the condition itself).
func (e *Engine) condition(r *Rule, nowNanos int64) (cond bool, value float64, immediate bool) {
	s := e.store.Get(r.Series)
	switch r.Kind {
	case Absent:
		if s == nil {
			// Never seen at all: absent by definition.
			return true, 0, true
		}
		last := s.Latest()
		return nowNanos-last.T >= int64(r.For), float64(last.V), true
	case RateOfChange:
		if s == nil {
			return false, 0, false
		}
		pts := s.Query(nowNanos-int64(r.For)-int64(e.store.opts.Step), 0)
		rates := Rate(pts)
		if len(rates) == 0 {
			return false, 0, false
		}
		// The window's mean rate: total positive movement over elapsed
		// time, robust to tick jitter.
		var sum float64
		for _, fp := range rates {
			sum += fp.V
		}
		value = sum / float64(len(rates))
		return compare(value, r), value, false
	default:
		if s == nil {
			return false, 0, false
		}
		p := s.Latest()
		if p.T == 0 {
			return false, 0, false
		}
		value = float64(p.V)
		return compare(value, r), value, false
	}
}

func compare(v float64, r *Rule) bool {
	if r.Less {
		return v < r.Value
	}
	return v > r.Value
}
