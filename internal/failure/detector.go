// Package failure implements the broker-side failure detection of §3.3:
// adaptive ping scheduling, per-entity ping history (the last 10 pings'
// response times and losses), and the FAILURE_SUSPICION → FAILED state
// machine driven by consecutive unanswered pings.
//
// The Detector is a passive state machine: the owning broker feeds it
// ping sends, responses and the current time, and asks for the next ping
// interval and the current verdict. This keeps it deterministic and
// testable with a fake clock.
package failure

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"entitytrace/internal/obs"
)

// Verdict-transition counters across all detectors in the process.
var (
	mSuspicions = obs.Default.Counter("failure_suspicions_total")
	mFailures   = obs.Default.Counter("failure_failures_total")
	mRecoveries = obs.Default.Counter("failure_recoveries_total")
)

// HistorySize is the number of recent pings retained (§3.3: "the
// response times (and loss rates) associated with the last 10 pings").
const HistorySize = 10

// Verdict is the detector's opinion of the traced entity.
type Verdict int

const (
	// Healthy means pings are being answered.
	Healthy Verdict = iota
	// Suspected means SuspicionThreshold consecutive pings went
	// unanswered; a FAILURE_SUSPICION trace is due.
	Suspected
	// Failed means additional pings after suspicion also went
	// unanswered; a FAILED trace is due.
	Failed
)

// String names the verdict using the paper's trace vocabulary.
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "HEALTHY"
	case Suspected:
		return "FAILURE_SUSPICION"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Config tunes the detector.
type Config struct {
	// BaseInterval is the established ping interval.
	BaseInterval time.Duration
	// MinInterval floors the hastened interval ("if consecutive pings do
	// not have responses associated with them, the ping interval is
	// reduced to hasten the failure detection").
	MinInterval time.Duration
	// MaxInterval caps the relaxed interval for long-healthy entities
	// ("depending on ... the duration for which a traced entity has been
	// active, this ping interval is varied").
	MaxInterval time.Duration
	// ResponseTimeout is how long a ping may remain unanswered before it
	// counts as missed.
	ResponseTimeout time.Duration
	// SuspicionThreshold is the number of consecutive misses that
	// triggers FAILURE_SUSPICION.
	SuspicionThreshold int
	// FailureThreshold is the number of additional consecutive misses
	// (beyond suspicion) that triggers FAILED.
	FailureThreshold int
	// SuccessesPerRelax is how many consecutive successes lengthen the
	// interval by one BaseInterval step.
	SuccessesPerRelax int
	// Log, when set, receives verdict-transition diagnostics. The field
	// is a pointer so Config stays comparable (NewTraceBroker compares
	// against the zero Config to select defaults).
	Log *slog.Logger
}

// DefaultConfig returns production-oriented defaults: 1 s pings, 250 ms
// floor, 10 s ceiling, suspicion after 3 misses, failure after 2 more.
func DefaultConfig() Config {
	return Config{
		BaseInterval:       time.Second,
		MinInterval:        250 * time.Millisecond,
		MaxInterval:        10 * time.Second,
		ResponseTimeout:    750 * time.Millisecond,
		SuspicionThreshold: 3,
		FailureThreshold:   2,
		SuccessesPerRelax:  30,
	}
}

// Validate checks config consistency.
func (c Config) Validate() error {
	if c.BaseInterval <= 0 || c.MinInterval <= 0 || c.MaxInterval <= 0 || c.ResponseTimeout <= 0 {
		return fmt.Errorf("failure: intervals must be positive: %+v", c)
	}
	if c.MinInterval > c.BaseInterval || c.BaseInterval > c.MaxInterval {
		return fmt.Errorf("failure: need MinInterval <= BaseInterval <= MaxInterval: %+v", c)
	}
	if c.SuspicionThreshold < 1 || c.FailureThreshold < 1 {
		return fmt.Errorf("failure: thresholds must be >= 1: %+v", c)
	}
	if c.SuccessesPerRelax < 1 {
		return fmt.Errorf("failure: SuccessesPerRelax must be >= 1: %+v", c)
	}
	return nil
}

// PingRecord describes one ping in the history window.
type PingRecord struct {
	Number      uint64
	SentAt      time.Time
	RespondedAt time.Time // zero if unanswered
	RTT         time.Duration
	Answered    bool
	OutOfOrder  bool
}

// Metrics summarizes the history window for NETWORK_METRICS traces.
type Metrics struct {
	// LossRate is the fraction of window pings that went unanswered.
	LossRate float64
	// MeanRTT averages the answered pings' round trips.
	MeanRTT time.Duration
	// OutOfOrderRate is the fraction of answered pings whose responses
	// arrived out of number order.
	OutOfOrderRate float64
	// Samples is the number of pings in the window.
	Samples int
}

// Detector tracks one traced entity. It is safe for concurrent use.
type Detector struct {
	mu sync.Mutex

	cfg Config

	nextNumber  uint64
	outstanding map[uint64]time.Time // ping number -> sent time
	history     []PingRecord         // last HistorySize resolved pings
	lastRespNum uint64               // highest response number seen
	anyResponse bool

	consecMisses    int
	consecSuccesses int
	verdict         Verdict
	startedAt       time.Time
	lastPingAt      time.Time
}

// NewDetector creates a detector; now is the session start time.
func NewDetector(cfg Config, now time.Time) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Log = obs.OrDiscard(cfg.Log)
	return &Detector{
		cfg:         cfg,
		outstanding: make(map[uint64]time.Time),
		startedAt:   now,
	}, nil
}

// NextPingNumber allocates the monotonically increasing message number
// for the next ping (§3.3) and records it as outstanding.
func (d *Detector) NextPingNumber(now time.Time) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextNumber++
	d.outstanding[d.nextNumber] = now
	d.lastPingAt = now
	return d.nextNumber
}

// HandleResponse records a ping response. It reports the measured RTT
// and whether the response matched an outstanding ping (duplicates and
// unknown numbers report ok=false).
func (d *Detector) HandleResponse(number uint64, now time.Time) (rtt time.Duration, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sentAt, exists := d.outstanding[number]
	if !exists {
		return 0, false
	}
	delete(d.outstanding, number)
	rtt = now.Sub(sentAt)
	rec := PingRecord{
		Number:      number,
		SentAt:      sentAt,
		RespondedAt: now,
		RTT:         rtt,
		Answered:    true,
		OutOfOrder:  d.anyResponse && number < d.lastRespNum,
	}
	if number > d.lastRespNum {
		d.lastRespNum = number
	}
	d.anyResponse = true
	d.pushHistory(rec)
	d.consecMisses = 0
	d.consecSuccesses++
	// A response from a suspected entity clears the suspicion; a FAILED
	// verdict is terminal for the session (the entity must re-register).
	if d.verdict == Suspected {
		d.verdict = Healthy
		mRecoveries.Inc()
		d.cfg.Log.Info("suspicion cleared", "ping", number, "rtt", rtt)
	}
	return rtt, true
}

// Expire sweeps outstanding pings older than ResponseTimeout, recording
// them as misses. It returns the updated verdict and how many pings
// newly expired.
func (d *Detector) Expire(now time.Time) (Verdict, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	expired := 0
	for num, sentAt := range d.outstanding {
		if now.Sub(sentAt) >= d.cfg.ResponseTimeout {
			delete(d.outstanding, num)
			d.pushHistory(PingRecord{Number: num, SentAt: sentAt})
			d.consecMisses++
			d.consecSuccesses = 0
			expired++
		}
	}
	if expired > 0 && d.verdict != Failed {
		before := d.verdict
		if d.consecMisses >= d.cfg.SuspicionThreshold+d.cfg.FailureThreshold {
			d.verdict = Failed
		} else if d.consecMisses >= d.cfg.SuspicionThreshold {
			d.verdict = Suspected
		}
		if d.verdict != before {
			switch d.verdict {
			case Suspected:
				mSuspicions.Inc()
				d.cfg.Log.Warn("verdict transition", "from", before, "to", d.verdict,
					"consecutive_misses", d.consecMisses)
			case Failed:
				mFailures.Inc()
				d.cfg.Log.Error("verdict transition", "from", before, "to", d.verdict,
					"consecutive_misses", d.consecMisses)
			}
		}
	}
	return d.verdict, expired
}

// Verdict returns the current opinion.
func (d *Detector) Verdict() Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verdict
}

// Interval returns the current adaptive ping interval. Misses shrink it
// by halving per consecutive miss down to MinInterval (hastening failure
// detection); sustained health relaxes it toward MaxInterval.
func (d *Detector) Interval() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	iv := d.cfg.BaseInterval
	if d.consecMisses > 0 {
		for i := 0; i < d.consecMisses && iv > d.cfg.MinInterval; i++ {
			iv /= 2
		}
		if iv < d.cfg.MinInterval {
			iv = d.cfg.MinInterval
		}
		return iv
	}
	relaxSteps := d.consecSuccesses / d.cfg.SuccessesPerRelax
	iv += time.Duration(relaxSteps) * d.cfg.BaseInterval
	if iv > d.cfg.MaxInterval {
		iv = d.cfg.MaxInterval
	}
	return iv
}

// ConsecutiveMisses reports the current run of unanswered pings.
func (d *Detector) ConsecutiveMisses() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.consecMisses
}

// Outstanding reports how many pings await responses.
func (d *Detector) Outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outstanding)
}

// LastPingAt returns when the entity was last pinged (§3.3: the broker
// maintains "information about when the traced entity was last pinged").
func (d *Detector) LastPingAt() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastPingAt
}

// Uptime reports how long the session has been tracked.
func (d *Detector) Uptime(now time.Time) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return now.Sub(d.startedAt)
}

// History returns a copy of the resolved-ping window, newest last.
func (d *Detector) History() []PingRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]PingRecord(nil), d.history...)
}

// NetworkMetrics summarizes the window: loss, mean RTT and out-of-order
// rates over the link between broker and entity (§3.3: "The nature of
// the pings and the corresponding responses allow a broker to determine
// the loss rates, latency and out-of-order delivery rates over the
// link").
func (d *Detector) NetworkMetrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Metrics{Samples: len(d.history)}
	if m.Samples == 0 {
		return m
	}
	var answered, ooo int
	var rttSum time.Duration
	for _, r := range d.history {
		if r.Answered {
			answered++
			rttSum += r.RTT
			if r.OutOfOrder {
				ooo++
			}
		}
	}
	m.LossRate = float64(m.Samples-answered) / float64(m.Samples)
	if answered > 0 {
		m.MeanRTT = rttSum / time.Duration(answered)
		m.OutOfOrderRate = float64(ooo) / float64(answered)
	}
	return m
}

// pushHistory appends with the window bound; callers hold d.mu.
func (d *Detector) pushHistory(r PingRecord) {
	d.history = append(d.history, r)
	if len(d.history) > HistorySize {
		d.history = d.history[len(d.history)-HistorySize:]
	}
}

// Reset returns the detector to a healthy state with cleared counters,
// for an entity that re-registers after recovery.
func (d *Detector) Reset(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.outstanding = make(map[uint64]time.Time)
	d.history = nil
	d.consecMisses = 0
	d.consecSuccesses = 0
	d.verdict = Healthy
	d.startedAt = now
	d.anyResponse = false
	d.lastRespNum = 0
}
