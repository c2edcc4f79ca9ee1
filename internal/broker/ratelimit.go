package broker

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// pubBucket is a per-publisher token bucket. Admission is checked at
// ingress, before the envelope is even unmarshaled, so a flooding
// publisher is throttled before signature verification burns CPU
// (§5.2's DoS coping pushed to the cheapest possible point). It is
// accessed only from the owning peer's receive loop, so it needs no
// lock.
type pubBucket struct {
	tokens float64
	last   time.Time
}

// allow consumes one token if available, refilling at rate tokens/sec up
// to burst. The first call initializes a full bucket.
func (b *pubBucket) allow(now time.Time, rate, burst float64) bool {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+rate*dt.Seconds())
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// violationScore is the decaying §5.2 offender score that replaces the
// seed's monotonically increasing violation counter: each violation adds
// its weight, and the accumulated score halves every half-life. A
// long-lived legitimate peer with sporadic failures therefore never
// accumulates into an unjust disconnect, while a burst or sustained
// attack still crosses the limit quickly.
//
// Writes happen only from the owning peer's receive loop; the score
// itself is kept as atomic float bits so health snapshots can read it
// from other goroutines without a lock.
type violationScore struct {
	bits atomic.Uint64 // math.Float64bits of the score
	at   time.Time     // last decay application; owner goroutine only
}

// add decays the score to now, adds weight, and returns the new score.
// Owner goroutine only.
func (v *violationScore) add(now time.Time, weight float64) float64 {
	score := math.Float64frombits(v.bits.Load())
	if dt := now.Sub(v.at); !v.at.IsZero() && dt > 0 {
		score *= math.Exp2(-float64(dt) / float64(DefaultViolationHalfLife))
	}
	v.at = now
	score += weight
	v.bits.Store(math.Float64bits(score))
	return score
}

// current returns the score as of its last update (no decay applied);
// safe from any goroutine.
func (v *violationScore) current() float64 {
	return math.Float64frombits(v.bits.Load())
}

// quarantine tracks principals whose reconnects are temporarily refused
// after an eviction (§5.2 repeat offenders): a banned entity that
// redials is sent a typed DISCONNECT(quarantined) and dropped before it
// can cost the broker anything further.
type quarantine struct {
	mu    sync.Mutex
	until map[string]time.Time
	// swept and sweptAt are the table's size and the time at its last
	// sweep of lapsed bans.
	swept   int
	sweptAt time.Time
}

// quarantineSweepEvery is the longest a lapsed ban waits for a sweep
// when the table is not growing.
const quarantineSweepEvery = time.Minute

func newQuarantine() *quarantine {
	return &quarantine{until: make(map[string]time.Time)}
}

// ban quarantines the principal until now+d. Once the table has doubled
// since its last sweep, or that sweep is quarantineSweepEvery old, bans
// past their own window are dropped first, so evicted principals that
// never redial cannot grow broker state (§5.2). A live ban is never
// dropped.
func (q *quarantine) ban(principal string, now time.Time, d time.Duration) {
	if d <= 0 || principal == "" {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.until) >= 2*q.swept || now.Sub(q.sweptAt) >= quarantineSweepEvery {
		for p, until := range q.until {
			if !now.Before(until) {
				delete(q.until, p)
			}
		}
		q.swept, q.sweptAt = len(q.until), now
	}
	q.until[principal] = now.Add(d)
}

// active reports whether principal is currently quarantined, lazily
// dropping lapsed entries.
func (q *quarantine) active(principal string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	until, ok := q.until[principal]
	if !ok {
		return false
	}
	if now.Before(until) {
		return true
	}
	delete(q.until, principal)
	return false
}
