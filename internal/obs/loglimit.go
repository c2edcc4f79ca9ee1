package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// logLimiterMaxKeys bounds the limiter's per-key memory; when full,
// stale entries (older than one interval) are swept, and if none are
// stale the new key logs unthrottled without being tracked.
const logLimiterMaxKeys = 4096

// LogLimiter rate-limits repetitive structured log lines per key
// (typically a peer or entity name): at most one admitted line per key
// per interval. Lines dropped in between are counted, and the count
// rides on the next admitted line as a `suppressed` keyval — so a
// reconnect storm or a flood of rejected traces costs one line per
// second per peer instead of one per event, without hiding how big the
// storm was. A nil limiter is a silent no-op, and a limiter over a nil
// logger counts but writes nowhere.
type LogLimiter struct {
	log      *slog.Logger
	interval time.Duration
	now      func() time.Time

	mu    sync.Mutex
	state map[string]*limitState
}

type limitState struct {
	last       time.Time
	suppressed int
}

// NewLogLimiter builds a limiter over log admitting one line per key
// per interval (non-positive selects one second). log and now may be
// nil (silent; wall clock).
func NewLogLimiter(log *slog.Logger, interval time.Duration, now func() time.Time) *LogLimiter {
	if interval <= 0 {
		interval = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &LogLimiter{log: OrDiscard(log), interval: interval, now: now, state: make(map[string]*limitState)}
}

// admit reports whether a line for key may log now and, when it may,
// how many lines were suppressed since the last admitted one.
func (l *LogLimiter) admit(key string) (ok bool, suppressed int) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state[key]
	if st == nil {
		if len(l.state) >= logLimiterMaxKeys {
			for k, s := range l.state {
				if now.Sub(s.last) >= l.interval {
					delete(l.state, k)
				}
			}
			if len(l.state) >= logLimiterMaxKeys {
				return true, 0
			}
		}
		l.state[key] = &limitState{last: now}
		return true, 0
	}
	if now.Sub(st.last) < l.interval {
		st.suppressed++
		return false, 0
	}
	st.last = now
	suppressed, st.suppressed = st.suppressed, 0
	return true, suppressed
}

// Warn logs msg at warn level, rate-limited per key; a `suppressed`
// keyval reports lines dropped since the key's last admitted line.
func (l *LogLimiter) Warn(key, msg string, keyvals ...any) {
	l.emit(slog.LevelWarn, key, msg, keyvals)
}

// Info logs msg at info level, rate-limited per key, like Warn.
func (l *LogLimiter) Info(key, msg string, keyvals ...any) {
	l.emit(slog.LevelInfo, key, msg, keyvals)
}

// emit logs msg at level unless key's limit swallows it.
func (l *LogLimiter) emit(level slog.Level, key, msg string, keyvals []any) {
	if l == nil {
		return
	}
	ok, suppressed := l.admit(key)
	if !ok {
		return
	}
	if suppressed > 0 {
		keyvals = append(keyvals, "suppressed", suppressed)
	}
	l.log.Log(context.Background(), level, msg, keyvals...)
}
