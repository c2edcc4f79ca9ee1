package obs

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for limiter tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLogLimiterSuppression(t *testing.T) {
	var buf strings.Builder
	clk := &fakeClock{t: time.Unix(1000, 0)}
	lim := NewLogLimiter(NewLogger(&buf, slog.LevelInfo, false), time.Second, clk.now)

	// First line per key admits.
	lim.Warn("peer-a", "boom", "n", 1)
	lim.Warn("peer-b", "boom")
	if got := strings.Count(buf.String(), "boom"); got != 2 {
		t.Fatalf("first lines: %d admitted, want 2", got)
	}

	// A storm inside the interval is swallowed per key.
	for i := 0; i < 50; i++ {
		lim.Warn("peer-a", "boom")
	}
	if got := strings.Count(buf.String(), "boom"); got != 2 {
		t.Fatalf("storm leaked: %d lines", got)
	}

	// After the interval the next line admits and carries the count.
	clk.advance(time.Second)
	lim.Warn("peer-a", "boom")
	out := buf.String()
	if got := strings.Count(out, "boom"); got != 3 {
		t.Fatalf("post-interval: %d lines", got)
	}
	if !strings.Contains(out, "suppressed=50") {
		t.Fatalf("missing suppressed count in %q", out)
	}

	// A quiet key admits with no suppressed keyval.
	clk.advance(time.Second)
	buf.Reset()
	lim.Info("peer-a", "calm")
	if out := buf.String(); !strings.Contains(out, "calm") || strings.Contains(out, "suppressed") {
		t.Fatalf("quiet line = %q", out)
	}
}

func TestLogLimiterNilSafety(t *testing.T) {
	var lim *LogLimiter
	lim.Warn("k", "msg") // nil limiter: no-op, no panic
	lim.Info("k", "msg")

	// A limiter over a nil logger still counts but writes nowhere.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l2 := NewLogLimiter(nil, 0, clk.now) // non-positive interval defaults
	l2.Warn("k", "msg")
	l2.Warn("k", "msg")
}

func TestLogLimiterKeyCap(t *testing.T) {
	var buf strings.Builder
	clk := &fakeClock{t: time.Unix(1000, 0)}
	lim := NewLogLimiter(NewLogger(&buf, slog.LevelWarn, false), time.Second, clk.now)
	for i := 0; i < logLimiterMaxKeys; i++ {
		lim.state[string(rune('a'))+time.Duration(i).String()] = &limitState{last: clk.now()}
	}
	// Map full, nothing stale: the new key logs untracked.
	lim.Warn("overflow", "full")
	if !strings.Contains(buf.String(), "full") {
		t.Fatal("full-map line dropped")
	}
	if _, tracked := lim.state["overflow"]; tracked {
		t.Fatal("overflow key tracked past the cap")
	}
	// Once entries go stale the sweep reclaims room and tracks again.
	clk.advance(2 * time.Second)
	lim.Warn("overflow", "full")
	if _, tracked := lim.state["overflow"]; !tracked {
		t.Fatal("stale sweep did not reclaim room")
	}
	if len(lim.state) > logLimiterMaxKeys {
		t.Fatalf("state grew past cap: %d", len(lim.state))
	}
}
