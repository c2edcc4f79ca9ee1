package obs

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	g := r.Gauge("test_gauge")
	const workers, rounds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*rounds {
		t.Fatalf("counter = %d, want %d", got, workers*rounds)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	handles := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = r.Counter("same_name_total")
		}(w)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if handles[i] != handles[0] {
			t.Fatal("concurrent Counter() calls returned distinct handles for one name")
		}
	}
}

// TestChildRegistry: two children of one registry each keep their own
// share under a name while the parent holds the sum, counting costs no
// allocation, and the parent learns nothing of a child but the totals.
func TestChildRegistry(t *testing.T) {
	parent := NewRegistry()
	a, b := parent.Child(), parent.Child()
	ca, cb := a.Counter("events_total"), b.Counter("events_total")
	ca.Add(3)
	cb.Inc()
	ga, gb := a.Gauge("depth"), b.Gauge("depth")
	ga.Add(5)
	gb.Set(7)
	gb.Set(2)
	if a.Counter("events_total") != ca {
		t.Fatal("child counter handle not stable")
	}
	snapA, snapB, snapP := a.Snapshot(), b.Snapshot(), parent.Snapshot()
	if snapA.Counters["events_total"] != 3 || snapB.Counters["events_total"] != 1 || snapP.Counters["events_total"] != 4 {
		t.Fatalf("counters: a=%d b=%d parent=%d, want 3, 1, 4",
			snapA.Counters["events_total"], snapB.Counters["events_total"], snapP.Counters["events_total"])
	}
	if snapA.Gauges["depth"] != 5 || snapB.Gauges["depth"] != 2 || snapP.Gauges["depth"] != 7 {
		t.Fatalf("gauges: a=%d b=%d parent=%d, want 5, 2, 7",
			snapA.Gauges["depth"], snapB.Gauges["depth"], snapP.Gauges["depth"])
	}
	// A name only the parent registered is no business of a child's.
	parent.Counter("parent_only_total").Inc()
	if _, ok := a.Snapshot().Counters["parent_only_total"]; ok {
		t.Fatal("child snapshot leaked a parent-only counter")
	}
	if n := testing.AllocsPerRun(100, func() { ca.Inc(); ga.Add(1) }); n != 0 {
		t.Fatalf("scoped count allocates %.1f times per event", n)
	}
	// A nil handle discards, so an unowned component needs no registry.
	(*Counter)(nil).Inc()
	(*Gauge)(nil).Add(1)
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", nil)
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h.Observe(float64(seed*rounds+i) / 100.0)
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*rounds {
		t.Fatalf("count = %d, want %d", snap.Count, workers*rounds)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.Le != "+Inf" || last.Count != workers*rounds {
		t.Fatalf("overflow bucket = %+v, want le=+Inf count=%d", last, workers*rounds)
	}
	if snap.Min != 0 || snap.Max != float64(workers*rounds-1)/100.0 {
		t.Fatalf("min/max = %v/%v", snap.Min, snap.Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 uniform values in (0, 4]: quantiles interpolate inside buckets.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	snap := h.Snapshot()
	if snap.P50 < 1.5 || snap.P50 > 2.5 {
		t.Fatalf("p50 = %v, want ~2", snap.P50)
	}
	if snap.P99 < 3.5 || snap.P99 > 4.0 {
		t.Fatalf("p99 = %v, want ~4", snap.P99)
	}
	if snap.P95 < 3.5 || snap.P95 > 4.0 {
		t.Fatalf("p95 = %v, want ~3.8", snap.P95)
	}
	if snap.P95 > snap.P99 {
		t.Fatalf("p95 %v > p99 %v", snap.P95, snap.P99)
	}
	// Values beyond the last bound land in +Inf and report the max.
	h2 := newHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Snapshot().P99; got != 50 {
		t.Fatalf("overflow p99 = %v, want observed max 50", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(nil)
	h.ObserveDuration(2500 * time.Microsecond)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Max != 2.5 {
		t.Fatalf("snapshot = count %d max %v, want 1 and 2.5ms", snap.Count, snap.Max)
	}
}

func TestWithLabelAndBaseName(t *testing.T) {
	name := WithLabel("traces_dropped_total", "reason", "bad_signature")
	if name != `traces_dropped_total{reason="bad_signature"}` {
		t.Fatalf("WithLabel = %q", name)
	}
	if got := baseName(name); got != "traces_dropped_total" {
		t.Fatalf("baseName = %q", got)
	}
	if got := baseName("plain_total"); got != "plain_total" {
		t.Fatalf("baseName(plain) = %q", got)
	}
}

func TestLoggerRedaction(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelDebug, false)
	secret := "super-secret-value"
	l.Info("registered",
		"entity", "svc-1",
		"token", secret,
		"trace_key", []byte(secret),
		"privateKey", secret,
		"signature", secret,
		"credential", secret,
	)
	out := sb.String()
	if strings.Contains(out, secret) {
		t.Fatalf("secret value leaked into log output: %q", out)
	}
	if !strings.Contains(out, "svc-1") {
		t.Fatalf("non-sensitive value missing: %q", out)
	}
	if !strings.Contains(out, "[REDACTED 18 bytes]") {
		t.Fatalf("redaction placeholder missing: %q", out)
	}
}

// TestLoggerWithRedaction: a secret attached with With is redacted like
// one passed per record, in both formats.
func TestLoggerWithRedaction(t *testing.T) {
	secret := "super-secret-value"
	for _, jsonFormat := range []bool{false, true} {
		var sb strings.Builder
		NewLogger(&sb, slog.LevelDebug, jsonFormat).With("session_key", []byte(secret), "entity", "svc-1").Info("rekeyed")
		out := sb.String()
		if strings.Contains(out, secret) || !strings.Contains(out, "[REDACTED 18 bytes]") || !strings.Contains(out, "svc-1") {
			t.Fatalf("json=%v: With attr not redacted: %q", jsonFormat, out)
		}
	}
}

func TestRedactedKeys(t *testing.T) {
	for _, key := range []string{"token", "Token", "authToken", "trace_key", "secret", "password", "signature", "credential", "cert", "privateKey"} {
		if !Redacted(key) {
			t.Errorf("Redacted(%q) = false, want true", key)
		}
	}
	for _, key := range []string{"entity", "session", "topic", "peer", "reason", "err"} {
		if Redacted(key) {
			t.Errorf("Redacted(%q) = true, want false", key)
		}
	}
}

func TestLoggerTextFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelInfo, false)
	l.Debug("hidden")
	l.With("broker", "b-1").Warn("link lost", "peer", "10.0.0.1:7100", "detail", "reset by peer")
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line emitted at info level: %q", out)
	}
	for _, want := range []string{"level=WARN", `msg="link lost"`, "broker=b-1", "peer=10.0.0.1:7100", `detail="reset by peer"`, "ts="} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output %q missing %q", out, want)
		}
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelDebug, true)
	l.Info("registered", "entity", "svc-1", "sessions", 3, "token", "abc")
	var rec map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, sb.String())
	}
	if rec["level"] != "INFO" || rec["msg"] != "registered" || rec["entity"] != "svc-1" {
		t.Fatalf("unexpected record: %v", rec)
	}
	if rec["sessions"] != float64(3) {
		t.Fatalf("numeric field mangled: %v", rec["sessions"])
	}
	if rec["token"] != "[REDACTED 3 bytes]" {
		t.Fatalf("token not redacted in JSON: %v", rec["token"])
	}
}

// TestLoggerJSONStringer pins that Stringer values (UUIDs, durations,
// entity IDs — often backed by byte arrays) render as their string form
// in JSON mode, matching the text format, instead of as number arrays.
func TestLoggerJSONStringer(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelDebug, true)
	l.Info("ping", "rtt", 1500*time.Microsecond)
	var rec map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["rtt"] != "1.5ms" {
		t.Fatalf("Stringer rendered as %v, want \"1.5ms\"", rec["rtt"])
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("traces_published_total").Add(7)
	r.Counter(WithLabel("traces_dropped_total", "reason", "bad_signature")).Inc()
	r.Gauge("core_sessions_active").Set(2)
	r.Histogram("ping_rtt_ms", nil).Observe(1.5)

	// Text exposition.
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE traces_published_total counter",
		"traces_published_total 7",
		`traces_dropped_total{reason="bad_signature"} 1`,
		"core_sessions_active 2",
		"# HELP traces_published_total traces_published_total counter.",
		"# TYPE ping_rtt_ms histogram",
		`ping_rtt_ms_bucket{le="2.5"} 1`,
		"ping_rtt_ms_count 1",
		"ping_rtt_ms_sum 1.5",
		"# TYPE ping_rtt_ms_summary summary",
		"# HELP ping_rtt_ms_summary ping_rtt_ms_summary summary.",
		`ping_rtt_ms_summary{quantile="0.5"}`,
		`ping_rtt_ms_summary{quantile="0.95"}`,
		`ping_rtt_ms_summary{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("text exposition missing %q:\n%s", want, body)
		}
	}

	// JSON exposition.
	rec = httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["traces_published_total"] != 7 || snap.Gauges["core_sessions_active"] != 2 {
		t.Fatalf("json snapshot wrong: %+v", snap)
	}
	if snap.Histograms["ping_rtt_ms"].Count != 1 {
		t.Fatalf("json histogram missing: %+v", snap.Histograms)
	}
}

func TestAdminMuxHealthz(t *testing.T) {
	mux := NewAdminMux(NewRegistry(), func() map[string]any {
		return map[string]any{"sessions": 4, "broker": "b-1"}
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz Content-Type = %q", ct)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["sessions"] != float64(4) || out["broker"] != "b-1" {
		t.Fatalf("healthz = %v", out)
	}
	if _, ok := out["uptime_seconds"]; !ok {
		t.Fatal("healthz missing uptime_seconds")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof index status = %d", rec.Code)
	}
}
