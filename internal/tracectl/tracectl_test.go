package tracectl

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/clock"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
)

var testT0 = time.Unix(1_700_000_000, 0)

func sampleDigest() *message.AvailabilityDigest {
	return &message.AvailabilityDigest{
		Reporter: "hb0",
		AtNanos:  testT0.UnixNano(),
		Rows: []message.AvailabilityRow{
			{
				Entity: "svc-up", State: uint8(avail.Up), SinceNanos: testT0.UnixNano(),
				Transitions: 4, Flaps: 1, DowntimeNanos: int64(3 * time.Second),
				Uptime5m: 1, Uptime1h: 0.995, Uptime24h: -1,
				MTBFNanos: int64(time.Minute), MTTRNanos: int64(2 * time.Second),
				DetectLastNanos: int64(80 * time.Millisecond), DetectMaxNanos: int64(400 * time.Millisecond),
				BudgetRemaining: 0.42, BurnRate: 1.7, Breaches: 1,
			},
			{
				Entity: "svc-down", State: uint8(avail.Down), SinceNanos: testT0.UnixNano(),
				Transitions: 1, Uptime5m: 0.2, Uptime1h: -1, Uptime24h: -1,
				DetectLastNanos: int64(time.Second), DetectMaxNanos: int64(time.Second),
				BudgetRemaining: -1, BurnRate: -1,
			},
		},
	}
}

func TestRenderAvailBoard(t *testing.T) {
	var out bytes.Buffer
	RenderAvailBoard(&out, []*message.AvailabilityDigest{sampleDigest()})
	got := out.String()
	for _, want := range []string{
		"reporter hb0", "svc-up", "svc-down", "UP", "DOWN",
		"[██████████] 100.0%", // full 5m bar for svc-up
		"budget", "burn 1.70", "breaches=1",
		"ttd", "flaps=1",
		"  n/a", // 24h window with no observations
		"slowest detections:",
		"1. svc-down", // worst detect-max ranks first
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("board missing %q:\n%s", want, got)
		}
	}
	// svc-down carries no SLO: its line must not show a budget.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "svc-down") && strings.Contains(line, "budget") {
			t.Fatalf("SLO-less row rendered a budget: %q", line)
		}
	}
}

func TestRenderAvailBoardEmpty(t *testing.T) {
	var out bytes.Buffer
	RenderAvailBoard(&out, nil)
	if !strings.Contains(out.String(), "no availability digests observed") {
		t.Fatalf("empty board output: %q", out.String())
	}
}

func TestRenderAvailJSONRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := RenderAvailJSON(&out, []*message.AvailabilityDigest{sampleDigest()}); err != nil {
		t.Fatal(err)
	}
	var decoded []*message.AvailabilityDigest
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || len(decoded[0].Rows) != 2 || decoded[0].Rows[0].Entity != "svc-up" {
		t.Fatalf("round trip mangled digest: %+v", decoded)
	}
	// nil renders an empty array, not JSON null.
	out.Reset()
	if err := RenderAvailJSON(&out, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("nil digests rendered %q, want []", out.String())
	}
}

func TestUptimeBar(t *testing.T) {
	for _, tc := range []struct {
		ratio float64
		want  string
	}{
		{-1, "n/a"},
		{0, "[░░░░░░░░░░]   0.0%"},
		{0.5, "[█████░░░░░]  50.0%"},
		{1, "[██████████] 100.0%"},
		{1.5, "100.0%"}, // clamped
	} {
		if got := uptimeBar(tc.ratio); !strings.Contains(got, tc.want) {
			t.Fatalf("uptimeBar(%v) = %q, want containing %q", tc.ratio, got, tc.want)
		}
	}
	if got := uptimeCell(-1); !strings.Contains(got, "n/a") {
		t.Fatalf("uptimeCell(-1) = %q", got)
	}
	if got := uptimeCell(0.995); got != " 99.5%" {
		t.Fatalf("uptimeCell(0.995) = %q", got)
	}
}

func TestFetchAvail(t *testing.T) {
	fc := clock.NewFake(testT0)
	l := avail.New(avail.Config{Clock: fc})
	l.Observe(avail.Observation{Entity: "svc-1", Kind: avail.KindUp})
	fc.Advance(time.Second)
	srv := httptest.NewServer(avail.Handler(l, "node-a"))
	defer srv.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	// One reachable endpoint is enough; the dead one is skipped.
	cl := &Client{Admins: []string{dead.URL, srv.URL}}
	digests, err := cl.FetchAvail()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 || digests[0].Reporter != "node-a" {
		t.Fatalf("digests = %+v", digests)
	}
	if len(digests[0].Rows) != 1 || digests[0].Rows[0].Entity != "svc-1" {
		t.Fatalf("rows = %+v", digests[0].Rows)
	}

	// All endpoints failing (or none configured) is an error.
	if _, err := (&Client{Admins: []string{dead.URL}}).FetchAvail(); err == nil {
		t.Fatal("all-dead FetchAvail did not fail")
	}
	if _, err := (&Client{}).FetchAvail(); err == nil {
		t.Fatal("admin-less FetchAvail did not fail")
	}
}

// waterfallDumps builds two synthetic flight dumps describing one trace
// crossing b0 → b1 (entity ingress on b0, egress to the tracker on b1).
func waterfallDumps(tr obs.FlightTrace) []*obs.FlightDump {
	base := testT0.UnixNano()
	return []*obs.FlightDump{
		{Node: "b0", Head: 2, Events: []obs.FlightEvent{
			{Seq: 1, AtNanos: base, Kind: obs.FlightIngress, Trace: tr, Peer: "svc-1"},
			{Seq: 2, AtNanos: base + 100, Kind: obs.FlightEgress, Trace: tr, Peer: "b1"},
		}},
		{Node: "b1", Head: 2, Events: []obs.FlightEvent{
			{Seq: 1, AtNanos: base + 300, Kind: obs.FlightIngress, Trace: tr, Peer: "b0"},
			{Seq: 2, AtNanos: base + 400, Kind: obs.FlightEgress, Trace: tr, Peer: "tracker-1"},
		}},
	}
}

func TestAssembleWaterfall(t *testing.T) {
	tr, err := obs.ParseFlightTrace("00112233-4455-6677-8899-aabbccddeeff")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := AssembleWaterfall(tr, waterfallDumps(tr))
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []string{"svc-1", "b0", "b1", "tracker-1"}
	if len(wf.Path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", wf.Path, wantPath)
	}
	for i, p := range wantPath {
		if wf.Path[i] != p {
			t.Fatalf("path = %v, want %v", wf.Path, wantPath)
		}
	}
	if len(wf.Events) != 4 || wf.TotalNanos != 400 {
		t.Fatalf("events=%d total=%d, want 4 events over 400ns", len(wf.Events), wf.TotalNanos)
	}

	// Foreign-trace events are filtered out entirely.
	other, _ := obs.ParseFlightTrace("ffffffff-ffff-ffff-ffff-ffffffffffff")
	if _, err := AssembleWaterfall(other, waterfallDumps(tr)); err == nil {
		t.Fatal("waterfall for unseen trace did not fail")
	}
}

func TestRenderWaterfallJSON(t *testing.T) {
	tr, err := obs.ParseFlightTrace("00112233-4455-6677-8899-aabbccddeeff")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RenderWaterfallJSON(&out, tr, waterfallDumps(tr)); err != nil {
		t.Fatal(err)
	}
	var wf Waterfall
	if err := json.Unmarshal(out.Bytes(), &wf); err != nil {
		t.Fatal(err)
	}
	if wf.Trace != tr.String() || len(wf.Events) != 4 || wf.Events[0].Node != "b0" {
		t.Fatalf("JSON waterfall mangled: %+v", wf)
	}
	// The text renderer consumes the same assembly.
	out.Reset()
	if err := RenderWaterfall(&out, tr, waterfallDumps(tr)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "path: svc-1 → b0 → b1 → tracker-1") {
		t.Fatalf("text waterfall missing path:\n%s", out.String())
	}
}

// TestRenderMapFromTelemetry: the broker map is a renderer over the same
// board top builds. Link rows fold into per-broker links (label values
// unescaped), clients are counted and never listed, and a link missing
// from a broker's next snapshot is gone from the map.
func TestRenderMapFromTelemetry(t *testing.T) {
	now := testT0
	a := NewTopAssembler(func() time.Time { return now })
	snap := func(at time.Duration, published int64, links ...string) *message.TelemetrySnapshot {
		ts := &message.TelemetrySnapshot{
			Broker: "hb1", AtNanos: testT0.Add(at).UnixNano(), FabricEpoch: 7, IntervalMillis: 1000,
			Rows: []message.TelemetryRow{
				{Name: "broker_published_total", Counter: true, Value: published},
				{Name: "broker_peers", Value: int64(len(links)) + 5},
				{Name: "broker_subscriptions", Value: 3},
				{Name: "fabric_members", Value: 4},
				{Name: "fabric_owned_per_mille", Value: 250},
			},
		}
		for i, l := range links {
			ts.Rows = append(ts.Rows,
				message.TelemetryRow{Name: obs.WithLabel("broker_link_egress_queue_depth", "peer", l), Value: int64(10 * (i + 1))},
				message.TelemetryRow{Name: obs.WithLabel("broker_link_offender_score_milli", "peer", l), Value: 1500})
		}
		return ts
	}
	a.Ingest(snap(time.Second, 1000, "hb2", `hb"0`))
	a.Ingest(snap(2*time.Second, 40, "hb2", `hb"0`))
	now = testT0.Add(2 * time.Second)

	v := a.Board().Brokers[0]
	want := []TopLink{{Peer: `hb"0`, Queued: 20, ScoreMilli: 1500}, {Peer: "hb2", Queued: 10, ScoreMilli: 1500}}
	if len(v.Links) != 2 || v.Links[0] != want[0] || v.Links[1] != want[1] || v.Clients != 5 {
		t.Fatalf("links = %+v clients = %d, want %+v and 5", v.Links, v.Clients, want)
	}
	for name := range v.Series {
		if strings.HasPrefix(name, "broker_link_") {
			t.Fatalf("link row %q kept as a series", name)
		}
	}
	var out bytes.Buffer
	RenderMap(&out, a.Board())
	for _, s := range []string{"broker hb1", "subs=3", "clients=5", "pub=40.0/s",
		"fabric: epoch=7 members=4 owned=250‰", "├─ hb\"0", "queued=20 score=1.5", "└─ hb2", "published=1040"} {
		if !strings.Contains(out.String(), s) {
			t.Fatalf("map missing %q:\n%s", s, out.String())
		}
	}

	a.Ingest(snap(3*time.Second, 0, "hb2"))
	if v := a.Board().Brokers[0]; len(v.Links) != 1 || v.Links[0].Peer != "hb2" || v.Clients != 5 {
		t.Fatalf("after the link dropped: links = %+v clients = %d", v.Links, v.Clients)
	}

	out.Reset()
	RenderMap(&out, NewTopAssembler(nil).Board())
	if !strings.Contains(out.String(), "no telemetry snapshots observed") {
		t.Fatalf("empty board rendered %q", out.String())
	}
}

// TestAvailFromTelemetry feeds the assembler snapshots from two brokers,
// one hosting an entity and one hosting none: the avail board gets one
// digest, for the reporting broker, from its latest snapshot — a late
// older snapshot does not roll it back.
func TestAvailFromTelemetry(t *testing.T) {
	a := NewTopAssembler(func() time.Time { return testT0 })
	snap := func(broker string, at time.Duration, state uint8) *message.TelemetrySnapshot {
		ts := &message.TelemetrySnapshot{Broker: broker, AtNanos: testT0.Add(at).UnixNano(), IntervalMillis: 1000}
		if state != 0 {
			ts.Avail = []message.AvailabilityRow{{Entity: "svc-1", State: state, BudgetRemaining: -1, BurnRate: -1}}
		}
		return ts
	}
	a.Ingest(snap("hb0", time.Second, uint8(avail.Up)))
	a.Ingest(snap("hb1", time.Second, 0))
	a.Ingest(snap("hb0", 3*time.Second, uint8(avail.Down)))
	a.Ingest(snap("hb0", 2*time.Second, uint8(avail.Up)))
	a.Ingest(snap("hb1", 2*time.Second, 0))

	digests := a.Avail()
	if len(digests) != 1 {
		t.Fatalf("digests = %+v, want one for hb0", digests)
	}
	d := digests[0]
	if d.Reporter != "hb0" || d.AtNanos != testT0.Add(3*time.Second).UnixNano() ||
		len(d.Rows) != 1 || avail.State(d.Rows[0].State) != avail.Down {
		t.Fatalf("digest = %+v, want hb0's 3s snapshot with svc-1 DOWN", d)
	}
	var out bytes.Buffer
	RenderAvailBoard(&out, digests)
	if s := out.String(); !strings.Contains(s, "reporter hb0") || !strings.Contains(s, "svc-1") ||
		strings.Contains(s, "hb1") {
		t.Fatalf("board:\n%s", s)
	}
}

func TestTailJSON(t *testing.T) {
	fr := obs.NewFlightRecorder("t0", 64, 1)
	fr.Record(obs.FlightEvent{Kind: obs.FlightIngress, Peer: "svc-1"})
	srv := httptest.NewServer(obs.FlightHandler(fr))
	defer srv.Close()
	cl := &Client{Admins: []string{srv.URL}, JSON: true}
	var out bytes.Buffer
	n, err := cl.Tail(&out, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("tail printed no events")
	}
	// Every line is one JSON object with node + event.
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var ne struct {
			Node  string          `json:"node"`
			Event obs.FlightEvent `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ne); err != nil {
			t.Fatalf("tail line is not JSON: %q: %v", line, err)
		}
		if ne.Node != "t0" {
			t.Fatalf("tail line node = %q", ne.Node)
		}
	}
}

// A node restart resets its flight recorder's sequence space. Tail must
// notice the head moving backwards and resync from the start of the new
// recorder instead of polling with a stale cursor that skips (or hides
// forever) everything the restarted node records.
func TestTailResyncsAfterNodeRestart(t *testing.T) {
	before := obs.NewFlightRecorder("t0", 64, 1)
	for i := 0; i < 3; i++ {
		before.Record(obs.FlightEvent{Kind: obs.FlightIngress, Peer: "pre-restart"})
	}
	after := obs.NewFlightRecorder("t0", 64, 1)
	after.Record(obs.FlightEvent{Kind: obs.FlightIngress, Peer: "post-restart"})

	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First poll hits the original recorder; every later poll hits
		// the restarted node's fresh (shorter) recorder.
		if calls.Add(1) == 1 {
			obs.FlightHandler(before).ServeHTTP(w, r)
			return
		}
		obs.FlightHandler(after).ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := &Client{Admins: []string{srv.URL}, JSON: true}
	var out bytes.Buffer
	n, err := cl.Tail(&out, time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("tail printed %d events, want 4 (3 pre-restart + 1 resynced)", n)
	}
	if !strings.Contains(out.String(), "post-restart") {
		t.Fatal("post-restart event missing: stale cursor was not resynced")
	}
}
