// Tracing end-to-end suite: the flight recorder, trace assembly and
// self-monitoring stack driven exactly the way an operator uses it —
// tracectl against the brokers' admin endpoints. A 3-broker chain runs
// an entity on one edge and a tracker on the other; the suite asserts
// that `tracectl trace <uuid>` renders the complete
// entity→broker(s)→tracker waterfall with per-stage latencies, that a
// deliberately unauthorized publish surfaces its guard-drop event in
// `tracectl tail`, and that the telemetry snapshots on the
// system-telemetry topic draw the broker map. Run the suite alone with
// `make trace`.
package entitytrace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/harness"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/tracectl"
)

// traceHarness stands up a 3-broker chain with every flight recorder
// sampling everything (so waterfalls are complete regardless of traffic
// volume) plus one httptest admin endpoint per broker serving /trace.
func traceHarness(t *testing.T) (*harness.Testbed, []string) {
	t.Helper()
	tb, err := harness.New(harness.Options{
		Brokers:           3,
		FlightEvents:      4096,
		FlightSample:      1,
		TelemetryInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	admins := make([]string, len(tb.Nodes))
	for i, n := range tb.Nodes {
		srv := httptest.NewServer(obs.FlightHandler(n.Flight))
		t.Cleanup(srv.Close)
		admins[i] = srv.URL
	}
	return tb, admins
}

// TestTraceCtlWaterfall drives one state transition from an entity on
// broker hb0 to a tracker on hb2 and renders its waterfall from the
// three flight recorders: the path must run entity→hb0→hb1→hb2→tracker
// with skew-normalized per-stage latencies.
func TestTraceCtlWaterfall(t *testing.T) {
	tb, admins := traceHarness(t)
	ent, err := tb.StartEntity("wf-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("wf-tracker", 2, "wf-entity", topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	// Re-issue the state report until its trace is delivered: the
	// tracker's gauged interest may still be propagating across the
	// 3-broker chain when the first report fires.
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	var traceID ident.UUID
	deadline := time.After(15 * time.Second)
	retry := time.NewTicker(300 * time.Millisecond)
	defer retry.Stop()
	for traceID == (ident.UUID{}) {
		select {
		case ev := <-h.Events:
			if ev.State != nil && ev.State.To == message.StateReady {
				if len(ev.Hops) == 0 {
					t.Fatal("delivered state trace carried no span hops")
				}
				traceID = ev.TraceID
			}
		case <-retry.C:
			_ = ent.SetState(message.StateReady)
		case <-deadline:
			t.Fatal("no READY state trace delivered within 15s")
		}
	}

	cl := &tracectl.Client{Admins: admins}
	var out bytes.Buffer
	if err := cl.Waterfall(&out, obs.FlightTrace(traceID).String()); err != nil {
		t.Fatalf("waterfall: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"wf-entity",  // flow starts at the traced entity
		"hb0", "hb1", // crosses the chain
		"hb2",
		"wf-tracker", // ends at the tracker's client connection
		"path:",
		"stages:",
		"total",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, got)
		}
	}
	// The chronological event list shows actual broker decisions for this
	// trace: at least one ingress and one egress leg.
	if !strings.Contains(got, "ingress") || !strings.Contains(got, "egress") {
		t.Fatalf("waterfall missing ingress/egress events:\n%s", got)
	}
	// The path line renders the traversal in one arrow chain.
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "path: ") {
			if !strings.Contains(line, "wf-entity") || !strings.Contains(line, "wf-tracker") {
				t.Fatalf("path endpoints wrong: %q", line)
			}
			if strings.Index(line, "hb0") > strings.Index(line, "hb2") {
				t.Fatalf("path order wrong: %q", line)
			}
		}
	}
}

// TestTraceCtlTailShowsGuardDrop makes two deliberately unauthorized
// trace publishes and asserts both rejection events — with their drop
// reasons — appear in `tracectl tail` output. A client publishing
// directly onto a derivative trace topic is stopped at topic
// authorization (the topics are Publish-Only with the broker as
// constrainer); a token-less trace injected with broker authority (a
// compromised broker) clears the topic check and is stopped by the §4.3
// guard instead.
func TestTraceCtlTailShowsGuardDrop(t *testing.T) {
	tb, admins := traceHarness(t)
	intruder, err := broker.Connect(tb.Transport(), tb.Addrs[0], "intruder")
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	if err := intruder.Publish(message.New(message.TraceAllsWell,
		topic.AllUpdates(ident.NewUUID()), "intruder", []byte("spoof"))); err != nil {
		t.Fatal(err)
	}
	if err := tb.Brokers[0].Publish(message.New(message.TraceAllsWell,
		topic.AllUpdates(ident.NewUUID()), "", []byte("forged"))); err == nil {
		t.Fatal("token-less broker-injected trace was not rejected")
	}

	cl := &tracectl.Client{Admins: admins}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var out bytes.Buffer
		if _, err := cl.Tail(&out, 0, 1); err != nil {
			t.Fatalf("tail: %v", err)
		}
		got := out.String()
		clientDrop := strings.Contains(got, "drop") && strings.Contains(got, "peer=intruder") &&
			strings.Contains(got, "unauthorized_topic")
		guardDrop := strings.Contains(got, "guard") &&
			strings.Contains(got, "lacks authorization token")
		if clientDrop && guardDrop {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop events never appeared in tail (client drop %v, guard drop %v):\n%s",
				clientDrop, guardDrop, got)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTraceCtlTailResumesFromSequence verifies tail's since-cursor: a
// second poll round reports only events recorded after the first.
func TestTraceCtlTailResumesFromSequence(t *testing.T) {
	tb, admins := traceHarness(t)
	ent, err := tb.StartEntity("tail-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := &tracectl.Client{Admins: admins}
	var first bytes.Buffer
	if _, err := cl.Tail(&first, 0, 1); err != nil {
		t.Fatal(err)
	}
	head := tb.Nodes[0].Flight.Head()
	if head == 0 {
		t.Fatal("no flight events recorded by registration traffic")
	}
	// Quiesce, then drive fresh traffic; a tail starting now must see it.
	if err := ent.SetState(message.StateReady); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return tb.Nodes[0].Flight.Head() > head })
	dump := tb.Nodes[0].Flight.Dump(obs.FlightFilter{Since: head})
	if len(dump.Events) == 0 {
		t.Fatal("since-filter returned nothing despite new events")
	}
	for _, ev := range dump.Events {
		if ev.Seq <= head {
			t.Fatalf("since-filter leaked old event %d <= %d", ev.Seq, head)
		}
	}
}

// TestTraceCtlBrokerMap watches the system-telemetry topic through one
// subscription on hb2 and renders the broker map, text and -format json:
// every broker of the chain appears (the snapshots disseminate
// network-wide), each chain link is reported from both of its ends, the
// brokers hosting clients count them without listing them, and publish
// rates are folded from the counter deltas.
func TestTraceCtlBrokerMap(t *testing.T) {
	tb, _ := traceHarness(t)
	if _, err := tb.StartEntity("map-entity", 0); err != nil {
		t.Fatal(err)
	}
	a := tracectl.NewTopAssembler(nil)
	go func() {
		_ = tracectl.WatchTelemetry(tb.Transport(), tb.Addrs[2], "tracectl-e2e",
			5*time.Minute, 150*time.Millisecond, a, nil)
	}()
	// The dialing end of a chain link names its neighbour by address, the
	// accepting end by broker name: hb0—hb1 and hb1—hb2 each show twice.
	wantLinks := map[string][]string{
		"hb0": {"hb1"},
		"hb1": {tb.Addrs[0], "hb2"},
		"hb2": {tb.Addrs[1]},
	}
	var board tracectl.TopBoard
	waitFor(t, 15*time.Second, func() bool {
		var buf bytes.Buffer
		if err := tracectl.RenderTopJSON(&buf, a.Board()); err != nil {
			t.Fatal(err)
		}
		board = tracectl.TopBoard{}
		if err := json.Unmarshal(buf.Bytes(), &board); err != nil {
			t.Fatalf("map JSON does not parse: %v\n%s", err, buf.String())
		}
		if len(board.Brokers) != 3 || board.FleetPublishRate <= 0 {
			return false
		}
		for _, v := range board.Brokers {
			if len(v.Links) != len(wantLinks[v.Broker]) {
				return false
			}
		}
		return true
	})
	for _, v := range board.Brokers {
		peers := make([]string, len(v.Links))
		for i, l := range v.Links {
			peers[i] = l.Peer
		}
		want := append([]string(nil), wantLinks[v.Broker]...)
		sort.Strings(want)
		if strings.Join(peers, ",") != strings.Join(want, ",") {
			t.Errorf("%s links = %v, want %v", v.Broker, peers, want)
		}
		// hb0 hosts the entity, hb2 the watcher; hb1 only links.
		if wantClients := map[string]int64{"hb0": 1, "hb1": 0, "hb2": 1}[v.Broker]; v.Clients != wantClients {
			t.Errorf("%s clients = %d, want %d", v.Broker, v.Clients, wantClients)
		}
	}
	var out bytes.Buffer
	tracectl.RenderMap(&out, a.Board())
	got := out.String()
	for _, want := range []string{"broker hb0", "broker hb1", "broker hb2", "pub=", "published=", "─ hb1 ", "─ hb2 "} {
		if !strings.Contains(got, want) {
			t.Errorf("broker map missing %q:\n%s", want, got)
		}
	}
	for _, client := range []string{"map-entity", "tracectl-e2e"} {
		if strings.Contains(got, client) {
			t.Errorf("broker map lists client %q:\n%s", client, got)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
