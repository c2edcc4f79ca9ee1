package tracectl

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// This file is the subscriber half of the fleet telemetry plane
// (PROTOCOL.md §3.10): `tracectl top` and `tracectl map` subscribe once
// to the system-telemetry topic, fold every broker's delta-encoded
// snapshots back into cumulative series and per-second rates, and render
// the assembled board two ways — top as a live fleet board (per-broker
// sparkline columns, fleet totals, and the standing alert set, including
// absence-of-heartbeat alerts the assembler synthesizes itself when a
// broker's snapshots stop), map as the topology (every broker with its
// links' queue depths and offender scores). `tracectl avail` reads the
// same subscription for the availability rows the snapshots carry.

// sparkSamples is the per-series rate history behind each sparkline.
const sparkSamples = 32

// staleAfterIntervals is how many missed publisher intervals mark a
// broker stale and raise the synthesized heartbeat-absent alert.
const staleAfterIntervals = 3

// topSeries tracks one series of one broker inside the assembler.
type topSeries struct {
	counter bool
	cum     int64 // folded cumulative value (counters) or latest (gauges)
	rate    float64
	spark   [sparkSamples]float64
	n       int // total rate samples recorded (ring write cursor)
}

func (s *topSeries) pushRate(v float64) {
	s.rate = v
	s.spark[s.n%sparkSamples] = v
	s.n++
}

// sparkline renders the ring oldest-to-newest.
func (s *topSeries) sparkline(width int) string {
	return sparkline(s.history(width))
}

func (s *topSeries) history(width int) []float64 {
	if width > sparkSamples {
		width = sparkSamples
	}
	have := s.n
	if have > width {
		have = width
	}
	out := make([]float64, 0, have)
	for i := s.n - have; i < s.n; i++ {
		out = append(out, s.spark[i%sparkSamples])
	}
	return out
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline maps values to the classic 8-level block ramp, scaled to
// the window's own maximum.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		if max <= 0 || v <= 0 {
			out[i] = sparkRunes[0]
			continue
		}
		idx := int(v / max * float64(len(sparkRunes)-1))
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// topBroker is one broker's folded state.
type topBroker struct {
	name     string
	epoch    uint64
	atNanos  int64 // publisher clock of the last snapshot
	seenAt   int64 // assembler clock when it arrived
	interval time.Duration
	series   map[string]*topSeries
	// links are the broker's links as of its last snapshot.
	links []TopLink
	// alerts maps rule -> the broker's last reported state of it.
	alerts map[string]message.TelemetryAlert
	// absentSince, when nonzero, is the synthesized heartbeat-absent
	// episode start.
	absentSince int64
	// avail is the broker's availability ledger as of its last snapshot.
	avail []message.AvailabilityRow
}

// TopAssembler folds TELEMETRY_SNAPSHOT payloads from any number of
// brokers into a queryable fleet view. Safe for concurrent Ingest and
// Board calls.
type TopAssembler struct {
	mu      sync.Mutex
	brokers map[string]*topBroker
	now     func() time.Time
	// episodes counts distinct alert episodes per (broker, rule,
	// since) — the e2e's "exactly one edge" oracle.
	episodes map[string]struct{}
}

// NewTopAssembler builds an empty assembler; now may be nil (wall
// clock).
func NewTopAssembler(now func() time.Time) *TopAssembler {
	if now == nil {
		now = time.Now
	}
	return &TopAssembler{
		brokers:  make(map[string]*topBroker),
		now:      now,
		episodes: make(map[string]struct{}),
	}
}

// Ingest folds one snapshot. Out-of-order snapshots (older publisher
// clock than the last seen) are dropped; a fabric-epoch change re-keys
// the broker's view but keeps its series history.
func (a *TopAssembler) Ingest(ts *message.TelemetrySnapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.brokers[ts.Broker]
	if b == nil {
		b = &topBroker{
			name:   ts.Broker,
			series: make(map[string]*topSeries),
			alerts: make(map[string]message.TelemetryAlert),
		}
		a.brokers[ts.Broker] = b
	}
	if ts.AtNanos <= b.atNanos {
		return
	}
	dt := float64(ts.AtNanos-b.atNanos) / float64(time.Second)
	first := b.atNanos == 0
	b.atNanos = ts.AtNanos
	b.seenAt = a.now().UnixNano()
	b.epoch = ts.FabricEpoch
	b.interval = time.Duration(ts.IntervalMillis) * time.Millisecond
	b.absentSince = 0
	b.avail = ts.Avail
	b.links = b.links[:0]
	for _, row := range ts.Rows {
		if b.foldLink(row) {
			continue
		}
		s := b.series[row.Name]
		if s == nil {
			s = &topSeries{counter: row.Counter}
			b.series[row.Name] = s
		}
		if !row.Counter {
			s.cum = row.Value
			continue
		}
		if row.Value < 0 {
			// A negative delta means the publisher restarted mid-stream
			// and re-anchored below our fold: adopt its anchor rather
			// than spiking the cumulative backwards.
			s.cum = row.Value
			s.pushRate(0)
			continue
		}
		s.cum += row.Value
		if first || dt <= 0 {
			// The anchor snapshot carries the publisher's lifetime
			// cumulative, not one interval's movement — no rate yet.
			s.pushRate(0)
			continue
		}
		s.pushRate(float64(row.Value) / dt)
	}
	for rule := range b.alerts {
		// Standing alerts are re-asserted every snapshot; one that
		// vanishes without a clear edge cleared while we were not
		// looking.
		found := false
		for _, al := range ts.Alerts {
			if al.Rule == rule {
				found = true
				break
			}
		}
		if !found {
			delete(b.alerts, rule)
		}
	}
	for _, al := range ts.Alerts {
		if al.Firing {
			a.episodes[fmt.Sprintf("%s|%s|%d", ts.Broker, al.Rule, al.SinceNanos)] = struct{}{}
			b.alerts[al.Rule] = al
		} else {
			delete(b.alerts, al.Rule)
		}
	}
}

// Per-link rows carry the neighbour's name as the peer label.
const (
	linkDepthPrefix = `broker_link_egress_queue_depth{peer="`
	linkScorePrefix = `broker_link_offender_score_milli{peer="`
)

// foldLink folds a per-link row into b.links, reporting whether row was
// one. Links come and go, so they are rebuilt from each snapshot rather
// than kept as series: a link the broker stopped reporting is gone.
func (b *topBroker) foldLink(row message.TelemetryRow) bool {
	rest, isDepth := strings.CutPrefix(row.Name, linkDepthPrefix)
	if !isDepth {
		var isScore bool
		if rest, isScore = strings.CutPrefix(row.Name, linkScorePrefix); !isScore {
			return false
		}
	}
	// The label value is escaped for the text exposition format, whose
	// three escapes are also Go's.
	peer, err := strconv.Unquote(`"` + strings.TrimSuffix(rest, `"}`) + `"`)
	if err != nil {
		return false
	}
	i := slices.IndexFunc(b.links, func(l TopLink) bool { return l.Peer == peer })
	if i < 0 {
		i = len(b.links)
		b.links = append(b.links, TopLink{Peer: peer})
	}
	if isDepth {
		b.links[i].Queued = row.Value
	} else {
		b.links[i].ScoreMilli = row.Value
	}
	return true
}

// Episodes reports how many distinct alert episodes — unique (broker,
// rule, firing-edge time) triples — the assembler has observed.
func (a *TopAssembler) Episodes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.episodes)
}

// Avail returns the availability rows of every broker whose latest
// snapshot carried any, one digest per broker stamped with that
// snapshot's time, sorted by broker: the input of the `tracectl avail`
// board.
func (a *TopAssembler) Avail() []*message.AvailabilityDigest {
	a.mu.Lock()
	defer a.mu.Unlock()
	latest := make(map[string]*message.AvailabilityDigest)
	for name, b := range a.brokers {
		if len(b.avail) > 0 {
			latest[name] = &message.AvailabilityDigest{Reporter: name, AtNanos: b.atNanos, Rows: b.avail}
		}
	}
	return sortDigests(latest)
}

// TopAlert is one standing alert row of the board.
type TopAlert struct {
	Broker string  `json:"broker"`
	Rule   string  `json:"rule"`
	Series string  `json:"series"`
	Since  int64   `json:"since_nanos"`
	Value  float64 `json:"value"`
	// Synthesized marks assembler-made heartbeat-absent alerts.
	Synthesized bool `json:"synthesized,omitempty"`
}

// TopBrokerView is one broker's row of the board.
type TopBrokerView struct {
	Broker      string  `json:"broker"`
	FabricEpoch uint64  `json:"fabric_epoch"`
	AtNanos     int64   `json:"at_nanos"`
	Stale       bool    `json:"stale"`
	PublishRate float64 `json:"publish_rate"`
	ForwardRate float64 `json:"forward_rate"`
	DeliverRate float64 `json:"deliver_rate"`
	EgressDepth int64   `json:"egress_queue_depth"`
	GuardHitPct float64 `json:"guard_hit_pct"`
	ReplayRate  float64 `json:"replay_rate"`
	// Links are the broker's links to other brokers; Clients counts its
	// remaining peers. Clients are counted, never listed: a snapshot's
	// size follows the fleet, not the client population.
	Links   []TopLink `json:"links"`
	Clients int64     `json:"clients"`
	// Series carries every folded series: cumulative/latest value and
	// current rate (counters only).
	Series map[string]TopSeriesView `json:"series"`
	// Spark is the publish-rate sparkline history, oldest first.
	Spark []float64 `json:"spark"`
}

// TopLink is one broker link as its owner last reported it: the
// neighbour's name (its address, for a link dialed with -connect), the
// link's egress queue depth and its decaying offender score in
// thousandths.
type TopLink struct {
	Peer       string `json:"peer"`
	Queued     int64  `json:"egress_queue_depth"`
	ScoreMilli int64  `json:"offender_score_milli"`
}

// TopSeriesView is one series' folded state.
type TopSeriesView struct {
	Counter bool    `json:"counter"`
	Value   int64   `json:"value"`
	Rate    float64 `json:"rate,omitempty"`
}

// TopBoard is one point-in-time fleet view.
type TopBoard struct {
	AtNanos  int64           `json:"at_nanos"`
	Brokers  []TopBrokerView `json:"brokers"`
	Alerts   []TopAlert      `json:"alerts"`
	Episodes int             `json:"episodes"`
	// Fleet totals across live brokers.
	FleetPublishRate float64 `json:"fleet_publish_rate"`
	FleetEgressDepth int64   `json:"fleet_egress_depth"`
}

func (b *topBroker) stale(nowNanos int64) bool {
	iv := b.interval
	if iv <= 0 {
		iv = time.Second
	}
	return nowNanos-b.seenAt > staleAfterIntervals*int64(iv)
}

// Board snapshots the assembled fleet view. Brokers whose snapshots
// stopped arriving for staleAfterIntervals publisher intervals are
// marked stale and carry a synthesized heartbeat-absent alert — the
// subscriber-side absence detector a killed broker cannot suppress.
func (a *TopAssembler) Board() *TopBoard {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().UnixNano()
	board := &TopBoard{AtNanos: now}
	names := make([]string, 0, len(a.brokers))
	for n := range a.brokers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := a.brokers[n]
		v := TopBrokerView{
			Broker:      b.name,
			FabricEpoch: b.epoch,
			AtNanos:     b.atNanos,
			Stale:       b.stale(now),
			Series:      make(map[string]TopSeriesView, len(b.series)),
			Links:       append([]TopLink{}, b.links...),
		}
		for name, s := range b.series {
			sv := TopSeriesView{Counter: s.counter, Value: s.cum}
			if s.counter {
				sv.Rate = s.rate
			}
			v.Series[name] = sv
		}
		sort.Slice(v.Links, func(i, j int) bool { return v.Links[i].Peer < v.Links[j].Peer })
		if s := b.series["broker_published_total"]; s != nil {
			v.PublishRate = s.rate
			v.Spark = s.history(sparkSamples)
		}
		if s := b.series["broker_forwarded_total"]; s != nil {
			v.ForwardRate = s.rate
		}
		if s := b.series["broker_delivered_local_total"]; s != nil {
			v.DeliverRate = s.rate
		}
		if s := b.series["broker_egress_queue_depth"]; s != nil {
			v.EgressDepth = s.cum
		}
		if s := b.series["durable_replay_records_total"]; s != nil {
			v.ReplayRate = s.rate
		}
		if s := b.series["broker_peers"]; s != nil {
			v.Clients = s.cum - int64(len(b.links))
		}
		hits, misses := int64(0), int64(0)
		if s := b.series["guard_cache_hits_total"]; s != nil {
			hits = s.cum
		}
		if s := b.series["guard_cache_misses_total"]; s != nil {
			misses = s.cum
		}
		if hits+misses > 0 {
			v.GuardHitPct = 100 * float64(hits) / float64(hits+misses)
		}
		if !v.Stale {
			board.FleetPublishRate += v.PublishRate
			board.FleetEgressDepth += v.EgressDepth
		}
		board.Brokers = append(board.Brokers, v)

		ruleNames := make([]string, 0, len(b.alerts))
		for r := range b.alerts {
			ruleNames = append(ruleNames, r)
		}
		sort.Strings(ruleNames)
		for _, r := range ruleNames {
			al := b.alerts[r]
			board.Alerts = append(board.Alerts, TopAlert{
				Broker: b.name, Rule: al.Rule, Series: al.Series,
				Since: al.SinceNanos, Value: al.Value,
			})
		}
		if v.Stale {
			if b.absentSince == 0 {
				b.absentSince = now
			}
			since := b.absentSince
			a.episodes[fmt.Sprintf("%s|heartbeat-absent|%d", b.name, since)] = struct{}{}
			board.Alerts = append(board.Alerts, TopAlert{
				Broker: b.name, Rule: "heartbeat-absent", Series: "telemetry_snapshots",
				Since: since, Synthesized: true,
			})
		}
	}
	board.Episodes = len(a.episodes)
	return board
}

// WatchTelemetry connects to a broker, subscribes to the
// system-telemetry topic and feeds every snapshot to the assembler
// until the duration elapses, invoking onTick (nil-tolerant) every tick
// interval with the current board — the live half of `tracectl top`.
// One subscription anywhere sees every broker: the topic's Disseminate
// distribution propagates the snapshots network-wide.
func WatchTelemetry(tr transport.Transport, addr string, name ident.EntityID,
	d, tick time.Duration, a *TopAssembler, onTick func(*TopBoard)) error {
	cl, err := broker.Connect(tr, addr, name)
	if err != nil {
		return err
	}
	defer cl.Close()
	snaps := make(chan *message.TelemetrySnapshot, 256)
	err = cl.Subscribe(topic.SystemTelemetry(), func(env *message.Envelope) {
		if env.Type != message.TraceTelemetrySnapshot {
			return
		}
		ts, err := message.UnmarshalTelemetrySnapshot(env.Payload)
		if err != nil {
			return
		}
		select {
		case snaps <- ts:
		default:
		}
	})
	if err != nil {
		return err
	}
	if tick <= 0 {
		tick = time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	deadline := time.After(d)
	for {
		select {
		case ts := <-snaps:
			a.Ingest(ts)
		case <-ticker.C:
			if onTick != nil {
				onTick(a.Board())
			}
		case <-deadline:
			return nil
		}
	}
}

// RenderTop renders the board as the live console layout: one row per
// broker with its sparkline column, the fleet totals line, then the
// standing alerts.
func RenderTop(w io.Writer, b *TopBoard) {
	if len(b.Brokers) == 0 {
		fmt.Fprintln(w, "no telemetry snapshots observed")
		return
	}
	fmt.Fprintf(w, "%-18s %5s %8s %8s %8s %7s %6s  %s\n",
		"BROKER", "EPOCH", "PUB/s", "FWD/s", "DLV/s", "EGRESS", "GUARD%", "PUBLISH RATE")
	for _, v := range b.Brokers {
		state := ""
		if v.Stale {
			state = "  [STALE]"
		}
		fmt.Fprintf(w, "%-18s %5d %8.1f %8.1f %8.1f %7d %6.1f  %s%s\n",
			v.Broker, v.FabricEpoch, v.PublishRate, v.ForwardRate, v.DeliverRate,
			v.EgressDepth, v.GuardHitPct, sparkline(v.Spark), state)
	}
	fmt.Fprintf(w, "fleet: %d broker(s)  publish=%.1f/s  egress-depth=%d  episodes=%d\n",
		len(b.Brokers), b.FleetPublishRate, b.FleetEgressDepth, b.Episodes)
	for _, al := range b.Alerts {
		tag := "ALERT"
		if al.Synthesized {
			tag = "ALERT*"
		}
		fmt.Fprintf(w, "%-7s %s: %s on %s since %s value=%.1f\n",
			tag, al.Broker, al.Rule, al.Series,
			time.Unix(0, al.Since).UTC().Format(time.RFC3339), al.Value)
	}
}

// RenderMap renders the board as a topology map: every broker with its
// fabric share, its links to other brokers (queue depth and offender
// score each), its client count and rates, and the counts observed —
// folded from the deltas this subscription saw, so lifetime totals only
// for a broker whose first snapshot it caught.
func RenderMap(w io.Writer, b *TopBoard) {
	if len(b.Brokers) == 0 {
		fmt.Fprintln(w, "no telemetry snapshots observed")
		return
	}
	for _, v := range b.Brokers {
		total := func(series string) int64 { return v.Series[series].Value }
		state := ""
		if v.Stale {
			state = "  [STALE]"
		}
		fmt.Fprintf(w, "broker %s  subs=%d  clients=%d  pub=%.1f/s fwd=%.1f/s dlv=%.1f/s  flight-head=%d  at=%s%s\n",
			v.Broker, total("broker_subscriptions"), v.Clients, v.PublishRate, v.ForwardRate, v.DeliverRate,
			total("broker_flight_head"), time.Unix(0, v.AtNanos).UTC().Format(time.RFC3339Nano), state)
		if members := total("fabric_members"); members > 0 {
			fmt.Fprintf(w, "  fabric: epoch=%d members=%d owned=%d‰\n",
				v.FabricEpoch, members, total("fabric_owned_per_mille"))
		}
		for i, l := range v.Links {
			branch := "├─"
			if i == len(v.Links)-1 {
				branch = "└─"
			}
			fmt.Fprintf(w, "  %s %-16s queued=%d score=%.1f\n", branch, l.Peer, l.Queued, float64(l.ScoreMilli)/1000)
		}
		fmt.Fprintf(w, "  observed: published=%d forwarded=%d duplicates=%d violations=%d sheds=%d throttled=%d guard=%d/%d hit/miss\n",
			total("broker_published_total"), total("broker_forwarded_total"), total("broker_duplicates_total"),
			total("broker_violations_total"), total("broker_egress_sheds_total"), total("broker_publish_throttled_total"),
			total("guard_cache_hits_total"), total("guard_cache_misses_total"))
	}
}

// RenderTopJSON emits the board as one indented JSON document (the
// -format json form of both top and map, which the e2e suites assert
// against).
func RenderTopJSON(w io.Writer, b *TopBoard) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
