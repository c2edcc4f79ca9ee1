package core

import (
	"sort"
	"sync"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/topic"
)

// This file is the broker-side half of the fleet telemetry plane
// (PROTOCOL.md §3.10), the one status stream a broker publishes: every
// telemetry tick the trace broker reads its hosting broker's health once,
// samples it (and the process registry) into a per-broker time-series
// store, runs the anomaly engine over it, digests its availability
// ledger, and publishes a delta-encoded TELEMETRY_SNAPSHOT on the
// system-telemetry topic — so one `tracectl top`, `map` or `avail`
// subscription anywhere assembles the whole fleet's live metrics,
// topology and entity availability.

// mTelemetrySnapshots counts published telemetry snapshots.
var mTelemetrySnapshots = obs.Default.Counter("core_telemetry_snapshots_total")

// telemetryPlane is one broker's telemetry state: its private store (the
// process registry is shared by every in-process broker, so broker-scoped
// series come from the broker's own registry via broker.Health), the
// alert engine, and the cumulative counter values as of the last
// published snapshot (the delta anchors).
type telemetryPlane struct {
	store  *timeseries.Store
	engine *timeseries.Engine

	mu   sync.Mutex
	last map[string]int64 // series -> cumulative value at last publish
}

// Telemetry returns the broker's time-series store (nil when telemetry
// is disabled); admin endpoints serve it.
func (tb *TraceBroker) Telemetry() *timeseries.Store {
	if tb.tel == nil {
		return nil
	}
	return tb.tel.store
}

// Alerts returns the broker's anomaly engine (nil when telemetry is
// disabled or no rules were configured).
func (tb *TraceBroker) Alerts() *timeseries.Engine {
	if tb.tel == nil {
		return nil
	}
	return tb.tel.engine
}

// telemetryRows turns one Health read of the hosting broker into the
// tick's rows, sorted by name, with the fabric epoch of the same read.
// Counters carry their cumulative values here; delta encoding happens at
// publish time. The rule is that a row's name is its /metrics name:
// every counter and gauge of the broker's own registry is a row, then
// the point-in-time gauges that no registry metric tracks, then one
// depth/score pair per broker link — links only, so a snapshot grows
// with the fleet, not with the client population — and the guard
// cache's two counters.
func (tb *TraceBroker) telemetryRows() ([]message.TelemetryRow, uint64) {
	h := tb.cfg.Broker.Health()
	var rows []message.TelemetryRow
	add := func(name string, counter bool, v int64) {
		rows = append(rows, message.TelemetryRow{Name: name, Counter: counter, Value: v})
	}
	link := "" // the neighbour the last two rows describe
	for _, p := range h.Peers {
		if !p.IsBroker {
			continue
		}
		score := int64(p.Score * 1000)
		if len(rows) > 0 && p.Name == link {
			// Two connections to one neighbour (both ends dialed at once)
			// are one link: depths add, the worse score stands. Peers are
			// sorted by name, so its rows are the last two.
			rows[len(rows)-2].Value += int64(p.Queued)
			rows[len(rows)-1].Value = max(rows[len(rows)-1].Value, score)
			continue
		}
		link = p.Name
		add(obs.WithLabel("broker_link_egress_queue_depth", "peer", link), false, int64(p.Queued))
		add(obs.WithLabel("broker_link_offender_score_milli", "peer", link), false, score)
	}
	for name, v := range h.Metrics.Counters {
		add(name, true, int64(v))
	}
	for name, v := range h.Metrics.Gauges {
		add(name, false, v)
	}
	add("broker_peers", false, int64(len(h.Peers)))
	add("broker_subscriptions", false, int64(h.Subscriptions))
	add("broker_sessions", false, int64(tb.SessionCount()))
	add("broker_flight_head", false, int64(h.FlightHead))
	add("fabric_epoch", false, int64(h.FabricEpoch))
	add("fabric_members", false, int64(h.FabricMembers))
	add("fabric_owned_per_mille", false, int64(h.FabricOwnedPerMille))
	if cache := tb.cfg.Guard.cache; cache != nil {
		add(guardCacheHitsName, true, int64(cache.hits.Value()))
		add(guardCacheMissesName, true, int64(cache.misses.Value()))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, h.FabricEpoch
}

// PublishTelemetry samples the broker into the store, evaluates the
// alert rules and the availability ledger's SLOs, and publishes one
// delta-encoded TELEMETRY_SNAPSHOT, with the ledger's rows, on the
// system-telemetry topic. Start schedules it every TelemetryInterval;
// tests and admin handlers may call it directly.
func (tb *TraceBroker) PublishTelemetry() {
	if tb.tel == nil {
		return
	}
	at := tb.clk.Now().UnixNano()
	rows, epoch := tb.telemetryRows()

	// The local store takes the broker's rows and then every process-wide
	// metric (ping RTTs, trace-manager and transport counters) no row
	// already supplied under the same name, so each series has exactly
	// one appender per tick. The process-wide ones never go on the wire.
	process := obs.Default.Snapshot()
	for _, r := range rows {
		kind := timeseries.Gauge
		if r.Counter {
			kind = timeseries.Counter
		}
		tb.tel.store.Series(r.Name, kind).Append(at, r.Value)
		delete(process.Counters, r.Name)
		delete(process.Gauges, r.Name)
	}
	tb.tel.store.AppendSnapshot(at, process)

	// Edges this tick plus the standing set: a firing edge is already in
	// Firing(), so the snapshot carries standing alerts and any clearing
	// edges; receivers dedupe episodes by (rule, since).
	var alerts []timeseries.Alert
	if tb.tel.engine != nil {
		edges := tb.tel.engine.Eval(at)
		alerts = tb.tel.engine.Firing()
		for _, a := range edges {
			if !a.Firing {
				alerts = append(alerts, a)
			}
		}
	}

	// Counters travel as deltas since the last published snapshot; a
	// fresh broker anchors at its current cumulative value.
	tb.tel.mu.Lock()
	for i := range rows {
		if r := &rows[i]; r.Counter {
			cum := r.Value
			r.Value -= tb.tel.last[r.Name]
			tb.tel.last[r.Name] = cum
		}
	}
	tb.tel.mu.Unlock()

	ts := &message.TelemetrySnapshot{
		Broker:         tb.cfg.Broker.Name(),
		AtNanos:        at,
		FabricEpoch:    epoch,
		IntervalMillis: uint32(tb.cfg.TelemetryInterval / time.Millisecond),
		Rows:           rows,
		Avail:          tb.avail.Digest(tb.cfg.Broker.Name()).Rows,
	}
	for _, a := range alerts {
		ts.Alerts = append(ts.Alerts, message.TelemetryAlert{
			Rule: a.Rule, Series: a.Series, Firing: a.Firing,
			SinceNanos: a.SinceNanos, Value: a.Value,
		})
	}

	env := message.New(message.TraceTelemetrySnapshot, topic.SystemTelemetry(), "", ts.Marshal())
	mTelemetrySnapshots.Inc()
	if err := tb.cfg.Broker.Publish(env); err != nil {
		tb.log.Warn("telemetry snapshot publish failed", "err", err)
	}
}
