package core

import (
	"sync"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/topic"
)

// This file is the broker-side half of the fleet telemetry plane
// (PROTOCOL.md §3.10): every telemetry tick the trace broker samples its
// hosting broker's health into a per-broker time-series store, runs the
// anomaly engine over it, and publishes a delta-encoded
// TELEMETRY_SNAPSHOT on the system-telemetry topic — so one `tracectl
// top` subscription anywhere assembles the whole fleet's live metrics.
// Like the health and availability publishers, the topic is
// broker-constrained Publish-Only and non-derivative, so no token
// machinery applies; authenticity rests on broker-link trust.

// mTelemetrySnapshots counts published telemetry snapshots.
var mTelemetrySnapshots = obs.Default.Counter("core_telemetry_snapshots_total")

// telemetryPlane is one broker's telemetry state: its private store (the
// process registry is shared by every in-process broker, so broker-scoped
// series must come from broker.Health, not obs.Default), the alert
// engine, and the cumulative counter values as of the last published
// snapshot (the delta anchors).
type telemetryPlane struct {
	store  *timeseries.Store
	engine *timeseries.Engine

	mu   sync.Mutex
	last map[string]int64 // series -> cumulative value at last publish
}

// Telemetry returns the broker's time-series store (nil when telemetry
// is disabled); admin endpoints serve it and daemons may attach a
// registry sampler to it.
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

// telemetryLoop drives the telemetry cadence, mirroring healthLoop.
func (tb *TraceBroker) telemetryLoop() {
	clk := tb.cfg.Clock
	for {
		timer := clk.NewTimer(tb.cfg.TelemetryInterval)
		select {
		case <-timer.C():
		case <-tb.done:
			timer.Stop()
			return
		}
		tb.PublishTelemetry()
	}
}

// telemetrySample is one (name, kind, value) broker-health reading.
type telemetrySample struct {
	name    string
	counter bool
	value   int64
}

// sampleHealth derives the broker-scoped series from one Health
// snapshot. Counters carry their cumulative values here; delta encoding
// happens at publish time.
func (tb *TraceBroker) sampleHealth() []telemetrySample {
	h := tb.cfg.Broker.Health()
	st := h.Stats
	queued := 0
	for _, p := range h.Peers {
		queued += p.Queued
	}
	out := []telemetrySample{
		{"broker_published_total", true, int64(st.Published)},
		{"broker_delivered_local_total", true, int64(st.DeliveredLocal)},
		{"broker_forwarded_total", true, int64(st.Forwarded)},
		{"broker_duplicates_total", true, int64(st.Duplicates)},
		{"broker_violations_total", true, int64(st.Violations)},
		{"broker_disconnects_total", true, int64(st.Disconnects)},
		{"broker_expired_total", true, int64(st.Expired)},
		{"broker_egress_sheds_total", true, int64(st.EgressSheds)},
		{"broker_slow_consumer_evictions_total", true, int64(st.SlowConsumerEvictions)},
		{"broker_throttled_total", true, int64(st.Throttled)},
		{"broker_quarantine_rejects_total", true, int64(st.QuarantineRejects)},
		{"broker_replay_records_total", true, int64(st.ReplayRecords)},
		{"broker_redeliveries_total", true, int64(st.Redeliveries)},
		{"broker_egress_queue_depth", false, int64(queued)},
		{"broker_peers", false, int64(len(h.Peers))},
		{"broker_subscriptions", false, int64(h.Subscriptions)},
		{"broker_sessions", false, int64(tb.SessionCount())},
		{"broker_flight_head", false, int64(h.FlightHead)},
		{"fabric_epoch", false, int64(h.FabricEpoch)},
		{"fabric_members", false, int64(h.FabricMembers)},
		{"fabric_owned_per_mille", false, int64(h.FabricOwnedPerMille)},
	}
	if tb.cfg.Guard.cache != nil {
		cs := tb.cfg.Guard.cache.Stats()
		out = append(out,
			telemetrySample{"guard_hits_total", true, int64(cs.Hits)},
			telemetrySample{"guard_misses_total", true, int64(cs.Misses)},
		)
	}
	return out
}

// SampleTelemetry takes one broker-health sample into the store without
// publishing (tests and admin handlers may call it); it returns the
// samples it recorded.
func (tb *TraceBroker) SampleTelemetry() []telemetrySample {
	if tb.tel == nil {
		return nil
	}
	at := tb.cfg.Clock.Now().UnixNano()
	samples := tb.sampleHealth()
	for _, sm := range samples {
		kind := timeseries.Gauge
		if sm.counter {
			kind = timeseries.Counter
		}
		tb.tel.store.Series(sm.name, kind).Append(at, sm.value)
	}
	return samples
}

// PublishTelemetry samples broker health into the store, evaluates the
// alert rules, and publishes one delta-encoded TELEMETRY_SNAPSHOT on the
// system-telemetry topic. The telemetry loop calls it every tick; tests
// and admin handlers may call it directly.
func (tb *TraceBroker) PublishTelemetry() {
	if tb.tel == nil {
		return
	}
	now := tb.cfg.Clock.Now()
	samples := tb.SampleTelemetry()

	// Edges this tick plus the standing set: a firing edge is already in
	// Firing(), so the snapshot carries standing alerts and any clearing
	// edges; receivers dedupe episodes by (rule, since).
	var alerts []timeseries.Alert
	if tb.tel.engine != nil {
		edges := tb.tel.engine.Eval(now.UnixNano())
		alerts = tb.tel.engine.Firing()
		for _, a := range edges {
			if !a.Firing {
				alerts = append(alerts, a)
			}
		}
	}

	ts := &message.TelemetrySnapshot{
		Broker:         tb.cfg.Broker.Name(),
		AtNanos:        now.UnixNano(),
		IntervalMillis: uint32(tb.cfg.TelemetryInterval / time.Millisecond),
	}
	h := tb.cfg.Broker.Health()
	ts.FabricEpoch = h.FabricEpoch

	tb.tel.mu.Lock()
	for _, sm := range samples {
		v := sm.value
		if sm.counter {
			// Counters travel as deltas since the last published snapshot;
			// a fresh broker anchors at its current cumulative value.
			v -= tb.tel.last[sm.name]
			tb.tel.last[sm.name] = sm.value
		}
		ts.Rows = append(ts.Rows, message.TelemetryRow{Name: sm.name, Counter: sm.counter, Value: v})
	}
	tb.tel.mu.Unlock()

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
