package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one metric the binary emits. BENCHMARK.json lists the
// same names, units and directions (bench_test.go checks they agree).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a user of the system sees, gated. Two of ISSUE 13's
// six are reported per layer instead, ungated: failed_share is 0 on a
// healthy run, and a bound relative to 0 gates nothing (the result
// line's attempted/failed carry it); the tail percentile does not
// repeat within the largest bound BENCHMARK.json admits (README.md has
// the measured spreads).
var endToEnd = []metricDef{
	{"trace_latency_p50_ms", "ms", "lower", 0.25},
	{"traces_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_trace", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer groups: what every run measures beside the gated metrics,
// stage spans per delivery, work counts per delivered trace, call
// timings around public functions, and derived shares.
var perLayer = []metricDef{
	{"failed_share", "ratio", "lower", 0},
	{"trace_latency_p95_ms", "ms", "lower", 0},
	{"core.tracker_latency_p99_ms", "ms", "lower", 0},
	{"traces_per_s_mean", "1/s", "higher", 0},

	{"stage.entity_emit_us", "us", "lower", 0},
	{"stage.ingress_manager_us", "us", "lower", 0},
	{"stage.broker_path_us", "us", "lower", 0},
	{"stage.egress_tracker_us", "us", "lower", 0},
	{"stage.tracker_verify_us", "us", "lower", 0},
	{"stage.hops", "count", "lower", 0},
	{"stage.sum_ratio", "ratio", "higher", 0},

	{"secure.rsa_signs_per_trace", "count", "lower", 0},
	{"secure.rsa_verifies_per_trace", "count", "lower", 0},
	{"secure.session_signs_per_trace", "count", "lower", 0},
	{"secure.session_verifies_per_trace", "count", "lower", 0},
	{"core.guard_cache_hit_ratio", "ratio", "higher", 0},
	{"core.session_verify_unknown", "count", "lower", 0},
	{"core.traces_dropped", "count", "lower", 0},
	{"core.traces_suppressed", "count", "lower", 0},
	{"core.tracker_rejected", "count", "lower", 0},
	{"core.tracker_replay_dupes", "count", "lower", 0},
	{"broker.published_per_trace", "count", "lower", 0},
	{"broker.forwarded_per_trace", "count", "lower", 0},
	{"broker.duplicates_per_trace", "count", "lower", 0},
	{"broker.egress_frames_per_batch", "count", "higher", 0},
	{"broker.egress_sheds", "count", "lower", 0},
	{"broker.egress_queue_depth_max", "count", "lower", 0},
	{"broker.throttled", "count", "lower", 0},
	{"broker.violations", "count", "lower", 0},
	{"broker.fabric_forward_per_trace", "count", "lower", 0},
	{"broker.fabric_fanin_per_trace", "count", "lower", 0},
	{"broker.fabric_no_route", "count", "lower", 0},
	{"durable.appends_per_trace", "count", "lower", 0},
	{"durable.append_bytes_per_trace", "bytes", "lower", 0},
	{"durable.fsyncs", "count", "lower", 0},
	{"durable.replay_records_per_trace", "count", "lower", 0},
	{"durable.acks_per_trace", "count", "lower", 0},
	{"durable.redeliveries", "count", "lower", 0},
	{"transport.bytes_out_per_trace", "bytes", "lower", 0},
	{"transport.messages_out_per_trace", "count", "lower", 0},
	{"runtime.allocs_per_trace", "count", "lower", 0},
	{"runtime.alloc_bytes_per_trace", "bytes", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_mb", "MB", "lower", 0},
	{"gen.late_share", "ratio", "lower", 0},
	{"gen.max_late_ms", "ms", "lower", 0},

	{"secure.rsa_sign_us", "us", "lower", 0},
	{"secure.rsa_verify_us", "us", "lower", 0},
	{"secure.session_tag_sign_ns", "ns", "lower", 0},
	{"secure.session_tag_verify_ns", "ns", "lower", 0},
	{"core.guard_verify_uncached_us", "us", "lower", 0},
	{"core.guard_verify_cached_us", "us", "lower", 0},
	{"core.guard_session_verify_ns", "ns", "lower", 0},
	{"message.marshal_ns", "ns", "lower", 0},
	{"message.unmarshal_ns", "ns", "lower", 0},
	{"message.forward_frame_ns", "ns", "lower", 0},
	{"message.batch_parse_ns_per_env", "ns", "lower", 0},
	{"broker.route_ns_per_delivery", "ns", "lower", 0},
	{"broker.route_allocs_per_delivery", "count", "lower", 0},
	{"transport.tcp_roundtrip_us", "us", "lower", 0},
	{"transport.inproc_roundtrip_us", "us", "lower", 0},
	{"durable.append_ns", "ns", "lower", 0},
	{"durable.append_batch_ns_per_record", "ns", "lower", 0},
	{"durable.replay_ns_per_record", "ns", "lower", 0},
	{"fabric.route_ns", "ns", "lower", 0},
	{"avail.observe_ns", "ns", "lower", 0},
	{"credential.issue_ms", "ms", "lower", 0},
	{"core.entity_register_ms", "ms", "lower", 0},
	{"core.tracker_track_ms", "ms", "lower", 0},

	{"secure.busy_share", "ratio", "lower", 0},
	{"durable.busy_share", "ratio", "lower", 0},
	{"message.busy_share", "ratio", "lower", 0},
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// Problems lists every oracle check that failed.
	Problems []string
	// Values holds every metric measured, by name.
	Values map[string]float64
	// Samples is how many observations stand behind a metric.
	Samples map[string]int
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true, Values: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// set records a metric; a value that is not a number is a bench bug and
// fails the run rather than poisoning the JSON.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a number (no samples?)", name)
		v = 0
	}
	r.Values[name] = v
}

// stalled is the result of a workload whose child was killed by the
// watchdog: everything it attempted failed.
func stalled(workload string, why string) *result {
	r := newResult(workload)
	r.Attempted, r.Failed = 1, 1
	r.problem("%s", why)
	r.Values["failed_share"] = 1
	return r
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the last line of a run's standard output.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// line renders the result over the given metrics. A metric that was
// not measured is a bench bug and marks the line incorrect.
func (r *result) line(defs []metricDef) string {
	w := wireResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]wireMetric{}}
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok {
			w.Correct = false
		}
		w.Metrics[d.name] = wireMetric{Value: v, Unit: d.unit}
	}
	if w.Attempted < 1 {
		w.Attempted = 1
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // set() admits only finite numbers
	}
	return string(b)
}

// parseLine reads a child's result line back.
func parseLine(workload, line string) (*result, error) {
	var w wireResult
	if err := json.Unmarshal([]byte(line), &w); err != nil {
		return nil, fmt.Errorf("result line of %s: %w", workload, err)
	}
	r := newResult(workload)
	r.Correct, r.Attempted, r.Failed = w.Correct, w.Attempted, w.Failed
	for name, m := range w.Metrics {
		r.Values[name] = m.Value
	}
	return r, nil
}
