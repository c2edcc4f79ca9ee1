package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/obs"
)

// setups is how many times a run builds and warms up the system under
// test. RSA key generation is a random search, so one set-up time says
// little: setup_s is the median of these. Only the last system is
// measured; the earlier ones are torn down as soon as they are warm.
const setups = 3

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   int64
	paced  time.Duration
	sat    time.Duration
	traced bool
	tmpDir string // durable logs go here and are removed
	outDir string // traced runs write their spans here when set
}

// setupTimes are the set-up calls timed around the harness while the
// systems under test are built.
type setupTimes struct {
	issueMs, registerMs, trackMs []float64
}

// setUp builds the system setups times and returns the last one, warm,
// with the time each took from nothing to ready for a measured emit.
func setUp(cfg runConfig, times *setupTimes) (*runner, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		start := time.Now()
		r := newRunner(cfg.w, cfg.seed, cfg.traced)
		dep, err := deploy(cfg.w, cfg.tmpDir, times, r.deliver)
		if err != nil {
			return nil, nil, err
		}
		r.dep = dep
		if err := r.warmUp(30 * time.Second); err != nil {
			dep.close()
			return nil, nil, err
		}
		secs = append(secs, (time.Since(start) - dep.discarded).Seconds())
		if i == setups-1 {
			return r, secs, nil
		}
		dep.close()
	}
}

// runWorkload builds the system, measures both phases, checks the
// outputs and fills in a result. An error means the run could not be
// made at all (set-up failed); a wrong output is a Problem on the
// result.
func runWorkload(cfg runConfig) (*result, error) {
	res := newResult(cfg.w.name)
	base := obs.Default.Snapshot()
	var times setupTimes
	r, setupSecs, err := setUp(cfg, &times)
	if err != nil {
		return nil, err
	}
	defer r.dep.close()
	res.set("setup_s", median(setupSecs))
	res.Samples["setup_s"] = len(setupSecs)

	pacedStart := r.paced(cfg.paced)

	var depth *depthSampler
	var win window
	before := r.delivered.Load()
	if cfg.traced {
		depth = sampleDepth(r.dep.tb.Brokers)
		win.open()
	}
	ticks := r.saturated(cfg.sat)
	if cfg.traced {
		win.close()
		res.set("broker.egress_queue_depth_max", float64(depth.deepest()))
	}
	winDelivered := r.delivered.Load() - before

	r.oracle(res)
	provePath(res, cfg.w, base)
	res.set("failed_share", res.failedShare())

	// Latency: the quiet value over 1-s slices of the slice's median and
	// p95 (a p95 wants ten samples beyond it, so 200 in the slice); p99
	// over all samples.
	lat, stages := r.pacedSamples(pacedStart)
	p50, _ := sliceStat(lat, int64(sliceLen), 0.50, 200)
	p95, _ := sliceStat(lat, int64(sliceLen), 0.95, 200)
	all := make([]float64, len(lat))
	for i, s := range lat {
		all[i] = s.value
	}
	res.set("trace_latency_p50_ms", p50)
	res.set("trace_latency_p95_ms", p95)
	res.set("core.tracker_latency_p99_ms", percentile(all, 0.99))
	res.Samples["trace_latency_p50_ms"] = len(lat)
	res.Samples["trace_latency_p95_ms"] = len(lat)
	res.Samples["core.tracker_latency_p99_ms"] = len(lat)

	// Capacity and cost: the quiet value over the saturated phase's 1-s
	// slices, and the plain mean rate beside it, which a periodic stall
	// lowers and the quiet value does not.
	var rates, costs []float64
	var wall float64 // seconds
	delivered := 0
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		n := float64(b.delivered - a.delivered)
		dt := float64(b.wall-a.wall) / 1e9
		rates = append(rates, n/dt)
		wall += dt
		if n > 0 {
			costs = append(costs, float64(b.cpuMicros-a.cpuMicros)/n)
		}
		delivered += int(n)
	}
	res.set("traces_per_s", quiet(rates, false))
	res.set("cpu_us_per_trace", quiet(costs, true))
	res.set("traces_per_s_mean", ratio(float64(delivered), wall))
	res.Samples["traces_per_s"] = delivered
	res.Samples["cpu_us_per_trace"] = delivered

	if !cfg.traced {
		return res, nil
	}
	stageTable(res, stages)
	res.set("gen.late_share", ratio(float64(r.lateCount), float64(r.pacedCount)))
	res.set("gen.max_late_ms", float64(r.maxLate)/1e6)
	win.workCounts(res, float64(winDelivered))
	res.set("credential.issue_ms", median(times.issueMs))
	res.set("core.entity_register_ms", median(times.registerMs))
	res.set("core.tracker_track_ms", median(times.trackMs))
	if cfg.outDir != "" {
		if err := writeSpans(cfg.outDir, cfg.w.name, r); err != nil {
			return nil, err
		}
	}

	// The call timings want the process to themselves.
	r.dep.close()
	if err := callTimings(res, cfg.tmpDir); err != nil {
		return nil, fmt.Errorf("call timings: %w", err)
	}
	busyShares(res)
	return res, nil
}

// oracle checks the run's outputs: what the trackers delivered is
// what was emitted, once each; nothing was rejected; every ledger ends
// up.
func (r *runner) oracle(res *result) {
	c := r.measuredCounts()
	rejected := 0
	for e, w := range r.dep.watches {
		rejected += int(w.Rejected())
		st, ok := r.dep.ledgers[trackerOf(e)].State(r.dep.names[e])
		if !ok || st != avail.Up {
			res.problem("ledger of tracker %d holds entity %d as %v, want UP", trackerOf(e), e, st)
		}
	}
	res.Attempted = c.emitted
	res.Failed = c.failed + c.duplicates + c.unknown + rejected
	if c.duplicates > 0 {
		res.problem("%d duplicate deliveries", c.duplicates)
	}
	if c.unknown > 0 {
		res.problem("%d deliveries of reports never emitted", c.unknown)
	}
	if rejected > 0 {
		res.problem("trackers rejected %d traces", rejected)
	}
	if c.emitted == 0 || c.delivered == 0 {
		res.problem("nothing measured: %d emitted, %d delivered", c.emitted, c.delivered)
	}
}

// provePath checks that the run (set-up included) exercised the path
// its workload claims, and no other.
func provePath(res *result, w workload, base obs.Snapshot) {
	snap := obs.Default.Snapshot()
	prove := func(counter string, want bool) {
		n := snap.Counters[counter] - base.Counters[counter]
		if (n > 0) != want {
			res.problem("%s grew by %d: this workload wants it nonzero=%v", counter, n, want)
		}
	}
	prove("session_verify_hits_total", w.opts.SessionKeys)
	prove("durable_appends_total", w.durable)
	prove("broker_fabric_forward_total", w.opts.Fabric)
}

// stageTable reports the median of each stage over the paced phase's
// deliveries, and how close the stage medians come to the median
// latency of the same deliveries.
func stageTable(res *result, stages []stageSample) {
	col := func(get func(stageSample) float64) float64 {
		vals := make([]float64, len(stages))
		for i, s := range stages {
			vals[i] = get(s)
		}
		return median(vals)
	}
	emit := col(func(s stageSample) float64 { return s.emit })
	ingress := col(func(s stageSample) float64 { return s.ingress })
	brokers := col(func(s stageSample) float64 { return s.brokers })
	egress := col(func(s stageSample) float64 { return s.egress })
	verify := col(func(s stageSample) float64 { return s.verify })
	total := col(func(s stageSample) float64 { return s.total })
	res.set("stage.entity_emit_us", emit)
	res.set("stage.ingress_manager_us", ingress)
	res.set("stage.broker_path_us", brokers)
	res.set("stage.egress_tracker_us", egress)
	res.set("stage.tracker_verify_us", verify)
	res.set("stage.hops", col(func(s stageSample) float64 { return s.hops }))
	res.set("stage.sum_ratio", ratio(emit+ingress+brokers+egress+verify, total))
	res.Samples["stage.sum_ratio"] = len(stages)
}

// busyShares prices each layer's counted work at its timed call cost
// and divides by the measured CPU per trace: which layer does most of
// the work on this workload, as a number.
func busyShares(res *result) {
	v := res.Values
	cpu := v["cpu_us_per_trace"] * 1e3 // ns
	secureNs := v["secure.rsa_signs_per_trace"]*v["secure.rsa_sign_us"]*1e3 +
		v["secure.rsa_verifies_per_trace"]*v["secure.rsa_verify_us"]*1e3 +
		v["secure.session_signs_per_trace"]*v["secure.session_tag_sign_ns"] +
		v["secure.session_verifies_per_trace"]*v["secure.session_tag_verify_ns"]
	durableNs := v["durable.appends_per_trace"]*v["durable.append_ns"] +
		v["durable.replay_records_per_trace"]*v["durable.replay_ns_per_record"]
	// Every envelope a broker publishes or forwards was parsed on the
	// way in and framed on the way out.
	envelopes := v["broker.published_per_trace"] + v["broker.forwarded_per_trace"]
	messageNs := envelopes * (v["message.unmarshal_ns"] + v["message.forward_frame_ns"])
	res.set("secure.busy_share", ratio(secureNs, cpu))
	res.set("durable.busy_share", ratio(durableNs, cpu))
	res.set("message.busy_share", ratio(messageNs, cpu))
}

// writeSpans writes one line per delivered paced emission: the entity,
// the report's At and every stage boundary, in unix nanoseconds.
func writeSpans(dir, workload string, r *runner) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "entity,at,entity_hop,manager_hop,last_broker_hop,tracker_received,callback,hops")
	for e, tr := range r.tracks {
		tr.mu.Lock()
		for i, s := range tr.slots {
			if s.phase != phasePaced || s.done <= 0 {
				continue
			}
			m := tr.stamps[i]
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n", e, s.lo, m.hop0, m.manager, m.lastBroker, m.received, s.done, m.hops)
		}
		tr.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
