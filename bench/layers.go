package main

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/obs"
)

// sessionLatSample mirrors message's sampling of the session-tag
// latency histograms: one shared tick counts every tag signed or
// verified, and each 64th operation lands in one of the two histograms.
const sessionLatSample = 64

// window brackets the saturated phase with the program's own counters:
// an obs.Default snapshot and runtime memory statistics at both ends.
type window struct {
	a, b       obs.Snapshot
	memA, memB runtime.MemStats
}

func (w *window) open() {
	runtime.ReadMemStats(&w.memA)
	w.a = obs.Default.Snapshot()
}

func (w *window) close() {
	w.b = obs.Default.Snapshot()
	runtime.ReadMemStats(&w.memB)
}

// counter is the growth of one counter over the window.
func (w *window) counter(name string) float64 {
	return float64(w.b.Counters[name] - w.a.Counters[name])
}

// family sums the growth of every label variant of a counter.
func (w *window) family(base string) float64 {
	var total float64
	for name, v := range w.b.Counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			total += float64(v - w.a.Counters[name])
		}
	}
	return total
}

// observations is the growth of a histogram's count.
func (w *window) observations(name string) float64 {
	return float64(w.b.Histograms[name].Count - w.a.Histograms[name].Count)
}

// workCounts turns the window into the per-delivered-trace work of each
// layer. traces is the deliveries the window covers.
func (w *window) workCounts(res *result, traces float64) {
	per := func(name string, total float64) { res.set(name, ratio(total, traces)) }

	per("secure.rsa_signs_per_trace", w.observations("envelope_sign_ms"))
	per("secure.rsa_verifies_per_trace", w.observations("envelope_verify_ms"))
	// Tag verifications are counted exactly; signings are what is left of
	// the sampled total (exact to within 64 operations).
	tagOps := sessionLatSample * (w.observations("envelope_session_sign_ms") + w.observations("envelope_session_verify_ms"))
	tagVerifies := w.counter("session_verify_hits_total")
	per("secure.session_signs_per_trace", math.Max(0, tagOps-tagVerifies))
	per("secure.session_verifies_per_trace", tagVerifies)

	hits, misses := w.counter("guard_cache_hits_total"), w.counter("guard_cache_misses_total")
	res.set("core.guard_cache_hit_ratio", ratio(hits, hits+misses))
	res.set("core.session_verify_unknown", w.counter("session_verify_unknown_total"))
	res.set("core.traces_dropped", w.family("traces_dropped_total"))
	res.set("core.traces_suppressed", w.family("traces_suppressed_total"))
	res.set("core.tracker_rejected", w.counter("tracker_rejected_total"))
	res.set("core.tracker_replay_dupes", w.counter("tracker_replay_dupes_total"))

	per("broker.published_per_trace", w.counter("broker_published_total"))
	per("broker.forwarded_per_trace", w.counter("broker_forwarded_total"))
	per("broker.duplicates_per_trace", w.counter("broker_duplicates_total"))
	res.set("broker.egress_frames_per_batch",
		ratio(w.counter("broker_egress_batched_frames_total"), w.counter("broker_egress_batch_sends_total")))
	res.set("broker.egress_sheds", w.counter("broker_egress_sheds_total"))
	res.set("broker.throttled", w.counter("broker_publish_throttled_total"))
	res.set("broker.violations", w.counter("broker_violations_total"))
	per("broker.fabric_forward_per_trace", w.counter("broker_fabric_forward_total"))
	per("broker.fabric_fanin_per_trace", w.counter("broker_fabric_fanin_total"))
	res.set("broker.fabric_no_route", w.counter("broker_fabric_no_route_total"))

	per("durable.appends_per_trace", w.counter("durable_appends_total"))
	per("durable.append_bytes_per_trace", w.counter("durable_append_bytes_total"))
	res.set("durable.fsyncs", w.counter("durable_fsyncs_total"))
	per("durable.replay_records_per_trace", w.counter("durable_replay_records_total"))
	per("durable.acks_per_trace", w.counter("durable_acks_total"))
	res.set("durable.redeliveries", w.counter("durable_redeliveries_total"))

	per("transport.bytes_out_per_trace", w.family("transport_bytes_out_total"))
	per("transport.messages_out_per_trace", w.family("transport_messages_out_total"))

	per("runtime.allocs_per_trace", float64(w.memB.Mallocs-w.memA.Mallocs))
	per("runtime.alloc_bytes_per_trace", float64(w.memB.TotalAlloc-w.memA.TotalAlloc))
	res.set("runtime.gc_pause_ms", float64(w.memB.PauseTotalNs-w.memA.PauseTotalNs)/1e6)
	res.set("runtime.heap_inuse_mb", float64(w.memB.HeapInuse)/(1<<20))
}

// depthSampler polls every broker's egress queues at 10 Hz: the deepest
// queue seen is the pipeline's waiting signal.
type depthSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int
}

func sampleDepth(brokers []*broker.Broker) *depthSampler {
	s := &depthSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for _, b := range brokers {
					for _, p := range b.Health().Peers {
						if p.Queued > s.max {
							s.max = p.Queued
						}
					}
				}
			}
		}
	}()
	return s
}

// deepest stops the sampler and returns the deepest queue it saw.
func (s *depthSampler) deepest() int {
	close(s.stop)
	s.wg.Wait()
	return s.max
}
