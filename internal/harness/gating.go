package harness

import (
	"fmt"
	"time"

	"entitytrace/internal/failure"
	"entitytrace/internal/topic"
)

// GatingResult quantifies the §3.5 claim that "traces are issued by a
// broker only if there are entities that are interested in receiving
// traces": broker publication counts over a fixed window with no
// trackers, with an interested tracker, and after interest expires.
type GatingResult struct {
	Phase     string
	Window    time.Duration
	Published uint64
	PerSecond float64
}

// RunInterestGating measures broker publications across three phases on
// one testbed: silent (no trackers), interested (one tracker wanting
// heartbeats), and withdrawn (the tracker stopped and its interest
// registration expired).
func RunInterestGating(window time.Duration) ([]GatingResult, error) {
	interestTTL := 300 * time.Millisecond
	tb, err := New(Options{
		Brokers:       1,
		GaugeInterval: 100 * time.Millisecond,
		InterestTTL:   interestTTL,
		Detector: failure.Config{
			BaseInterval:       25 * time.Millisecond,
			MinInterval:        10 * time.Millisecond,
			MaxInterval:        time.Second,
			ResponseTimeout:    200 * time.Millisecond,
			SuspicionThreshold: 5,
			FailureThreshold:   3,
			SuccessesPerRelax:  1 << 30,
		},
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	if _, err := tb.StartEntity("gating-entity", 0); err != nil {
		return nil, err
	}

	measure := func(phase string) GatingResult {
		before := tb.Brokers[0].Snapshot().Counters["broker_published_total"]
		time.Sleep(window)
		after := tb.Brokers[0].Snapshot().Counters["broker_published_total"]
		n := after - before
		return GatingResult{
			Phase:     phase,
			Window:    window,
			Published: n,
			PerSecond: float64(n) / window.Seconds(),
		}
	}

	var out []GatingResult
	// Phase 1: nobody is interested. Publications are limited to the
	// broker's own gauge probes.
	out = append(out, measure("no trackers"))

	// Phase 2: a tracker wants heartbeats. Interest renews on every
	// gauge probe, so it stays alive while the watch runs.
	h, err := tb.StartTracker("gating-tracker", 0, "gating-entity",
		topic.NewClassSet(topic.ClassAllUpdates))
	if err != nil {
		return nil, err
	}
	time.Sleep(200 * time.Millisecond) // let interest register
	out = append(out, measure("1 interested tracker"))

	// Phase 3: the tracker withdraws; after InterestTTL the broker
	// reverts to silence.
	h.Watch.Stop()
	time.Sleep(interestTTL + 2*tb.Opts.GaugeInterval)
	out = append(out, measure("tracker withdrawn, interest expired"))
	return out, nil
}

// String renders one row.
func (g GatingResult) String() string {
	return fmt.Sprintf("%-40s %6d msgs in %v (%.1f/s)", g.Phase, g.Published, g.Window, g.PerSecond)
}
