package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"entitytrace/internal/core"
	"entitytrace/internal/sysinfo"
)

// Phases of one run. Warm-up and the saturated phase are closed loops
// (a fixed in-flight window per entity); the paced phase is an open
// loop on an absolute schedule.
const (
	phaseIdle uint8 = iota
	phaseWarm
	phasePaced
	phaseSaturated
)

const (
	// slotTimeout: a measured emission not delivered within this is a
	// failure and its window slot is released.
	slotTimeout = 2 * time.Second
	// warmTimeout is shorter: the first emissions are legitimately
	// dropped (interest not yet registered, session key not yet
	// distributed) and must not stall set-up.
	warmTimeout = 250 * time.Millisecond
	// warmDeliveries is how many verified deliveries every entity needs
	// before measurement starts.
	warmDeliveries = 50
	warmWindow     = 4
	// lateThreshold is the generator lag that counts as "late".
	lateThreshold = time.Millisecond
	sliceLen      = time.Second
	// satRamp is run, unmeasured, at the start of every saturated phase.
	satRamp = time.Second
)

// slot is one emission. The report's At identifies it at the tracker
// and is where its latency starts: ReportLoad carries the At the
// generator read just before the call (lo == hi); SetState stamps At
// inside the call, so the slot brackets it with clock reads taken
// before and after until the delivery tells the exact value.
type slot struct {
	lo, hi int64 // bounds on At, unix nanos; equal once delivered
	done   int64 // callback instant; 0 pending, -1 failed
	phase  uint8
}

// stamps are the span timestamps of one delivery, kept in memory on
// traced runs.
type stamps struct {
	hop0, manager, lastBroker, received int64
	hops                                int32
}

// track is the per-entity ledger of emissions. Only the owning
// generator appends; the tracker callback and the sweeper resolve.
type track struct {
	mu     sync.Mutex
	slots  []slot
	stamps []stamps // parallel to slots on traced runs
	head   int      // first unresolved slot
	round  int      // SetState alternation
	phase  uint8
	tokens chan int // closed-loop window releases for the current phase

	delivered, duplicates, unknown, lateDeliveries int
}

// planner turns the seed into the generator's choices: which owned
// entity fires a paced slot, and the load values reported.
type planner struct {
	rng   *rand.Rand
	owned []int
}

func newPlanner(seed int64, g int) *planner {
	return &planner{rng: rand.New(rand.NewSource(seed*int64(numGenerators) + int64(g))), owned: ownedBy(g)}
}

func (p *planner) entity() int { return p.owned[p.rng.Intn(len(p.owned))] }

func (p *planner) load(at int64) sysinfo.Load {
	const total = 16 << 30
	return sysinfo.Load{
		CPUPercent:       100 * p.rng.Float64(),
		MemoryUsedBytes:  uint64(p.rng.Int63n(total)),
		MemoryTotalBytes: total,
		Workload:         p.rng.Float64(),
		At:               time.Unix(0, at),
	}
}

// runner drives one workload in this process.
type runner struct {
	w      workload
	traced bool
	dep    *deployment
	tracks [numEntities]*track
	plans  [numGenerators]*planner

	delivered atomic.Int64 // verified deliveries matched to a slot

	lateCount, pacedCount int64 // paced-phase generator lag, merged after the phase
	maxLate               int64
}

func newRunner(w workload, seed int64, traced bool) *runner {
	r := &runner{w: w, traced: traced}
	for i := range r.tracks {
		r.tracks[i] = &track{}
	}
	for g := range r.plans {
		r.plans[g] = newPlanner(seed, g)
	}
	return r
}

// deliver is the tracker callback: it runs after verify, decode and
// ledger observe, which is where the paper's latency ends.
func (r *runner) deliver(e int, ev core.Event) {
	now := time.Now().UnixNano()
	var at int64
	switch {
	case ev.Load != nil:
		at = ev.Load.At
	case ev.State != nil:
		at = ev.State.At
	default:
		return
	}
	tr := r.tracks[e]
	tr.mu.Lock()
	defer tr.mu.Unlock()
	i := sort.Search(len(tr.slots), func(i int) bool { return tr.slots[i].lo > at }) - 1
	if i < 0 || at > tr.slots[i].hi {
		tr.unknown++
		return
	}
	s := &tr.slots[i]
	switch {
	case s.done > 0:
		tr.duplicates++
		return
	case s.done < 0:
		tr.lateDeliveries++
		return
	}
	s.lo, s.hi, s.done = at, at, now
	tr.delivered++
	r.delivered.Add(1)
	if r.traced {
		tr.stamps[i] = spanStamps(ev)
	}
	tr.release(e, s.phase)
}

// release returns a closed-loop window slot to the owning generator.
// Caller holds tr.mu. The channel holds a full window, so the send
// never blocks.
func (tr *track) release(e int, phase uint8) {
	if phase == tr.phase && tr.tokens != nil {
		tr.tokens <- e
	}
}

// spanStamps picks the stage boundaries out of the delivery's hops:
// hop 0 is the entity's own stamp (after marshal+sign), the next is the
// hosting broker's trace manager (after verifying the entity message
// and signing the trace), the last is the final broker on the path.
func spanStamps(ev core.Event) stamps {
	st := stamps{received: ev.ReceivedAt.UnixNano(), hops: int32(len(ev.Hops))}
	if n := len(ev.Hops); n >= 2 {
		st.hop0 = ev.Hops[0].AtNanos
		st.manager = ev.Hops[1].AtNanos
		st.lastBroker = ev.Hops[n-1].AtNanos
	}
	return st
}

// emit fires one report on entity e.
func (r *runner) emit(p *planner, e int, phase uint8) {
	tr := r.tracks[e]
	now := time.Now().UnixNano()
	s := slot{lo: now, hi: now, phase: phase}
	if r.w.state {
		s.hi = math.MaxInt64
	}
	tr.mu.Lock()
	i := len(tr.slots)
	tr.slots = append(tr.slots, s)
	if r.traced {
		tr.stamps = append(tr.stamps, stamps{})
	}
	round := tr.round
	tr.round++
	tr.mu.Unlock()

	var err error
	if r.w.state {
		err = r.dep.entities[e].SetState(core.StateForRound(round))
		after := time.Now().UnixNano()
		tr.mu.Lock()
		tr.slots[i].hi = after
		tr.mu.Unlock()
	} else {
		err = r.dep.entities[e].ReportLoad(p.load(now))
	}
	if err != nil {
		tr.mu.Lock()
		if tr.slots[i].done == 0 {
			tr.slots[i].done = -1
			tr.release(e, phase)
		}
		tr.mu.Unlock()
	}
}

// sweep resolves slots that have waited longer than timeout and reports
// whether every slot is resolved.
func (r *runner) sweep(timeout time.Duration) (idle bool) {
	now := time.Now().UnixNano()
	idle = true
	for e, tr := range r.tracks {
		tr.mu.Lock()
		for tr.head < len(tr.slots) {
			s := &tr.slots[tr.head]
			if s.done == 0 {
				if now-s.lo < int64(timeout) || s.hi == math.MaxInt64 {
					break
				}
				s.done = -1
				tr.release(e, s.phase)
			}
			tr.head++
		}
		if tr.head < len(tr.slots) {
			idle = false
		}
		tr.mu.Unlock()
	}
	return idle
}

// beginPhase opens a phase on every track. window > 0 makes it a closed
// loop and returns one token channel per generator, pre-filled with the
// window of each owned entity.
func (r *runner) beginPhase(phase uint8, window int) [numGenerators]chan int {
	var tokens [numGenerators]chan int
	for g := range tokens {
		owned := ownedBy(g)
		if window > 0 {
			tokens[g] = make(chan int, window*len(owned)) // a full window of every owned entity
		}
		for _, e := range owned {
			tr := r.tracks[e]
			tr.mu.Lock()
			tr.phase = phase
			tr.tokens = tokens[g]
			tr.mu.Unlock()
			for i := 0; i < window; i++ {
				tokens[g] <- e
			}
		}
	}
	return tokens
}

// drain waits until every emission is delivered or timed out.
func (r *runner) drain(timeout time.Duration) {
	for !r.sweep(timeout) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, tr := range r.tracks {
		tr.mu.Lock()
		tr.phase = phaseIdle
		tr.tokens = nil
		tr.mu.Unlock()
	}
}

// closedLoop runs generators that emit whenever a window slot frees,
// until stop returns true (polled by the controlling goroutine, which
// also sweeps timeouts and calls tick every pass).
func (r *runner) closedLoop(phase uint8, window int, timeout time.Duration, stop func() bool) {
	tokens := r.beginPhase(phase, window)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < numGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case e := <-tokens[g]:
					r.emit(r.plans[g], e, phase)
				case <-done:
					return
				}
			}
		}(g)
	}
	for !stop() {
		r.sweep(timeout)
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	r.drain(timeout)
}

// warmUp emits until every entity has warmDeliveries verified
// deliveries, or fails after limit.
func (r *runner) warmUp(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	timedOut := false
	r.closedLoop(phaseWarm, warmWindow, warmTimeout, func() bool {
		if time.Now().After(deadline) {
			timedOut = true
			return true
		}
		for _, tr := range r.tracks {
			tr.mu.Lock()
			n := tr.delivered
			tr.mu.Unlock()
			if n < warmDeliveries {
				return false
			}
		}
		return true
	})
	if timedOut {
		return fmt.Errorf("warm-up: not every entity reached %d deliveries within %v", warmDeliveries, limit)
	}
	return nil
}

// paced runs the open loop: emission k is due at start + k/rate,
// generator g takes every numGenerators-th, and each fires at its due
// time or, when behind, at once. Latency starts at the report's At (the
// call, not the due time: this host's timers tick at ~1 ms, so a
// due-time origin would measure the timer), and how far the generator
// ran behind its schedule is reported beside it.
func (r *runner) paced(length time.Duration) (start time.Time) {
	r.beginPhase(phasePaced, 0)
	interval := float64(time.Second) / float64(r.w.pacedRate)
	total := int(float64(length) / interval)
	start = time.Now().Add(10 * time.Millisecond)
	startNanos := start.UnixNano()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < numGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := r.plans[g]
			var late, n, maxLate int64
			for k := g; k < total; k += numGenerators {
				due := startNanos + int64(float64(k)*interval)
				if wait := due - time.Now().UnixNano(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				lag := time.Now().UnixNano() - due
				if lag > int64(lateThreshold) {
					late++
				}
				if lag > maxLate {
					maxLate = lag
				}
				n++
				r.emit(p, p.entity(), phasePaced)
			}
			mu.Lock()
			r.lateCount += late
			r.pacedCount += n
			if maxLate > r.maxLate {
				r.maxLate = maxLate
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	r.drain(slotTimeout)
	return start
}

// tick is one sample of the saturated phase's progress.
type tick struct {
	wall      int64 // unix nanos
	delivered int64
	cpuMicros int64 // process user+sys
}

func (r *runner) tick() tick {
	return tick{wall: time.Now().UnixNano(), delivered: r.delivered.Load(), cpuMicros: processCPUMicros()}
}

func processCPUMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
}

// saturated runs the closed loop for ramp+length and samples progress
// at every slice boundary after the ramp (the first second runs below
// the steady rate while queues and batches build up). It is a closed
// loop because an open loop past capacity would measure the brokers'
// egress shedding, not the pipeline.
func (r *runner) saturated(length time.Duration) []tick {
	var ticks []tick
	next := time.Now().Add(satRamp)
	end := next.Add(length)
	r.closedLoop(phaseSaturated, r.w.window, slotTimeout, func() bool {
		now := time.Now()
		if !now.Before(next) {
			ticks = append(ticks, r.tick())
			next = next.Add(sliceLen)
		}
		return !now.Before(end)
	})
	return ticks
}

// counts tallies the measured phases. Warm-up emissions are expected to
// drop and are not counted as emitted or failed; a duplicate or unknown
// delivery is wrong whenever it happens.
type counts struct {
	emitted, delivered, failed, duplicates, unknown int
}

func (r *runner) measuredCounts() counts {
	var c counts
	for _, tr := range r.tracks {
		tr.mu.Lock()
		for _, s := range tr.slots {
			if s.phase == phaseWarm {
				continue
			}
			c.emitted++
			if s.done > 0 {
				c.delivered++
			} else {
				c.failed++
			}
		}
		c.duplicates += tr.duplicates
		c.unknown += tr.unknown
		tr.mu.Unlock()
	}
	return c
}

// pacedSamples returns one latency sample (ms, At to callback) per
// delivered paced emission, plus the stage deltas on traced runs.
func (r *runner) pacedSamples(start time.Time) (lat []sample, st []stageSample) {
	origin := start.UnixNano()
	for _, tr := range r.tracks {
		tr.mu.Lock()
		for i, s := range tr.slots {
			if s.phase != phasePaced || s.done <= 0 {
				continue
			}
			lat = append(lat, sample{atNanos: s.lo - origin, value: float64(s.done-s.lo) / 1e6})
			if r.traced && tr.stamps[i].hops >= 2 {
				m := tr.stamps[i]
				st = append(st, stageSample{
					emit:    float64(m.hop0-s.lo) / 1e3,
					ingress: float64(m.manager-m.hop0) / 1e3,
					brokers: float64(m.lastBroker-m.manager) / 1e3,
					egress:  float64(m.received-m.lastBroker) / 1e3,
					verify:  float64(s.done-m.received) / 1e3,
					total:   float64(s.done-s.lo) / 1e3,
					hops:    float64(m.hops),
				})
			}
		}
		tr.mu.Unlock()
	}
	return lat, st
}

// stageSample is one delivery's stage table, microseconds.
type stageSample struct {
	emit, ingress, brokers, egress, verify, total, hops float64
}
