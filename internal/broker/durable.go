package broker

import (
	"errors"
	"sync"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/durable"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
)

// errReplayFromLink names the protocol violation of a broker link
// sending a client-only REPLAY frame.
var errReplayFromLink = errors.New("broker: replay from broker link")

// This file wires the durable topic log (internal/durable) into the
// broker: constrained trace derivatives persist in the publish
// pipeline's persist stage before fan-out, and a client that sent
// REPLAY for a subscribed durable topic is served exclusively by a
// per-(peer,topic) pump goroutine that tails the log — catch-up and
// live delivery unified in one ordered, offset-annotated stream
// (frameDurable), with ack-cursor tracking and backoff-paced redelivery
// when acks stop arriving.
// PROTOCOL.md §3.8.

var (
	mDurableAppendErrs = obs.Default.Counter("durable_append_errors_total")
	mAckCursors        = obs.Default.Counter("durable_acks_total")
	mReplayCursors     = obs.Default.Gauge("durable_replay_cursors")
)

// Replay pump batch bounds: how much one wakeup reads from the log.
const (
	replayBatchRecords = 64
	replayBatchBytes   = 256 << 10
)

// redeliver paces per-cursor retransmission when a replay subscriber
// stops acking: first retransmit after 250ms without ack progress,
// backing off to 5s.
var redeliver = backoff.Config{
	Initial: 250 * time.Millisecond,
	Max:     5 * time.Second,
	Factor:  2,
	Jitter:  0.2,
}

// replayCursor is the per-(peer,topic) at-least-once delivery state: a
// pump goroutine tails the topic log from sent+1, annotating each
// record with its offset (frameDurable), while acks advance acked.
// When acks stall past the backoff deadline the pump rewinds sent to
// acked and retransmits.
type replayCursor struct {
	b  *Broker
	p  *peer
	ts string
	lg *durable.Log

	mu       sync.Mutex
	acked    uint64
	sent     uint64
	pol      *backoff.Policy
	deadline time.Time // zero when nothing is outstanding

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

func (b *Broker) newReplayCursor(p *peer, ts string, lg *durable.Log, since uint64) *replayCursor {
	return &replayCursor{
		b: b, p: p, ts: ts, lg: lg,
		acked: since, sent: since,
		pol:  backoff.New(redeliver),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
}

func (rc *replayCursor) stopNow() {
	rc.stopOnce.Do(func() { close(rc.stop) })
}

// ack advances the cursor from a ctrlAckCur frame.
func (rc *replayCursor) ack(offset uint64) {
	rc.mu.Lock()
	if offset > rc.acked {
		rc.acked = min(offset, rc.sent)
		rc.pol.Reset()
		if rc.acked == rc.sent {
			rc.deadline = time.Time{}
		} else {
			rc.deadline = rc.b.clk.Now().Add(rc.pol.Next())
		}
	}
	rc.mu.Unlock()
	select {
	case rc.kick <- struct{}{}:
	default:
	}
}

// run is the pump loop. It exits when the cursor is stopped (peer
// removal, unsubscribe, replacement) and is tracked on the broker's
// wait group so Close joins it.
func (rc *replayCursor) run() {
	defer rc.b.wg.Done()
	defer mReplayCursors.Add(-1)
	mReplayCursors.Add(1)
	for {
		// Capture the notify channel before reading Head so an append
		// between the two never goes unobserved.
		notify := rc.lg.Notify()
		rc.mu.Lock()
		sent := rc.sent
		rc.mu.Unlock()
		if head := rc.lg.Head(); sent < head {
			if !rc.pumpBatch(sent) {
				return
			}
			continue
		}
		rc.mu.Lock()
		deadline := rc.deadline
		rc.mu.Unlock()
		if !deadline.IsZero() {
			timer := rc.b.clk.NewTimer(deadline.Sub(rc.b.clk.Now()))
			select {
			case <-rc.stop:
				timer.Stop()
				return
			case <-notify:
				timer.Stop()
			case <-rc.kick:
				timer.Stop()
			case <-timer.C():
				rc.rewind()
			}
			continue
		}
		select {
		case <-rc.stop:
			return
		case <-notify:
		case <-rc.kick:
		}
	}
}

// pumpBatch reads and transmits one batch from sent+1. It returns
// false when the peer is gone and the pump should exit.
func (rc *replayCursor) pumpBatch(sent uint64) bool {
	recs, err := rc.lg.ReadFrom(sent+1, replayBatchRecords, replayBatchBytes)
	if err != nil || len(recs) == 0 {
		// A read error here means the log was closed under us
		// (broker shutdown) or the segment vanished to retention;
		// back off to the wait path either way.
		return err == nil
	}
	now := rc.b.clk.Now()
	for _, r := range recs {
		frame := make([]byte, 0, 1+8+1+len(r.Payload))
		frame = appendDurable(frame, r.Offset, nil)
		frame = append(frame, frameEnvelope)
		frame = append(frame, r.Payload...)
		// The payload is not parsed here, so a shed carries no trace ID.
		if !rc.b.enqueue(rc.p, frame, obs.FlightTrace{}, now) {
			return false
		}
		rc.b.m.replayRecords.Inc()
	}
	last := recs[len(recs)-1].Offset
	rc.mu.Lock()
	if last > rc.sent {
		rc.sent = last
	}
	if rc.deadline.IsZero() && rc.sent > rc.acked {
		rc.deadline = now.Add(rc.pol.Next())
	}
	rc.mu.Unlock()
	return !rc.p.closed.Load()
}

// rewind retransmits everything past the ack cursor: the deadline
// elapsed with no ack progress, so sent snaps back to acked and the
// pump re-reads the gap from the log. The backoff policy paces
// successive rewinds so a wedged-but-alive consumer is not flooded.
func (rc *replayCursor) rewind() {
	now := rc.b.clk.Now()
	rc.mu.Lock()
	if rc.acked < rc.sent && !rc.deadline.IsZero() && !now.Before(rc.deadline) {
		n := rc.sent - rc.acked
		rc.sent = rc.acked
		rc.deadline = now.Add(rc.pol.Next())
		rc.b.m.redeliveries.Add(n)
	}
	rc.mu.Unlock()
}

// cursorFor returns the peer's replay cursor for exact topic ts, nil
// if none. deliver consults it to skip live enqueueing: a cursored
// (peer,topic) receives every envelope from its pump, offset-annotated
// and in log order.
func (p *peer) cursorFor(ts string) *replayCursor {
	p.curMu.Lock()
	defer p.curMu.Unlock()
	return p.cursors[ts]
}

// setCursor installs (or replaces) the peer's cursor for ts.
func (p *peer) setCursor(ts string, rc *replayCursor) {
	p.curMu.Lock()
	old := p.cursors[ts]
	if p.cursors == nil {
		p.cursors = make(map[string]*replayCursor)
	}
	p.cursors[ts] = rc
	p.curMu.Unlock()
	p.hasCursors.Store(true)
	if old != nil {
		old.stopNow()
	}
}

// dropCursor stops and removes the cursor for ts, if any.
func (p *peer) dropCursor(ts string) {
	p.curMu.Lock()
	rc := p.cursors[ts]
	delete(p.cursors, ts)
	p.curMu.Unlock()
	if rc != nil {
		rc.stopNow()
	}
}

// stopCursors stops every pump for this peer (peer removal).
func (p *peer) stopCursors() {
	p.curMu.Lock()
	cursors := make([]*replayCursor, 0, len(p.cursors))
	for _, rc := range p.cursors {
		cursors = append(cursors, rc)
	}
	p.cursors = nil
	p.curMu.Unlock()
	for _, rc := range cursors {
		rc.stopNow()
	}
}

// handleReplay serves a client's ctrlReplay: validate, install a
// cursor at the client's since-offset, and start the pump. The client
// must already hold the (authorized) subscription — replay inherits
// its authorization — and links never replay: brokers forward live
// traffic, consumers own cursors.
func (b *Broker) handleReplay(p *peer, c *control) {
	if p.isBroker {
		b.punish(p, errReplayFromLink)
		return
	}
	if b.cfg.Durable == nil {
		b.deny(p, c.ID, "durable log not enabled")
		return
	}
	tp, err := topic.Parse(c.Topic)
	if err != nil {
		b.deny(p, c.ID, err.Error())
		b.punish(p, err)
		return
	}
	if !topic.IsTraceDerivative(tp) {
		b.deny(p, c.ID, "topic not durable")
		return
	}
	b.mu.RLock()
	_, subscribed := p.subs[c.Topic]
	b.mu.RUnlock()
	if !subscribed {
		b.deny(p, c.ID, "replay requires an active subscription")
		return
	}
	lg, err := b.cfg.Durable.Ensure(c.Topic)
	if err != nil {
		b.deny(p, c.ID, "durable log unavailable")
		b.log.Warn("durable ensure failed", "topic", c.Topic, "err", err)
		return
	}
	rc := b.newReplayCursor(p, c.Topic, lg, c.Cursor)
	p.setCursor(c.Topic, rc)
	b.wg.Add(1)
	go rc.run()
	b.ack(p, c.ID)
}

// handleAckCur advances a replay cursor from a ctrlAckCur frame.
// Unknown cursors are ignored: the ack may race an unsubscribe or a
// cursor replacement, neither of which is a protocol violation.
func (b *Broker) handleAckCur(p *peer, c *control) {
	rc := p.cursorFor(c.Topic)
	if rc == nil {
		return
	}
	mAckCursors.Inc()
	rc.ack(c.Cursor)
}
