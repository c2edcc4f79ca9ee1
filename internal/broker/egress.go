package broker

import (
	"sync"
	"time"

	"entitytrace/internal/obs"
	"entitytrace/internal/transport"
)

// Coalescing counters, process-wide across broker instances.
var (
	mBatchSends  = obs.Default.Counter("broker_egress_batch_sends_total")
	mBatchFrames = obs.Default.Counter("broker_egress_batched_frames_total")
)

// egress is a peer's bounded outbound queue, drained by one dedicated
// writer goroutine, so a peer that stops reading stalls only its own
// writer — never the routing goroutine that fans a message out (the
// seed's synchronous per-peer send head-of-line-blocked every delivery
// behind the slowest subscriber).
//
// Two priority classes share the writer: control frames (ACK/DENY/SUB/
// DISCONNECT) always transmit before queued data frames, and are never
// shed. Data frames beyond the bound shed oldest-first — for an
// availability-tracking workload a fresher trace supersedes a staler
// one, so dropping from the head loses the least information.
type egress struct {
	conn transport.Conn
	// queued is the owning broker's queue-depth gauge (control and data
	// frames across its peers); nil for an egress no broker owns.
	queued *obs.Gauge

	// batchBytes > 0 enables drain coalescing: each writer pass packs as
	// many queued data frames as fit under the byte budget into
	// frameBatch frames (one, unless replay frames, which are never
	// packed, split it). Control frames are never batched.
	batchBytes int

	mu        sync.Mutex
	wake      chan struct{} // 1-buffered writer wakeup
	ctrl      [][]byte      // control frames: priority, never shed
	data      [][]byte      // data frames: bounded, shed oldest on overflow
	dataHead  int           // index of the logical head within data
	bound     int           // max queued data frames
	ctrlBound int           // max queued control frames (hopeless peer past it)
	// stalledSince is the time the data queue first overflowed and has
	// not recovered since; zero while healthy. The writer clears it when
	// the queue drains below half the bound (hysteresis, so a consumer
	// that trickle-reads without catching up still accumulates stall
	// time).
	stalledSince time.Time
	sheds        uint64
	closing      bool // flush remaining control frames, then close conn
	dead         bool // writer exited (send error or close)
}

// egressCtrlSlack is how many control frames beyond the data bound the
// control queue tolerates before the peer is declared hopeless.
const egressCtrlSlack = 64

func newEgress(conn transport.Conn, bound, batchBytes int) *egress {
	return &egress{
		conn:       conn,
		wake:       make(chan struct{}, 1),
		bound:      bound,
		ctrlBound:  bound + egressCtrlSlack,
		batchBytes: batchBytes,
	}
}

func (e *egress) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// enqueueCtrl queues a priority control frame. It reports false when the
// control queue itself is full — a peer that cannot even absorb control
// traffic is beyond rescue and should be closed by the caller.
func (e *egress) enqueueCtrl(frame []byte) bool {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return true // connection already torn down; nothing to escalate
	}
	if len(e.ctrl) >= e.ctrlBound {
		e.mu.Unlock()
		return false
	}
	e.ctrl = append(e.ctrl, frame)
	e.queued.Add(1)
	e.mu.Unlock()
	e.signal()
	return true
}

// enqueueData queues a data frame, shedding the oldest queued frame when
// the bound is hit. It returns the number of frames shed by this call
// (0 or 1) and, when the queue is saturated, how long it has
// continuously been so — the caller turns that into a slow-consumer
// eviction once it exceeds the deadline.
func (e *egress) enqueueData(frame []byte, now time.Time) (shed int, stalledFor time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead || e.closing {
		return 0, 0
	}
	if e.queuedData() >= e.bound {
		// Shed the oldest queued frame to admit the new one.
		e.data[e.dataHead] = nil
		e.dataHead++
		e.compact()
		e.sheds++
		shed = 1
		e.queued.Add(-1)
		if e.stalledSince.IsZero() {
			e.stalledSince = now
		}
		stalledFor = now.Sub(e.stalledSince)
	}
	e.data = append(e.data, frame)
	e.queued.Add(1)
	e.signal()
	return shed, stalledFor
}

// queuedData returns the number of live data frames. Callers hold e.mu.
func (e *egress) queuedData() int { return len(e.data) - e.dataHead }

// depth reports the current live data-frame count for health snapshots;
// safe from any goroutine.
func (e *egress) depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queuedData()
}

// compact reclaims the consumed prefix of the data slice once it grows
// past the live region. Callers hold e.mu.
func (e *egress) compact() {
	if e.dataHead > len(e.data)/2 && e.dataHead > 16 {
		n := copy(e.data, e.data[e.dataHead:])
		for i := n; i < len(e.data); i++ {
			e.data[i] = nil
		}
		e.data = e.data[:n]
		e.dataHead = 0
	}
}

// shedAll drops every queued data frame (eviction: the peer will never
// read them) and returns how many were dropped.
func (e *egress) shedAll() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.queuedData()
	e.data = nil
	e.dataHead = 0
	e.sheds += uint64(n)
	e.queued.Add(-int64(n))
	return n
}

// beginClose asks the writer to flush remaining control frames and then
// close the connection. Data frames are not flushed.
func (e *egress) beginClose() {
	e.mu.Lock()
	e.closing = true
	e.mu.Unlock()
	e.signal()
}

// unbatchedPassBytes is the byte budget of one writer pass when drain
// coalescing is off (batchBytes <= 0): what a pass takes off the queue
// is committed to the socket and can no longer be shed, so it stays
// bounded however deep the queue is.
const unbatchedPassBytes = 64 << 10

// popDataLocked removes the longest prefix of queued data frames that
// fits the pass byte budget (always at least one frame, even when that
// frame alone exceeds the budget) and the frame cap, and appends it to
// dst. Callers hold e.mu.
func (e *egress) popDataLocked(dst [][]byte) [][]byte {
	budget := e.batchBytes
	if budget <= 0 {
		budget = unbatchedPassBytes
	}
	size := 1 // frameBatch kind byte
	for n := 0; e.queuedData() > 0 && n < maxBatchFrames; n++ {
		f := e.data[e.dataHead]
		if n > 0 && size+4+len(f) > budget {
			break
		}
		size += 4 + len(f)
		dst = append(dst, f)
		e.data[e.dataHead] = nil
		e.dataHead++
	}
	e.compact()
	return dst
}

// appendCoalesced appends frames to pass in wire order with every run of
// two or more consecutive batchable frames packed into one frameBatch
// frame. A frameDurable frame is never packed — a batch carries plain
// envelope frames only (parseBatch rejects anything else, and the
// receiver would drop the whole batch) — so it travels as its own frame
// between the batches around it.
func appendCoalesced(pass, frames [][]byte) [][]byte {
	for len(frames) > 0 {
		n := 0
		for n < len(frames) && !(len(frames[n]) > 0 && frames[n][0] == frameDurable) {
			n++
		}
		if n < 2 { // a durable frame, or a lone batchable one: sent as it is
			pass = append(pass, frames[0])
			frames = frames[1:]
			continue
		}
		pass = append(pass, appendBatch(make([]byte, 0, batchWireSize(frames[:n])), frames[:n]))
		mBatchSends.Inc()
		mBatchFrames.Add(uint64(n))
		frames = frames[n:]
	}
	return pass
}

// die marks the writer dead, drops whatever is still queued and closes
// the connection. Callers hold e.mu; die releases it.
func (e *egress) die() {
	drop := int64(len(e.ctrl) + e.queuedData())
	e.ctrl, e.data, e.dataHead = nil, nil, 0
	e.dead = true
	e.mu.Unlock()
	e.queued.Add(-drop)
	e.conn.Close()
}

// run is the writer loop. It owns all sends for the peer, and each pass
// hands the transport everything sendable in one call: every queued
// control frame first, then queued data up to the pass budget — as
// plain frames, or with batching enabled coalesced into frameBatch
// frames — so a stream connection pays one write per pass, not per
// frame. The loop ends when the connection dies or beginClose has been
// honoured.
func (e *egress) run() {
	var pass, popped [][]byte // reused across passes
	for {
		e.mu.Lock()
		for len(e.ctrl) == 0 && e.queuedData() == 0 && !e.closing && !e.dead {
			e.mu.Unlock()
			<-e.wake
			e.mu.Lock()
		}
		if e.dead || (e.closing && len(e.ctrl) == 0) {
			e.die()
			return
		}
		pass = append(pass[:0], e.ctrl...)
		clear(e.ctrl)
		e.ctrl = e.ctrl[:0]
		consumed := int64(len(pass))
		// Closure flushes control frames only; data is dropped.
		if !e.closing && e.queuedData() > 0 {
			popped = e.popDataLocked(popped[:0])
			consumed += int64(len(popped))
			if e.batchBytes > 0 {
				pass = appendCoalesced(pass, popped)
			} else {
				pass = append(pass, popped...)
			}
			clear(popped)
		}
		e.mu.Unlock()

		err := transport.SendAll(e.conn, pass)
		clear(pass)

		e.mu.Lock()
		e.queued.Add(-consumed)
		if err != nil {
			e.die()
			return
		}
		// A completed send with the queue back under half the bound means
		// the consumer is draining again: clear the stall clock.
		if e.queuedData() <= e.bound/2 {
			e.stalledSince = time.Time{}
		}
		e.mu.Unlock()
	}
}
