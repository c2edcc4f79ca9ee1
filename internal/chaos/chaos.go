// Package chaos is a deterministic, seedable fault-injection layer for
// transport.Transport. An Injector wraps a transport and applies a set
// of named faults — partitions (full or asymmetric), link flaps, frame
// duplication, reordering, byte corruption, latency and bandwidth caps —
// to every frame received over connections it created. All randomness
// derives from the injector seed and per-connection sequence numbers, so
// two runs with the same seed and the same connection/frame order render
// identical verdicts; the decision journal (Decisions, JournalDigest)
// lets tests assert exactly that.
//
// Faults fire only on the receive path, which keeps Send non-blocking for
// the caller: when both endpoints of a link share one injector-wrapped
// transport, each frame is judged exactly once — on the receiving side —
// regardless of direction.
package chaos

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/obs"
	"entitytrace/internal/transport"
)

// Metrics exposed on the process-wide obs registry.
var (
	mDropped    = obs.Default.Counter(obs.WithLabel("chaos_frames_total", "action", "dropped"))
	mDuplicated = obs.Default.Counter(obs.WithLabel("chaos_frames_total", "action", "duplicated"))
	mCorrupted  = obs.Default.Counter(obs.WithLabel("chaos_frames_total", "action", "corrupted"))
	mReordered  = obs.Default.Counter(obs.WithLabel("chaos_frames_total", "action", "reordered"))
	mDelayed    = obs.Default.Counter(obs.WithLabel("chaos_frames_total", "action", "delayed"))
	mFlaps      = obs.Default.Counter("chaos_flaps_total")
	mActive     = obs.Default.Gauge("chaos_faults_active")
)

// DefaultJournalSize bounds the decision journal ring.
const DefaultJournalSize = 4096

// Config configures an Injector.
type Config struct {
	// Seed drives every random decision. It is required and must be
	// non-zero: chaos runs are deterministic by construction, and an
	// implicit wall-clock seed would silently break replay.
	Seed int64
	// Clock supplies time for delays and timelines; nil means the real
	// clock. Tests pass clock.Fake to step through schedules.
	Clock clock.Clock
	// Log, when set, records every non-noop verdict at debug level.
	Log *slog.Logger
}

// Decision is one journaled fault verdict (or flap / timeline action).
type Decision struct {
	Seq    uint64 // monotone per injector
	Conn   uint64 // connection number: odd when dialed, even when accepted (0 for injector-level actions)
	Link   string // listener-side address of the connection
	Fault  string // fault slot name, or "flap"/"timeline"
	Action string // e.g. "drop", "dup+2", "corrupt", "hold", "delay=5ms"
}

func (d Decision) String() string {
	return fmt.Sprintf("#%d conn=%d link=%s fault=%s action=%s", d.Seq, d.Conn, d.Link, d.Fault, d.Action)
}

// Injector wraps a transport.Transport with fault injection.
type Injector struct {
	inner transport.Transport
	clk   clock.Clock
	seed  int64
	log   *slog.Logger

	mu     sync.Mutex
	faults []namedFault // sorted by name for deterministic application
	conns  map[*chaoticConn]struct{}
	// made counts connections per side, [0] dialed and [1] accepted, so
	// a connection's number and fault stream do not depend on whether a
	// dial or its matching accept is wrapped first.
	made     [2]uint64
	journal  []Decision
	jSeq     uint64
	jDropped uint64
}

type namedFault struct {
	name  string
	fault Fault
}

// New wraps inner with fault injection. The seed must be non-zero.
func New(inner transport.Transport, cfg Config) (*Injector, error) {
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("chaos: Config.Seed must be non-zero (explicit seeds keep runs reproducible)")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Injector{
		inner: inner,
		clk:   clk,
		seed:  cfg.Seed,
		log:   obs.OrDiscard(cfg.Log),
		conns: make(map[*chaoticConn]struct{}),
	}, nil
}

// Name implements transport.Transport.
func (inj *Injector) Name() string { return inj.inner.Name() + "+chaos" }

// Set installs (or replaces) the named fault. Faults apply to frames in
// lexicographic slot-name order, keeping composite schedules
// deterministic regardless of installation order.
func (inj *Injector) Set(name string, f Fault) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.faults {
		if inj.faults[i].name == name {
			inj.faults[i].fault = f
			return
		}
	}
	inj.faults = append(inj.faults, namedFault{name, f})
	sort.Slice(inj.faults, func(i, j int) bool { return inj.faults[i].name < inj.faults[j].name })
	mActive.Set(int64(len(inj.faults)))
}

// Clear removes the named fault; clearing an absent name is a no-op.
func (inj *Injector) Clear(name string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.faults {
		if inj.faults[i].name == name {
			inj.faults = append(inj.faults[:i], inj.faults[i+1:]...)
			break
		}
	}
	mActive.Set(int64(len(inj.faults)))
}

// ClearAll removes every fault.
func (inj *Injector) ClearAll() {
	inj.mu.Lock()
	inj.faults = nil
	inj.mu.Unlock()
	mActive.Set(0)
}

// Active returns the installed fault names in application order.
func (inj *Injector) Active() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]string, len(inj.faults))
	for i, nf := range inj.faults {
		out[i] = nf.name
	}
	return out
}

// Flap force-closes every live connection created through the injector
// and reports how many it closed. Persistent links and reconnecting
// sessions are expected to dial back in.
func (inj *Injector) Flap() int { return inj.flap("") }

// FlapLink force-closes the live connections on the link whose
// listener-side address is addr.
func (inj *Injector) FlapLink(addr string) int { return inj.flap(addr) }

func (inj *Injector) flap(addr string) int {
	inj.mu.Lock()
	victims := make([]*chaoticConn, 0, len(inj.conns))
	for c := range inj.conns {
		if addr == "" || c.link == addr {
			victims = append(victims, c)
		}
	}
	inj.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	if len(victims) > 0 {
		mFlaps.Add(uint64(len(victims)))
		inj.record(0, addr, "flap", fmt.Sprintf("closed=%d", len(victims)))
	}
	return len(victims)
}

// ConnCount reports the number of live connections.
func (inj *Injector) ConnCount() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.conns)
}

// Decisions returns a copy of the journaled decisions, oldest first
// (bounded by DefaultJournalSize; older entries may have been evicted).
func (inj *Injector) Decisions() []Decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Decision(nil), inj.journal...)
}

// JournalDigest folds every decision ever journaled (including evicted
// ones, via the running sequence number) into one FNV-1a digest. Two
// runs with the same seed and frame order produce equal digests.
func (inj *Injector) JournalDigest() uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d evicted=%d\n", inj.seed, inj.jDropped)
	for _, d := range inj.journal {
		fmt.Fprintln(h, d.String())
	}
	return h.Sum64()
}

func (inj *Injector) record(conn uint64, link, fault, action string) {
	inj.mu.Lock()
	d := Decision{Seq: inj.jSeq, Conn: conn, Link: link, Fault: fault, Action: action}
	inj.jSeq++
	if len(inj.journal) >= DefaultJournalSize {
		inj.journal = inj.journal[1:]
		inj.jDropped++
	}
	inj.journal = append(inj.journal, d)
	inj.mu.Unlock()
	inj.log.Debug("chaos verdict", "conn", conn, "link", link, "fault", fault, "action", action)
}

// snapshot returns the fault list for one frame evaluation.
func (inj *Injector) snapshot() []namedFault {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.faults
}

// Dial implements transport.Transport.
func (inj *Injector) Dial(addr string) (transport.Conn, error) {
	c, err := inj.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return inj.newConn(c, addr, false), nil
}

// Listen implements transport.Transport.
func (inj *Injector) Listen(addr string) (transport.Listener, error) {
	l, err := inj.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chaoticListener{Listener: l, inj: inj}, nil
}

func (inj *Injector) newConn(c transport.Conn, link string, accepted bool) *chaoticConn {
	side := uint64(0)
	if accepted {
		side = 1
	}
	inj.mu.Lock()
	inj.made[side]++
	id := 2*inj.made[side] - 1 + side
	cc := &chaoticConn{
		Conn:     c,
		inj:      inj,
		id:       id,
		link:     link,
		accepted: accepted,
		rng:      rand.New(rand.NewSource(splitmix64(uint64(inj.seed) ^ id))),
	}
	inj.conns[cc] = struct{}{}
	inj.mu.Unlock()
	return cc
}

func (inj *Injector) dropConn(cc *chaoticConn) {
	inj.mu.Lock()
	delete(inj.conns, cc)
	inj.mu.Unlock()
}

type chaoticListener struct {
	transport.Listener
	inj *Injector
}

func (l *chaoticListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.newConn(c, l.Addr(), true), nil
}

type chaoticConn struct {
	transport.Conn
	inj      *Injector
	id       uint64
	link     string // listener-side address of this connection's link
	accepted bool   // true when this end was produced by Accept
	rng      *rand.Rand

	closeOnce sync.Once

	// Receive-path state; Recv is single-goroutine per transport.Conn
	// contract, so no lock is needed.
	pending [][]byte // frames queued ahead of the next inner Recv
	held    [][]byte // frames stashed by Reorder verdicts
}

func (c *chaoticConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.inj.dropConn(c)
		err = c.Conn.Close()
	})
	return err
}

func (c *chaoticConn) Recv() ([]byte, error) {
	for {
		if len(c.pending) > 0 {
			f := c.pending[0]
			c.pending = c.pending[1:]
			return f, nil
		}
		frame, err := c.Conn.Recv()
		if err != nil {
			// Reordering is not loss: surface stashed frames before
			// the terminal error.
			if len(c.held) > 0 {
				f := c.held[0]
				c.held = c.held[1:]
				return f, nil
			}
			return nil, err
		}
		frame, delay, delivered := c.judge(frame)
		if !delivered {
			continue
		}
		if delay > 0 {
			c.inj.clk.Sleep(delay)
		}
		return frame, nil
	}
}

// judge runs the fault chain over one received frame. It returns the
// (possibly replaced) frame, an accumulated delivery delay, and whether
// the frame should be delivered now; duplicates and released held
// frames are queued onto c.pending.
func (c *chaoticConn) judge(frame []byte) ([]byte, time.Duration, bool) {
	ev := Event{
		Conn:       c.id,
		Link:       c.link,
		ToListener: c.accepted,
		Now:        c.inj.clk.Now(),
	}
	var (
		delay  time.Duration
		copies int
		hold   bool
	)
	for _, nf := range c.inj.snapshot() {
		ev.Frame = frame
		v := nf.fault.Apply(&ev, c.rng)
		switch {
		case v.Drop:
			mDropped.Add(1)
			c.inj.record(c.id, c.link, nf.name, "drop")
			return nil, 0, false
		case v.Frame != nil:
			frame = v.Frame
			mCorrupted.Add(1)
			c.inj.record(c.id, c.link, nf.name, "corrupt")
		}
		if v.Copies > 0 {
			copies += v.Copies
			mDuplicated.Add(uint64(v.Copies))
			c.inj.record(c.id, c.link, nf.name, fmt.Sprintf("dup+%d", v.Copies))
		}
		if v.Delay > 0 {
			delay += v.Delay
			mDelayed.Add(1)
			c.inj.record(c.id, c.link, nf.name, fmt.Sprintf("delay=%s", v.Delay))
		}
		if v.Hold {
			hold = true
			mReordered.Add(1)
			c.inj.record(c.id, c.link, nf.name, "hold")
		}
	}
	if hold {
		c.held = append(c.held, frame)
		return nil, 0, false
	}
	for i := 0; i < copies; i++ {
		c.pending = append(c.pending, append([]byte(nil), frame...))
	}
	// A delivered frame releases anything stashed behind it: the held
	// frames come out after it, i.e. reordered.
	if len(c.held) > 0 {
		c.pending = append(c.pending, c.held...)
		c.held = nil
	}
	return frame, delay, true
}

// splitmix64 scrambles a seed so per-connection RNG streams are
// decorrelated even for adjacent connection IDs.
func splitmix64(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}
