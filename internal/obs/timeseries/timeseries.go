// Package timeseries is the in-process metric history behind the fleet
// telemetry plane (PROTOCOL.md §3.10): a bounded, lock-light store of
// named series sampled from an obs.Registry on a ticker. Each series
// keeps its points in a fixed ring of compressed blocks — delta-of-delta
// timestamps and zigzag-varint values, the Gorilla/TSDB trick — at two
// resolutions: a fine ring (default 1 s step, 15 m retention) and a
// coarse downsampled ring (default 15 s step, 2 h retention) fed by the
// fine one at each coarse boundary. Steady-state appends write varints
// into preallocated block buffers and perform zero heap allocations.
//
// The package depends only on the standard library and internal/obs.
package timeseries

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"entitytrace/internal/obs"
)

// Kind distinguishes cumulative counters (rates are meaningful, resets
// re-anchor) from instantaneous gauges.
type Kind uint8

const (
	// Gauge samples are instantaneous values.
	Gauge Kind = iota
	// Counter samples are cumulative monotonic counts; a decrease means
	// the process restarted and consumers re-anchor instead of spiking.
	Counter
)

// String names the kind.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Options configures a Store's two retention rings.
type Options struct {
	// Step is the fine ring's expected sampling period (default 1s).
	Step time.Duration
	// Retention is how far back the fine ring reaches (default 15m).
	Retention time.Duration
	// CoarseStep is the downsampled ring's period (default 15s).
	CoarseStep time.Duration
	// CoarseRetention is the downsampled ring's reach (default 2h).
	CoarseRetention time.Duration
}

func (o *Options) setDefaults() {
	if o.Step <= 0 {
		o.Step = time.Second
	}
	if o.Retention <= 0 {
		o.Retention = 15 * time.Minute
	}
	if o.CoarseStep <= 0 {
		o.CoarseStep = 15 * time.Second
	}
	if o.CoarseRetention <= 0 {
		o.CoarseRetention = 2 * time.Hour
	}
}

// blockSamples is how many samples one compressed block holds. 128
// samples per block keeps the per-block decode cost trivial while the
// ring granularity (one block is overwritten at a time) stays well under
// a minute at the default 1 s step.
const blockSamples = 128

// block is one compressed run of samples. The first sample is held in
// the header fields; every later sample appends two zigzag varints
// (delta-of-delta timestamp, value delta) to buf, whose capacity is
// preallocated for the worst case so appends never grow it.
type block struct {
	buf          []byte
	n            int
	t0, v0       int64
	lastT, lastV int64
	prevDT       int64
}

func (b *block) reset() {
	b.buf = b.buf[:0]
	b.n = 0
}

func (b *block) append(t, v int64) {
	if b.n == 0 {
		b.t0, b.v0 = t, v
		b.lastT, b.lastV = t, v
		b.prevDT = 0
		b.n = 1
		return
	}
	dt := t - b.lastT
	b.buf = appendZigzag(b.buf, dt-b.prevDT)
	b.buf = appendZigzag(b.buf, v-b.lastV)
	b.prevDT = dt
	b.lastT, b.lastV = t, v
	b.n++
}

func (b *block) full() bool { return b.n >= blockSamples }

// Point is one decoded sample: a unix-nano timestamp and an integer
// value (gauges verbatim; counters cumulative).
type Point struct {
	T int64 `json:"t"`
	V int64 `json:"v"`
}

// decodeInto appends the block's samples to dst.
func (b *block) decodeInto(dst []Point) []Point {
	if b.n == 0 {
		return dst
	}
	dst = append(dst, Point{T: b.t0, V: b.v0})
	t, v := b.t0, b.v0
	var dt int64
	buf := b.buf
	for i := 1; i < b.n; i++ {
		dod, n := readZigzag(buf)
		buf = buf[n:]
		dv, n := readZigzag(buf)
		buf = buf[n:]
		dt += dod
		t += dt
		v += dv
		dst = append(dst, Point{T: t, V: v})
	}
	return dst
}

// appendZigzag appends v zigzag-encoded as a uvarint.
func appendZigzag(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64((v<<1)^(v>>63)))
}

// readZigzag decodes one zigzag uvarint, returning the value and the
// bytes consumed.
func readZigzag(buf []byte) (int64, int) {
	u, n := binary.Uvarint(buf)
	return int64(u>>1) ^ -int64(u&1), n
}

// ring is a fixed circle of blocks; when the current block fills, the
// oldest is reset and overwritten.
type ring struct {
	blocks []block
	cur    int
}

func newRing(samples int) *ring {
	n := (samples+blockSamples-1)/blockSamples + 1
	r := &ring{blocks: make([]block, n)}
	for i := range r.blocks {
		// Worst case per sample: two maximal varints.
		r.blocks[i].buf = make([]byte, 0, blockSamples*2*binary.MaxVarintLen64)
	}
	return r
}

func (r *ring) append(t, v int64) {
	if r.blocks[r.cur].full() {
		r.cur = (r.cur + 1) % len(r.blocks)
		r.blocks[r.cur].reset()
	}
	r.blocks[r.cur].append(t, v)
}

// decode returns every retained sample, oldest first.
func (r *ring) decode() []Point {
	var out []Point
	n := len(r.blocks)
	for i := 1; i <= n; i++ {
		out = r.blocks[(r.cur+i)%n].decodeInto(out)
	}
	return out
}

// oldest returns the earliest retained timestamp (0 when empty).
func (r *ring) oldest() int64 {
	n := len(r.blocks)
	for i := 1; i <= n; i++ {
		if b := &r.blocks[(r.cur+i)%n]; b.n > 0 {
			return b.t0
		}
	}
	return 0
}

// Series is one named metric's history at both resolutions. Appends
// take the series lock only; different series never contend.
type Series struct {
	name string
	kind Kind

	mu         sync.Mutex
	fine       *ring
	coarse     *ring
	coarseStep int64
	nextCoarse int64 // next coarse boundary, 0 before the first sample
	lastT      int64
	lastV      int64
	count      uint64
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the series kind.
func (s *Series) Kind() Kind { return s.kind }

// Append records one sample. Timestamps must be non-decreasing; a
// sample at or before the previous one is dropped (ticker jitter and
// restarts, not time travel). Steady-state appends allocate nothing.
func (s *Series) Append(tNanos, v int64) {
	s.mu.Lock()
	if s.count > 0 && tNanos <= s.lastT {
		s.mu.Unlock()
		return
	}
	// Downsample on boundary crossing: the coarse ring records the last
	// fine sample before each coarse boundary, so a coarse point is the
	// closing value of its bucket (counters: the cumulative count as of
	// the boundary; gauges: the last observed level).
	if s.nextCoarse == 0 {
		s.nextCoarse = (tNanos/s.coarseStep + 1) * s.coarseStep
	} else if tNanos >= s.nextCoarse {
		s.coarse.append(s.lastT, s.lastV)
		s.nextCoarse = (tNanos/s.coarseStep + 1) * s.coarseStep
	}
	s.fine.append(tNanos, v)
	s.lastT, s.lastV = tNanos, v
	s.count++
	s.mu.Unlock()
}

// Latest returns the most recent sample (zero Point when empty).
func (s *Series) Latest() Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Point{}
	}
	return Point{T: s.lastT, V: s.lastV}
}

// Query returns retained samples at or after sinceNanos, oldest first,
// thinned to at most one point per step (stepNanos <= 0 keeps the
// native resolution). The fine ring answers when it still reaches back
// to sinceNanos; older queries fall through to the coarse ring.
func (s *Series) Query(sinceNanos, stepNanos int64) []Point {
	s.mu.Lock()
	var pts []Point
	fineOldest := s.fine.oldest()
	if fineOldest != 0 && sinceNanos >= fineOldest {
		pts = s.fine.decode()
	} else {
		// Coarse boundary points at or after the fine ring's oldest sample
		// duplicate fine samples; keep only the older history so the merged
		// result stays sorted.
		for _, p := range s.coarse.decode() {
			if fineOldest == 0 || p.T < fineOldest {
				pts = append(pts, p)
			}
		}
		pts = append(pts, s.fine.decode()...)
	}
	s.mu.Unlock()
	kept := pts[:0]
	for _, p := range pts {
		if p.T >= sinceNanos {
			kept = append(kept, p)
		}
	}
	return alignStep(kept, stepNanos)
}

// alignStep keeps the last point of every step bucket.
func alignStep(pts []Point, step int64) []Point {
	if step <= 0 || len(pts) == 0 {
		return pts
	}
	out := pts[:0]
	for i, p := range pts {
		if i+1 < len(pts) && pts[i+1].T/step == p.T/step {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Store holds every series of one process (or one assembled fleet
// view). Series lookup is read-locked; callers on hot paths capture the
// *Series handle once.
type Store struct {
	opts Options

	mu     sync.RWMutex
	series map[string]*Series
}

// New creates a store with opts (zero-value fields take defaults).
func New(opts Options) *Store {
	opts.setDefaults()
	return &Store{opts: opts, series: make(map[string]*Series)}
}

// Options returns the store's resolved retention configuration.
func (st *Store) Options() Options { return st.opts }

// Series returns the series registered under name, creating it with
// the given kind on first use (an existing series keeps its kind).
func (st *Store) Series(name string, kind Kind) *Series {
	st.mu.RLock()
	s, ok := st.series[name]
	st.mu.RUnlock()
	if ok {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok = st.series[name]; ok {
		return s
	}
	fineSamples := int(st.opts.Retention / st.opts.Step)
	coarseSamples := int(st.opts.CoarseRetention / st.opts.CoarseStep)
	s = &Series{
		name:       name,
		kind:       kind,
		fine:       newRing(fineSamples),
		coarse:     newRing(coarseSamples),
		coarseStep: int64(st.opts.CoarseStep),
	}
	st.series[name] = s
	return s
}

// Get returns the series registered under name, or nil.
func (st *Store) Get(name string) *Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.series[name]
}

// Names returns every registered series name in lexical order.
func (st *Store) Names() []string {
	st.mu.RLock()
	names := make([]string, 0, len(st.series))
	for n := range st.series {
		names = append(names, n)
	}
	st.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Each calls f for every registered series in lexical name order.
func (st *Store) Each(f func(*Series)) {
	for _, n := range st.Names() {
		if s := st.Get(n); s != nil {
			f(s)
		}
	}
}

// FPoint is one rate sample: a unix-nano timestamp and a per-second
// floating-point rate.
type FPoint struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Rate converts cumulative counter points into per-second rates between
// consecutive samples. A negative delta means the counter reset (the
// process restarted mid-stream): the rate re-anchors at zero for that
// interval instead of spiking hugely negative or wrapping.
func Rate(pts []Point) []FPoint {
	if len(pts) < 2 {
		return nil
	}
	out := make([]FPoint, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T - pts[i-1].T
		if dt <= 0 {
			continue
		}
		dv := pts[i].V - pts[i-1].V
		if dv < 0 {
			dv = 0 // counter reset: re-anchor, don't spike
		}
		out = append(out, FPoint{T: pts[i].T, V: float64(dv) / (float64(dt) / 1e9)})
	}
	return out
}

// Sampler periodically copies an obs.Registry into a Store: counters
// and gauges verbatim under their registry names, histograms as a
// _count counter plus p50/p99 gauges in thousandths of the histogram's
// unit (so the default millisecond histograms yield microsecond series,
// suffixed _us).
type Sampler struct {
	reg      *obs.Registry
	store    *Store
	interval time.Duration
	now      func() time.Time

	mu   sync.Mutex
	done chan struct{}
	wg   sync.WaitGroup
}

// NewSampler builds a sampler feeding store from reg every interval.
func NewSampler(reg *obs.Registry, store *Store, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = store.opts.Step
	}
	return &Sampler{reg: reg, store: store, interval: interval, now: time.Now}
}

// Store returns the store the sampler feeds.
func (sm *Sampler) Store() *Store { return sm.store }

// Interval returns the sampling period.
func (sm *Sampler) Interval() time.Duration { return sm.interval }

// SampleOnce copies the registry's current values into the store at
// the given instant; the ticker loop calls it every interval and tests
// call it directly.
func (sm *Sampler) SampleOnce(now time.Time) {
	sm.store.AppendSnapshot(now.UnixNano(), sm.reg.Snapshot())
}

// AppendSnapshot appends one point at instant t (Unix nanos) to the
// series of every metric in snap, as the Sampler doc describes.
func (st *Store) AppendSnapshot(t int64, snap obs.Snapshot) {
	for name, v := range snap.Counters {
		st.Series(name, Counter).Append(t, int64(v))
	}
	for name, v := range snap.Gauges {
		st.Series(name, Gauge).Append(t, v)
	}
	for name, h := range snap.Histograms {
		st.Series(name+"_count", Counter).Append(t, int64(h.Count))
		if h.Count == 0 {
			continue
		}
		p50, p99 := histQuantileNames(name)
		st.Series(p50, Gauge).Append(t, int64(h.P50*1000))
		st.Series(p99, Gauge).Append(t, int64(h.P99*1000))
	}
}

// histQuantileNames derives the quantile series names for histogram
// name: millisecond histograms (the repo convention, suffix _ms) yield
// _p50_us/_p99_us microsecond series; anything else gets a _x1000
// fixed-point marker.
func histQuantileNames(name string) (p50, p99 string) {
	if base, ok := strings.CutSuffix(name, "_ms"); ok {
		return base + "_p50_us", base + "_p99_us"
	}
	return name + "_p50_x1000", name + "_p99_x1000"
}

// Start launches the ticker loop.
func (sm *Sampler) Start() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.done != nil {
		return
	}
	sm.done = make(chan struct{})
	done := sm.done
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		tick := time.NewTicker(sm.interval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				sm.SampleOnce(now)
			case <-done:
				return
			}
		}
	}()
}

// Stop halts the ticker loop and waits for it to exit.
func (sm *Sampler) Stop() {
	sm.mu.Lock()
	done := sm.done
	sm.done = nil
	sm.mu.Unlock()
	if done != nil {
		close(done)
		sm.wg.Wait()
	}
}

// ParseRetention parses a "fine@step/coarse@step" retention flag, e.g.
// "15m@1s/2h@15s", into Options. An empty string returns defaults.
func ParseRetention(s string) (Options, error) {
	var o Options
	if s == "" {
		o.setDefaults()
		return o, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return o, fmt.Errorf("timeseries: retention %q: want fine@step/coarse@step", s)
	}
	var err error
	if o.Retention, o.Step, err = parseRetPart(parts[0]); err != nil {
		return o, err
	}
	if o.CoarseRetention, o.CoarseStep, err = parseRetPart(parts[1]); err != nil {
		return o, err
	}
	o.setDefaults()
	return o, nil
}

func parseRetPart(s string) (ret, step time.Duration, err error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("timeseries: retention part %q: want retention@step", s)
	}
	if ret, err = time.ParseDuration(s[:at]); err != nil {
		return 0, 0, fmt.Errorf("timeseries: retention part %q: %w", s, err)
	}
	if step, err = time.ParseDuration(s[at+1:]); err != nil {
		return 0, 0, fmt.Errorf("timeseries: retention part %q: %w", s, err)
	}
	if ret <= 0 || step <= 0 || ret < step {
		return 0, 0, fmt.Errorf("timeseries: retention part %q: retention must cover at least one step", s)
	}
	return ret, step, nil
}
