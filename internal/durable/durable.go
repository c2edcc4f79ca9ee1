// Package durable implements the broker's append-only, tamper-evident
// topic log: length-prefixed CRC-guarded records in segment files whose
// headers carry a SHA-256 hash chain (each segment's header stamps the
// chain hash of its predecessor's exact bytes). Constrained trace
// topics persist here before fan-out, giving the availability ledger a
// replayable ground truth that survives broker crashes. This extends
// the paper's §4 security story from messages-in-flight to
// messages-at-rest: the token guard keeps forged traces out of the
// log, and the hash chain makes after-the-fact alteration of the log
// detectable — recovery refuses a broken chain with a typed error
// instead of serving altered history.
package durable

import (
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"entitytrace/internal/obs"
)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncBatch group-commits: a background flusher syncs dirty
	// active segments every flushInterval (50ms). Appends survive
	// process death (SIGKILL) as soon as the write syscall returns; a
	// machine crash can lose at most one flush interval.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways syncs every append before acknowledging it.
	FsyncAlways
	// FsyncNever leaves syncing entirely to the kernel.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "batch"
	}
}

// ParseFsyncPolicy maps the -log-fsync flag values onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, bool) {
	switch s {
	case "batch", "":
		return FsyncBatch, true
	case "always":
		return FsyncAlways, true
	case "never":
		return FsyncNever, true
	}
	return FsyncBatch, false
}

// Options tune a Store. The zero value is usable.
type Options struct {
	// SegmentBytes rolls the active segment once it reaches this size.
	// Default 8 MiB. Rolling seals the segment (final fsync, index
	// write, chain hash) under the append lock, so undersized segments
	// turn a high-throughput topic into a disk-latency-bound one.
	SegmentBytes int64
	// Retention expires sealed segments whose newest record is older
	// than this. 0 keeps segments forever.
	Retention time.Duration
	// Fsync selects the durability/throughput trade-off.
	Fsync FsyncPolicy
	// Clock stamps records and drives retention; defaults to time.Now.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// flushInterval paces the FsyncBatch group commit; it bounds the window
// of appends a power failure can lose under that policy. At 50ms each
// commit writes one larger sequential chunk instead of scattering the
// disk with sub-writeback-sized syncs that stall the append path's
// buffer flushes (the usual WAL group-commit trade; process crashes are
// not the concern here — the kernel still holds every flushed append).
const flushInterval = 50 * time.Millisecond

// mFsyncLatency is process-wide: histograms of a child registry stay
// local to it.
var mFsyncLatency = obs.Default.Histogram("durable_fsync_latency_ms", nil)

// metrics are one store's counts, each declared once, under its /metrics
// name, on the store's child of obs.Default: one Add counts an event for
// this store and into the process-wide total of the same name (tests and
// benchmarks run several brokers, each with its own store, in one
// process).
type metrics struct {
	appends, appendBytes, sealed, deleted, truncatedBytes, recoveredRecords, fsyncs *obs.Counter
}

// init registers the process-wide counts at zero, so /metrics lists
// them in a process with no store open.
func init() { newMetrics(obs.Default) }

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		appends:          reg.Counter("durable_appends_total"),
		appendBytes:      reg.Counter("durable_append_bytes_total"),
		sealed:           reg.Counter("durable_segments_sealed_total"),
		deleted:          reg.Counter("durable_segments_deleted_total"),
		truncatedBytes:   reg.Counter("durable_truncated_bytes_total"),
		recoveredRecords: reg.Counter("durable_recovered_records_total"),
		fsyncs:           reg.Counter("durable_fsyncs_total"),
	}
}

// Stats is a point-in-time summary of what a store holds; its event
// counts are the durable_*_total counters.
type Stats struct {
	Topics   int    `json:"topics"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Fsync    string `json:"fsync_policy"`
}

// Store manages the per-topic logs under one directory. Each topic
// maps to a subdirectory named by URL path-escaping the topic string.
type Store struct {
	dir  string
	opts Options
	// reg is this store's child of obs.Default, m the counters on it.
	reg *obs.Registry
	m   metrics

	mu   sync.RWMutex
	logs map[string]*Log

	flushStop chan struct{}
	flushDone chan struct{}
	closed    bool
}

// Open opens (or creates) a store rooted at dir, recovering every
// topic log found there. It fails with an error satisfying
// errors.Is(err, ErrTampered) if any sealed segment fails
// verification — a tampered log must be refused, not served.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := obs.Default.Child()
	s := &Store{dir: dir, opts: opts, reg: reg, m: newMetrics(reg), logs: make(map[string]*Log)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		tp, err := url.PathUnescape(e.Name())
		if err != nil {
			continue
		}
		lg, err := s.openLog(filepath.Join(dir, e.Name()))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.logs[tp] = lg
	}
	if opts.Fsync == FsyncBatch {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// flusher is the FsyncBatch group-commit loop: one fsync per dirty log
// per interval amortizes stable-storage latency across every append in
// the window, and doubles as the retention sweep for quiet topics.
func (s *Store) flusher() {
	defer close(s.flushDone)
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	sweep := 0
	for {
		select {
		case <-s.flushStop:
			return
		case <-ticker.C:
			for _, lg := range s.snapshotLogs() {
				lg.Sync()
				if sweep == 0 {
					lg.Maintain()
				}
			}
			// Retention needs no millisecond cadence; sweep roughly
			// once a second.
			if sweep++; time.Duration(sweep)*flushInterval >= time.Second {
				sweep = 0
			}
		}
	}
}

func (s *Store) snapshotLogs() []*Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Log, 0, len(s.logs))
	for _, lg := range s.logs {
		out = append(out, lg)
	}
	return out
}

// Ensure returns the log for topic, creating an empty one if needed.
func (s *Store) Ensure(topic string) (*Log, error) {
	s.mu.RLock()
	lg, ok := s.logs[topic]
	s.mu.RUnlock()
	if ok {
		return lg, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lg, ok = s.logs[topic]; ok {
		return lg, nil
	}
	if s.closed {
		return nil, errors.New("durable: store closed")
	}
	lg, err := s.openLog(filepath.Join(s.dir, url.PathEscape(topic)))
	if err != nil {
		return nil, err
	}
	s.logs[topic] = lg
	return lg, nil
}

// Get returns the log for topic, nil if none exists yet.
func (s *Store) Get(topic string) *Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logs[topic]
}

// Append persists one record on topic and returns its offset.
func (s *Store) Append(topic string, payload []byte) (uint64, error) {
	lg, err := s.Ensure(topic)
	if err != nil {
		return 0, err
	}
	return lg.Append(payload)
}

// AppendBatch persists the payloads as consecutive records on topic and
// returns the offset of the last one. See Log.AppendBatch.
func (s *Store) AppendBatch(topic string, payloads [][]byte) (uint64, error) {
	lg, err := s.Ensure(topic)
	if err != nil {
		return 0, err
	}
	return lg.AppendBatch(payloads)
}

// Head returns the newest offset on topic, 0 when the topic has no log
// or no records.
func (s *Store) Head(topic string) uint64 {
	if lg := s.Get(topic); lg != nil {
		return lg.Head()
	}
	return 0
}

// Topics lists the topics with logs, sorted.
func (s *Store) Topics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.logs))
	for tp := range s.logs {
		out = append(out, tp)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes what the store holds.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{Topics: len(s.logs), Fsync: s.opts.Fsync.String()}
	logs := make([]*Log, 0, len(s.logs))
	for _, lg := range s.logs {
		logs = append(logs, lg)
	}
	s.mu.RUnlock()
	for _, lg := range logs {
		lg.mu.Lock()
		st.Segments += len(lg.segs)
		for _, seg := range lg.segs {
			st.Bytes += seg.size
		}
		lg.mu.Unlock()
	}
	return st
}

// Close flushes and closes every log.
func (s *Store) Close() { s.shutdown(true) }

// Crash closes every log without flushing, simulating abrupt process
// death for crash-recovery tests: only writes already handed to the
// kernel survive into the reopened store.
func (s *Store) Crash() { s.shutdown(false) }

func (s *Store) shutdown(sync bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	stop, done := s.flushStop, s.flushDone
	logs := make([]*Log, 0, len(s.logs))
	for _, lg := range s.logs {
		logs = append(logs, lg)
	}
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, lg := range logs {
		lg.close(sync)
	}
}
