package durable

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// writerBufBytes sizes the active segment's write buffer: appends are
// memcpys into it and the write syscall is paid once per buffer-full
// (or at the next sync/read/seal), which keeps the serialized section
// of the publish path short.
const writerBufBytes = 64 << 10

// ErrTampered is the sentinel wrapped by every integrity refusal: a
// sealed segment whose bytes no longer hash to the chain value its
// successor recorded, a corrupt record inside a sealed segment, or a
// gap in the offset sequence. Recovery never repairs these — the log
// is evidence, and a broken chain means the evidence was altered.
var ErrTampered = errors.New("durable: log tampered")

// CorruptError reports where and why recovery refused a log.
type CorruptError struct {
	Path   string // offending segment file
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: %s: %s", e.Path, e.Detail)
}

// Unwrap ties every CorruptError to the ErrTampered sentinel so
// callers can errors.Is against one value.
func (e *CorruptError) Unwrap() error { return ErrTampered }

// Record is one replayable entry of a topic log.
type Record struct {
	Offset  uint64
	At      int64 // append wall-clock, unix nanoseconds
	Payload []byte
}

// segment is one on-disk segment of a topic log.
type segment struct {
	base   uint64
	path   string
	pos    []uint32 // record start positions, in file order
	size   int64
	lastAt int64    // newest record timestamp, for time retention
	f      *os.File // active: O_RDWR append handle; sealed: lazy RO handle
	sealed bool
}

func (s *segment) count() uint64 { return uint64(len(s.pos)) }

// Log is the append-only, hash-chained record log of a single topic.
// All methods are safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	segs   []*segment    // ordered by base; the last is the active segment
	head   uint64        // offset of the newest record, 0 when empty
	w      *bufio.Writer // buffers active-segment appends; flushed before any sync or read
	notify chan struct{}
	dirty  bool
	closed bool
	wbuf   []byte
	m      *metrics // the store's counters
}

func segName(base uint64) string { return fmt.Sprintf("seg-%020d.log", base) }
func idxName(base uint64) string { return fmt.Sprintf("seg-%020d.idx", base) }

func segBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 64)
	return n, err == nil
}

// openLog opens (or creates) the topic log rooted at dir, scanning and
// verifying every segment: sealed segments must be byte-perfect and
// hash-chain into their successor, the active segment may end in a
// torn record which is truncated away.
func (s *Store) openLog(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		if b, ok := segBase(e.Name()); ok {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	l := &Log{dir: dir, opts: s.opts, notify: make(chan struct{}), m: &s.m}
	if len(bases) == 0 {
		if err := l.createSegment(1, [chainLen]byte{}); err != nil {
			return nil, err
		}
		return l, nil
	}
	var prevSum [chainLen]byte
	for i, base := range bases {
		path := filepath.Join(dir, segName(base))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		hdrBase, prevChain, err := parseSegmentHeader(raw)
		if err != nil {
			return nil, &CorruptError{Path: path, Detail: err.Error()}
		}
		if hdrBase != base {
			return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("header base %d does not match filename", hdrBase)}
		}
		if i > 0 {
			if prev := l.segs[i-1]; base != prev.base+prev.count() {
				return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("offset gap: predecessor ends at %d", prev.base+prev.count()-1)}
			}
			if prevChain != prevSum {
				return nil, &CorruptError{Path: path, Detail: "hash chain mismatch with predecessor segment"}
			}
		}
		sealed := i < len(bases)-1
		seg := &segment{base: base, path: path, sealed: sealed}
		h := sha256.New()
		h.Write(raw[:segHeaderLen])
		off := segHeaderLen
		for off < len(raw) {
			at, _, n, err := parseRecord(raw[off:])
			if err != nil {
				if sealed {
					return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("record at %d: %v", off, err)}
				}
				// Torn tail of the active segment: the crash left a
				// partial append behind. Drop it and carry on.
				torn := int64(len(raw) - off)
				if err := os.Truncate(path, int64(off)); err != nil {
					return nil, err
				}
				raw = raw[:off]
				l.m.truncatedBytes.Add(uint64(torn))
				break
			}
			seg.pos = append(seg.pos, uint32(off))
			seg.lastAt = max(seg.lastAt, at)
			h.Write(raw[off : off+n])
			off += n
		}
		seg.size = int64(len(raw))
		copy(prevSum[:], h.Sum(nil))
		if sealed {
			// Refresh the index file if it is missing or stale (the
			// crash may have landed between appends and the seal).
			if onDisk, err := os.ReadFile(filepath.Join(dir, idxName(base))); err != nil {
				l.writeIndex(seg)
			} else if got, err := parseIndex(onDisk); err != nil || !equalPositions(got, seg.pos) {
				l.writeIndex(seg)
			}
		} else {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			if _, err := f.Seek(0, 2); err != nil {
				f.Close()
				return nil, err
			}
			seg.f = f
			l.w = bufio.NewWriterSize(f, writerBufBytes)
		}
		l.segs = append(l.segs, seg)
		l.head = base + seg.count() - 1
		l.m.recoveredRecords.Add(uint64(len(seg.pos)))
	}
	return l, nil
}

func equalPositions(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// createSegment starts a fresh active segment based at base, chained to
// the given predecessor hash. Caller holds l.mu (or the log is new).
func (l *Log) createSegment(base uint64, prevChain [chainLen]byte) error {
	path := filepath.Join(l.dir, segName(base))
	hdr := appendSegmentHeader(nil, base, prevChain)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, writerBufBytes)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	l.w = w
	seg := &segment{base: base, path: path, size: int64(len(hdr)), f: f}
	l.segs = append(l.segs, seg)
	if l.head < base-1 {
		l.head = base - 1
	}
	if l.opts.Fsync == FsyncAlways {
		l.syncLocked(f)
	} else {
		l.dirty = true
	}
	return nil
}

func (l *Log) writeIndex(seg *segment) {
	// Index files are an acceleration structure rebuilt from the scan
	// when absent, so a write failure is not fatal to the log.
	_ = os.WriteFile(filepath.Join(l.dir, idxName(seg.base)), appendIndex(nil, seg.pos), 0o644)
}

func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

// Append writes one record and returns its offset. Depending on the
// fsync policy the record is either durable on return (FsyncAlways) or
// queued for the next group sync.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes the payloads as consecutive records under one lock
// acquisition, one reader notification, and — under FsyncAlways — one
// group fsync covering the whole batch. It returns the offset of the
// last record written. The broker's batched ingress path uses this so a
// coalesced publish frame pays the per-append bookkeeping once instead
// of per envelope.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxRecordLen {
			return 0, fmt.Errorf("durable: payload length %d out of bounds", len(p))
		}
	}
	now := l.opts.Clock().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("durable: log closed")
	}
	if len(payloads) == 0 {
		return l.head, nil
	}
	var batchBytes int64
	for _, p := range payloads {
		seg := l.active()
		l.wbuf = appendRecord(l.wbuf[:0], now, p)
		if _, err := l.w.Write(l.wbuf); err != nil {
			return 0, err
		}
		seg.pos = append(seg.pos, uint32(seg.size))
		seg.size += int64(len(l.wbuf))
		seg.lastAt = now
		l.head++
		batchBytes += int64(len(l.wbuf))
		if seg.size >= l.opts.SegmentBytes {
			if err := l.rollLocked(); err != nil {
				return 0, err
			}
		}
	}
	l.m.appends.Add(uint64(len(payloads)))
	l.m.appendBytes.Add(uint64(batchBytes))
	if l.opts.Fsync == FsyncAlways {
		l.syncLocked(l.active().f)
	} else {
		l.dirty = true
	}
	close(l.notify)
	l.notify = make(chan struct{})
	return l.head, nil
}

// rollLocked seals the active segment — final fsync, index file, chain
// hash — and opens a successor chained to it. Caller holds l.mu.
func (l *Log) rollLocked() error {
	seg := l.active()
	l.syncLocked(seg.f)
	if err := seg.f.Close(); err != nil {
		return err
	}
	seg.f = nil
	seg.sealed = true
	l.writeIndex(seg)
	chain, err := hashSegment(seg.path)
	if err != nil {
		return err
	}
	l.m.sealed.Inc()
	if err := l.createSegment(l.head+1, chain); err != nil {
		return err
	}
	l.maintainLocked()
	return nil
}

// hashSegment computes a sealed segment's chain value: SHA-256 over
// every file byte, header included. Sealing hashes the whole segment in
// one streaming pass over the just-written (still page-cached) file
// instead of incrementally on the append path — the chain value is only
// needed when the successor's header is written, and per-record hashing
// was the dominant cost of Append.
func hashSegment(path string) (chain [chainLen]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return chain, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return chain, err
	}
	copy(chain[:], h.Sum(nil))
	return chain, nil
}

// maintainLocked enforces the retention bound by deleting whole sealed
// segments from the front. Caller holds l.mu.
func (l *Log) maintainLocked() {
	if l.opts.Retention <= 0 {
		return
	}
	cutoff := l.opts.Clock().Add(-l.opts.Retention).UnixNano()
	for len(l.segs) > 1 && l.segs[0].sealed && l.segs[0].lastAt < cutoff {
		s := l.segs[0]
		if s.f != nil {
			s.f.Close()
		}
		os.Remove(s.path)
		os.Remove(filepath.Join(l.dir, idxName(s.base)))
		l.segs = l.segs[1:]
		l.m.deleted.Inc()
	}
}

// syncLocked flushes the write buffer and fsyncs the active segment's
// file. Caller holds l.mu; f is always the active segment's handle.
func (l *Log) syncLocked(f *os.File) {
	start := time.Now()
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return
		}
	}
	if err := f.Sync(); err != nil {
		return
	}
	l.dirty = false
	l.m.fsyncs.Inc()
	mFsyncLatency.ObserveDuration(time.Since(start))
}

// Sync flushes the active segment to disk if it has unsynced appends.
// The store's group-commit flusher calls this under FsyncBatch. The
// fsync itself runs outside the log mutex: only the buffer flush needs
// the lock, and stalling every publisher behind a multi-millisecond
// writeback would serialize the ingest path on disk latency.
func (l *Log) Sync() {
	l.mu.Lock()
	if l.closed || !l.dirty {
		l.mu.Unlock()
		return
	}
	f := l.active().f
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			l.mu.Unlock()
			return
		}
	}
	l.dirty = false
	l.mu.Unlock()
	start := time.Now()
	if err := f.Sync(); err != nil {
		// A failed fsync leaves the flushed bytes unsynced: re-mark the
		// log dirty so the next group commit retries. Concurrent rolls
		// close f mid-sync; that error is the benign variant (the roll
		// already fsynced).
		l.mu.Lock()
		if !l.closed {
			l.dirty = true
		}
		l.mu.Unlock()
		return
	}
	l.m.fsyncs.Inc()
	mFsyncLatency.ObserveDuration(time.Since(start))
}

// Maintain applies the retention bounds outside the roll path, so a
// quiet topic still expires old segments.
func (l *Log) Maintain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.maintainLocked()
	}
}

// Head returns the offset of the newest record, 0 when empty.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Oldest returns the offset of the oldest retained record, 0 when the
// log is empty.
func (l *Log) Oldest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLocked()
}

func (l *Log) oldestLocked() uint64 {
	for _, s := range l.segs {
		if s.count() > 0 {
			return s.base
		}
	}
	return 0
}

// Notify returns a channel closed by the next Append, the wake signal
// for replay pumps tailing the log.
func (l *Log) Notify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// ReadFrom returns up to maxRecords records (bounded additionally by
// maxBytes of payload) starting at offset from. A from at or below the
// retention horizon is clamped to the oldest retained record — the
// cursor-reset semantics a subscriber observes after compaction. The
// returned payloads are fresh copies.
func (l *Log) ReadFrom(from uint64, maxRecords, maxBytes int) ([]Record, error) {
	if maxRecords <= 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("durable: log closed")
	}
	if from == 0 {
		from = 1
	}
	if oldest := l.oldestLocked(); oldest == 0 {
		return nil, nil
	} else if from < oldest {
		from = oldest
	}
	if from > l.head {
		return nil, nil
	}
	var out []Record
	budget := maxBytes
	for from <= l.head && len(out) < maxRecords && budget > 0 {
		si := sort.Search(len(l.segs), func(i int) bool {
			s := l.segs[i]
			return s.base+s.count() > from
		})
		if si == len(l.segs) {
			break
		}
		seg := l.segs[si]
		recs, err := l.readSegmentLocked(seg, from, maxRecords-len(out), &budget)
		if err != nil {
			return out, err
		}
		if len(recs) == 0 {
			break
		}
		out = append(out, recs...)
		from = out[len(out)-1].Offset + 1
	}
	return out, nil
}

// readSegmentLocked reads records [from, ...] out of one segment.
func (l *Log) readSegmentLocked(seg *segment, from uint64, maxRecords int, budget *int) ([]Record, error) {
	if seg.f == nil {
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, err
		}
		seg.f = f
	}
	// Reads of the active segment go through its file handle, so any
	// appends still sitting in the write buffer must reach the kernel
	// first.
	if !seg.sealed && l.w != nil {
		if err := l.w.Flush(); err != nil {
			return nil, err
		}
	}
	i := int(from - seg.base)
	if i < 0 || i >= len(seg.pos) {
		return nil, nil
	}
	var out []Record
	for ; i < len(seg.pos) && len(out) < maxRecords && *budget > 0; i++ {
		start := int64(seg.pos[i])
		end := seg.size
		if i+1 < len(seg.pos) {
			end = int64(seg.pos[i+1])
		}
		buf := make([]byte, end-start)
		if _, err := seg.f.ReadAt(buf, start); err != nil {
			return out, err
		}
		at, payload, _, err := parseRecord(buf)
		if err != nil {
			return out, &CorruptError{Path: seg.path, Detail: fmt.Sprintf("record at %d: %v", start, err)}
		}
		out = append(out, Record{Offset: seg.base + uint64(i), At: at, Payload: payload})
		*budget -= len(payload)
	}
	return out, nil
}

// close shuts the log down. When sync is true the active segment is
// flushed first; a crash simulation passes false so only what the
// kernel already has reaches the reopened log.
func (l *Log) close(sync bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, s := range l.segs {
		if s.f == nil {
			continue
		}
		if !s.sealed {
			if sync {
				l.syncLocked(s.f)
			} else if l.w != nil {
				// Crash semantics: the kernel keeps what it was handed,
				// so buffered appends are written (one last syscall) but
				// never fsynced.
				_ = l.w.Flush()
			}
		}
		s.f.Close()
		s.f = nil
	}
}
