package durable

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/obs"
)

func testStore(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

func TestAppendReadRoundTrip(t *testing.T) {
	s, _ := testStore(t, Options{Fsync: FsyncNever})
	const topic = "/Constrained/Traces/Broker/Publish-Only/x/StateTransitions"
	for i := 1; i <= 10; i++ {
		off, err := s.Append(topic, []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	lg := s.Get(topic)
	if lg == nil {
		t.Fatal("no log for topic")
	}
	if h := lg.Head(); h != 10 {
		t.Fatalf("head = %d, want 10", h)
	}
	if o := lg.Oldest(); o != 1 {
		t.Fatalf("oldest = %d, want 1", o)
	}
	recs, err := lg.ReadFrom(4, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("got %d records from offset 4, want 7", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("rec-%d", i+4)
		if r.Offset != uint64(i+4) || string(r.Payload) != want {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, r.Offset, r.Payload, i+4, want)
		}
		if r.At == 0 {
			t.Fatal("record timestamp missing")
		}
	}
	// Limits: record count and byte budget.
	if recs, _ = lg.ReadFrom(1, 3, 1<<20); len(recs) != 3 {
		t.Fatalf("maxRecords ignored: got %d", len(recs))
	}
	if recs, _ = lg.ReadFrom(1, 100, len("rec-1")); len(recs) != 1 {
		t.Fatalf("maxBytes ignored: got %d", len(recs))
	}
	// Past the head: empty.
	if recs, _ = lg.ReadFrom(11, 10, 1<<20); len(recs) != 0 {
		t.Fatalf("read past head returned %d records", len(recs))
	}
}

func TestReopenPreservesLog(t *testing.T) {
	dir := t.TempDir()
	const topic = "/t/reopen"
	for round := 1; round <= 3; round++ {
		s, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		lg, err := s.Ensure(topic)
		if err != nil {
			t.Fatal(err)
		}
		wantHead := uint64((round - 1) * 20)
		if h := lg.Head(); h != wantHead {
			t.Fatalf("round %d: recovered head = %d, want %d", round, h, wantHead)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Append(topic, bytes.Repeat([]byte{byte(round)}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		// Every record ever appended is still readable.
		recs, err := lg.ReadFrom(1, 1000, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != round*20 {
			t.Fatalf("round %d: %d records, want %d", round, len(recs), round*20)
		}
		s.Close()
	}
}

func TestCrashReopenPreservesUnflushedAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append("/t/crash", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash() // no fsync: only what the kernel already has
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if h := s2.Head("/t/crash"); h != 5 {
		t.Fatalf("head after crash reopen = %d, want 5", h)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("/t/torn", []byte("whole")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crash mid-append: a partial record at the tail.
	segPath := filepath.Join(dir, escaped("/t/torn"), segName(1))
	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 42, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer s2.Close()
	if h := s2.Head("/t/torn"); h != 3 {
		t.Fatalf("head = %d, want 3", h)
	}
	if n := s2.reg.Snapshot().Counters["durable_truncated_bytes_total"]; n != 6 {
		t.Fatalf("truncated bytes = %d, want 6", n)
	}
	// And the log still appends cleanly after truncation.
	if off, err := s2.Append("/t/torn", []byte("after")); err != nil || off != 4 {
		t.Fatalf("append after truncation: off=%d err=%v", off, err)
	}
}

// sealSegments drives enough appends through tiny segments to seal a
// few, returning the store's directory layout for tampering.
func sealSegments(t *testing.T, dir, topic string) []string {
	t.Helper()
	s, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Append(topic, bytes.Repeat([]byte{0xAB}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	matches, err := filepath.Glob(filepath.Join(dir, escaped(topic), "seg-*.log"))
	if err != nil || len(matches) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(matches), err)
	}
	return matches
}

func TestTamperedSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	segs := sealSegments(t, dir, "/t/tamper")
	// Flip one payload byte in the first (sealed) segment.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("tampered sealed segment accepted")
	}
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("error %v does not wrap ErrTampered", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CorruptError", err)
	}
}

func TestTamperedChainHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	segs := sealSegments(t, dir, "/t/chain")
	// Rewrite a sealed segment wholesale with internally-consistent
	// records: the CRCs pass, but the chain hash stamped in the
	// successor's header no longer matches.
	hdr := appendSegmentHeader(nil, 1, [chainLen]byte{})
	forged := appendRecord(hdr, 1, []byte("forged history"))
	if err := os.WriteFile(segs[0], forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrTampered) {
		t.Fatalf("forged segment not refused: %v", err)
	}
}

func TestMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	segs := sealSegments(t, dir, "/t/gap")
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrTampered) {
		t.Fatalf("segment gap not refused: %v", err)
	}
}

func TestIndexRebuiltWhenMissing(t *testing.T) {
	dir := t.TempDir()
	sealSegments(t, dir, "/t/idx")
	idx, err := filepath.Glob(filepath.Join(dir, escaped("/t/idx"), "*.idx"))
	if err != nil || len(idx) == 0 {
		t.Fatalf("no index files written: %v", err)
	}
	for _, p := range idx {
		os.Remove(p)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rebuilt, _ := filepath.Glob(filepath.Join(dir, escaped("/t/idx"), "*.idx"))
	if len(rebuilt) != len(idx) {
		t.Fatalf("rebuilt %d index files, want %d", len(rebuilt), len(idx))
	}
	if recs, err := s.Get("/t/idx").ReadFrom(1, 100, 1<<20); err != nil || len(recs) != 30 {
		t.Fatalf("read after index rebuild: %d records, err %v", len(recs), err)
	}
}

func TestRetentionByTime(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s, _ := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 128, Retention: time.Minute, Clock: clock})
	const topic = "/t/retention"
	for i := 0; i < 20; i++ {
		if _, err := s.Append(topic, bytes.Repeat([]byte{1}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	lg := s.Get(topic)
	if lg.Oldest() != 1 {
		t.Fatalf("oldest = %d before expiry", lg.Oldest())
	}
	advance(2 * time.Minute)
	// New appends roll fresh segments; old ones expire at the roll.
	for i := 0; i < 10; i++ {
		if _, err := s.Append(topic, bytes.Repeat([]byte{2}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	lg.Maintain()
	oldest := lg.Oldest()
	if oldest <= 1 {
		t.Fatalf("retention did not expire old segments: oldest = %d", oldest)
	}
	// A cursor below the horizon is clamped to the oldest record.
	recs, err := lg.ReadFrom(1, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Offset != oldest {
		t.Fatalf("clamped read starts at %d, want %d", recs[0].Offset, oldest)
	}
	if s.reg.Snapshot().Counters["durable_segments_deleted_total"] == 0 {
		t.Fatal("counters show no deleted segments")
	}
}

func TestNotifyOnAppend(t *testing.T) {
	s, _ := testStore(t, Options{Fsync: FsyncNever})
	lg, err := s.Ensure("/t/notify")
	if err != nil {
		t.Fatal(err)
	}
	ch := lg.Notify()
	select {
	case <-ch:
		t.Fatal("notify fired before append")
	default:
	}
	if _, err := s.Append("/t/notify", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("notify did not fire on append")
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s, _ := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 512})
	const topic = "/t/conc"
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.Append(topic, []byte("concurrent-payload")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		wg.Wait()
		close(stop)
	}()
	lg, _ := s.Ensure(topic)
	var cursor uint64
	for {
		recs, err := lg.ReadFrom(cursor+1, 64, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Offset != cursor+1 {
				t.Fatalf("out-of-order read: got %d after %d", r.Offset, cursor)
			}
			cursor = r.Offset
		}
		if cursor == 400 {
			break
		}
		select {
		case <-stop:
			if h := lg.Head(); cursor == h && h != 400 {
				t.Fatalf("head = %d after 400 appends", h)
			}
		case <-lg.Notify():
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at cursor %d", cursor)
		}
	}
}

func TestStoreTopicsAndEscaping(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	topics := []string{"/a/b/c", "/Constrained/Traces/Broker/Publish-Only/u/Load"}
	for _, tp := range topics {
		if _, err := s.Append(tp, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Topics()
	if len(got) != 2 || got[0] != topics[1] || got[1] != topics[0] {
		t.Fatalf("topics after reopen = %v", got)
	}
	if s2.Head("/a/b/c") != 1 || s2.Head("/missing") != 0 {
		t.Fatal("head lookup wrong after reopen")
	}
	st, recovered := s2.Stats(), s2.reg.Snapshot().Counters["durable_recovered_records_total"]
	if st.Topics != 2 || recovered != 2 || st.Segments < 2 {
		t.Fatalf("stats = %+v, %d recovered records", st, recovered)
	}
}

// TestCountsPerStore opens two stores in one process, as a multi-broker
// testbed does: each store's registry counts only its own appends and
// bytes, and the two together are what the process-wide counters moved.
func TestCountsPerStore(t *testing.T) {
	a, _ := testStore(t, Options{Fsync: FsyncNever})
	b, _ := testStore(t, Options{Fsync: FsyncNever})
	before := obs.Default.Snapshot().Counters
	if _, err := a.AppendBatch("/t/a", [][]byte{[]byte("one"), []byte("two"), []byte("three")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append("/t/b", []byte("four")); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters
	own := map[string][2]uint64{}
	for _, name := range []string{"durable_appends_total", "durable_append_bytes_total"} {
		own[name] = [2]uint64{a.reg.Snapshot().Counters[name], b.reg.Snapshot().Counters[name]}
		if sum, process := own[name][0]+own[name][1], after[name]-before[name]; sum != process {
			t.Errorf("%s: stores %d + %d, process +%d", name, own[name][0], own[name][1], process)
		}
	}
	if n := own["durable_appends_total"]; n != [2]uint64{3, 1} {
		t.Errorf("appends per store = %v, want [3 1]", n)
	}
	if n, want := own["durable_append_bytes_total"], [2]uint64{3*recHeaderLen + 11, recHeaderLen + 4}; n != want {
		t.Errorf("append bytes per store = %v, want %v", n, want)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"never", FsyncNever, true},
		{"batch", FsyncBatch, true},
		{"", FsyncBatch, true},
		{"sometimes", FsyncBatch, false},
	}
	for _, c := range cases {
		if got, ok := ParseFsyncPolicy(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseFsyncPolicy(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncNever, FsyncBatch} {
		if back, ok := ParseFsyncPolicy(p.String()); !ok || back != p {
			t.Errorf("round trip %v failed", p)
		}
	}
}

func TestFsyncBatchFlusher(t *testing.T) {
	s, _ := testStore(t, Options{Fsync: FsyncBatch})
	if _, err := s.Append("/t/flush", []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.reg.Snapshot().Counters["durable_fsyncs_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group-commit flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAppendBounds(t *testing.T) {
	s, _ := testStore(t, Options{})
	if _, err := s.Append("/t/bounds", nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := s.Append("/t/bounds", make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/t/closed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Append("/t/closed", []byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if _, err := s.Append("/t/new-after-close", []byte("x")); err == nil {
		t.Fatal("append to a new topic after close succeeded")
	}
}

// escaped mirrors the store's directory naming for test path
// construction.
func escaped(topic string) string { return url.PathEscape(topic) }
