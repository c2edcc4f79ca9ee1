// Command benchdiff compares two `go test -bench` output files and
// prints a per-benchmark delta table: mean ± standard error of ns/op
// (and B/op, allocs/op when -benchmem was on) across the repeated
// -count runs in each file, plus the relative change. It is the
// mechanical regression check behind `make benchdiff`: run the hot-path
// benchmarks at a baseline commit and at HEAD, feed both outputs here,
// and read the deltas instead of eyeballing raw bench lines.
//
//	go test -bench . -benchmem -count=5 -run '^$' ./internal/... > new.txt
//	benchdiff old.txt new.txt
//
// Stdlib-only by design (plus internal/stats for the moments), so it
// runs anywhere the repo builds.
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"entitytrace/internal/stats"
)

// metric aggregates one benchmark's repeated measurements of one unit.
type metric struct {
	ns     *stats.Sample
	bytes  *stats.Sample
	allocs *stats.Sample
}

func newMetric() *metric {
	return &metric{
		ns:     stats.NewSample(false),
		bytes:  stats.NewSample(false),
		allocs: stats.NewSample(false),
	}
}

// parseBench reads `go test -bench` output and groups measurements by
// benchmark name with the -cpu / GOMAXPROCS suffix kept (distinct
// parallelism is a distinct benchmark). Lines it does not recognize are
// skipped, so full `go test` logs work as input.
func parseBench(path string) (map[string]*metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*metric)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-8  123  456 ns/op [ 789 B/op  12 allocs/op ...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark* line
		}
		m := out[fields[0]]
		if m == nil {
			m = newMetric()
			out[fields[0]] = m
		}
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.ns.Add(v)
			case "B/op":
				m.bytes.Add(v)
			case "allocs/op":
				m.allocs.Add(v)
			}
		}
	}
	return out, sc.Err()
}

// fmtMeanErr renders mean ± stderr with sensible precision.
func fmtMeanErr(s *stats.Sample) string {
	if s.N() == 0 {
		return "-"
	}
	if s.N() == 1 {
		return fmt.Sprintf("%.4g", s.Mean())
	}
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.StdErr())
}

// fmtDelta renders the relative change new vs old, or "-" when either
// side is missing.
func fmtDelta(oldS, newS *stats.Sample) string {
	if oldS.N() == 0 || newS.N() == 0 || oldS.Mean() == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", (newS.Mean()-oldS.Mean())/oldS.Mean()*100)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff <old-bench.txt> <new-bench.txt>")
		os.Exit(2)
	}
	oldB, err := parseBench(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newB, err := parseBench(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	names := make(map[string]struct{}, len(oldB)+len(newB))
	for n := range oldB {
		names[n] = struct{}{}
	}
	for n := range newB {
		names[n] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	if len(sorted) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines found in either input")
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-48s  %-22s  %-22s  %s\n", "benchmark (ns/op)", "old mean ± stderr", "new mean ± stderr", "delta")
	for _, n := range sorted {
		o, ok := oldB[n]
		if !ok {
			o = newMetric()
		}
		nw, ok := newB[n]
		if !ok {
			nw = newMetric()
		}
		fmt.Fprintf(w, "%-48s  %-22s  %-22s  %s\n", n, fmtMeanErr(o.ns), fmtMeanErr(nw.ns), fmtDelta(o.ns, nw.ns))
		if o.allocs.N() > 0 || nw.allocs.N() > 0 {
			fmt.Fprintf(w, "%-48s  %-22s  %-22s  %s\n", "  allocs/op", fmtMeanErr(o.allocs), fmtMeanErr(nw.allocs), fmtDelta(o.allocs, nw.allocs))
		}
		if o.bytes.N() > 0 || nw.bytes.N() > 0 {
			fmt.Fprintf(w, "%-48s  %-22s  %-22s  %s\n", "  B/op", fmtMeanErr(o.bytes), fmtMeanErr(nw.bytes), fmtDelta(o.bytes, nw.bytes))
		}
	}
}
