package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(append([]float64(nil), vals...), c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: %v, want NaN", got)
	}
}

// Noisy seconds move their own slices, not the quiet value over slices;
// a slice too thin to carry the percentile is left out.
func TestSliceStat(t *testing.T) {
	const sec = int64(time.Second)
	var samples []sample
	for s := int64(0); s < 5; s++ {
		v := 1.0
		if s >= 2 {
			v = 100 // the neighbour's seconds
		}
		for i := int64(0); i < 10; i++ {
			samples = append(samples, sample{atNanos: s*sec + i, value: v})
		}
	}
	samples = append(samples, sample{atNanos: 5 * sec, value: 0.001}) // a 1-sample tail slice
	got, slices := sliceStat(samples, sec, 0.5, 10)
	if got != 1 || slices != 5 {
		t.Errorf("sliceStat = %v over %d slices, want 1 over 5", got, slices)
	}
	if _, slices := sliceStat(samples, sec, 0.5, 11); slices != 0 {
		t.Errorf("slices below the minimum count were kept: %d", slices)
	}
}

// The quiet value is the best tenth: low when lower is better, high
// when higher is, and not the single best slice.
func TestQuiet(t *testing.T) {
	vals := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := quiet(vals, true); math.Abs(got-11) > 1e-9 {
		t.Errorf("quiet(lower) = %v, want 11", got)
	}
	if got := quiet(vals, false); math.Abs(got-19) > 1e-9 {
		t.Errorf("quiet(higher) = %v, want 19", got)
	}
	if got := quiet([]float64{7}, true); got != 7 {
		t.Errorf("one slice: %v", got)
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestPlannerDeterministic(t *testing.T) {
	draw := func(seed int64, g int) (ents []int, loads []float64) {
		p := newPlanner(seed, g)
		for i := 0; i < 200; i++ {
			ents = append(ents, p.entity())
			l := p.load(int64(i))
			loads = append(loads, l.CPUPercent, float64(l.MemoryUsedBytes), l.Workload)
		}
		return ents, loads
	}
	e1, l1 := draw(7, 0)
	e2, l2 := draw(7, 0)
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(l1, l2) {
		t.Fatal("same seed, different inputs")
	}
	e3, l3 := draw(8, 0)
	if reflect.DeepEqual(e1, e3) || reflect.DeepEqual(l1, l3) {
		t.Fatal("different seeds, same inputs")
	}
	owned := map[int]bool{}
	for _, e := range ownedBy(1) {
		owned[e] = true
	}
	ents, _ := draw(7, 1)
	for _, e := range ents {
		if !owned[e] {
			t.Fatalf("generator 1 fired entity %d, owns %v", e, ownedBy(1))
		}
	}
	// Every entity is owned by one generator and tracked by one tracker.
	seen := map[int]int{}
	for g := 0; g < numGenerators; g++ {
		for _, e := range ownedBy(g) {
			seen[e]++
		}
	}
	for tr := 0; tr < numTrackers; tr++ {
		for _, e := range trackedBy(tr) {
			if trackerOf(e) != tr {
				t.Errorf("trackerOf(%d) = %d, want %d", e, trackerOf(e), tr)
			}
		}
	}
	for e := 0; e < numEntities; e++ {
		if seen[e] != 1 {
			t.Errorf("entity %d owned %d times", e, seen[e])
		}
	}
}

func TestTraceFlagForms(t *testing.T) {
	for _, c := range []struct {
		args []string
		want bool
	}{
		{[]string{"--workload", "state_rsa_chain3", "--seed", "3", "--seconds", "10", "--trace", "1"}, true},
		{[]string{"--workload", "state_rsa_chain3", "--trace", "0", "--seed", "3"}, false},
		{[]string{"-trace"}, true},
		{[]string{"-trace", "-sets", "2"}, true},
		{nil, false},
	} {
		o, err := parseFlags(c.args)
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if o.trace != c.want {
			t.Errorf("%v: trace = %v, want %v", c.args, o.trace, c.want)
		}
	}
	o, err := parseFlags([]string{"--workload", "load_session_fabric4", "--trace", "1", "--seed", "9", "--seconds", "12"})
	if err != nil || o.seed != 9 || o.seconds != 12 || o.workload != "load_session_fabric4" {
		t.Errorf("flags after --trace were lost: %+v, %v", o, err)
	}
	if _, err := parseFlags([]string{"--workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestResultLine(t *testing.T) {
	res := newResult("state_rsa_chain3")
	res.Attempted, res.Failed = 10, 0
	for _, d := range endToEnd {
		res.set(d.name, 1.5)
	}
	back, err := parseLine(res.Workload, res.line(endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 10 || back.Values["setup_s"] != 1.5 || len(back.Values) != len(endToEnd) {
		t.Errorf("round trip lost the result: %+v", back)
	}
	// A metric left unmeasured, or not a number, makes the line incorrect.
	if back, _ := parseLine("w", newResult("w").line(endToEnd)); back.Correct {
		t.Error("a line with unmeasured metrics reads as correct")
	}
	res.set("setup_s", math.NaN())
	if res.Correct {
		t.Error("NaN metric left the result correct")
	}
	st := stalled("w", "killed")
	if st.Correct || st.failedShare() != 1 {
		t.Errorf("stalled run = %+v, want every attempt failed", st)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json names exactly the workloads and metrics the binary
// emits, with their units, directions and bounds.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 16 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d: each phase wants at least 8 s", f.RunSeconds)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameOK.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, binary has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(file), len(defs))
		}
		for i, d := range defs {
			name(d.name)
			m := file[i]
			if !unitOK.MatchString(d.unit) {
				t.Errorf("unit %q of %s is outside the contract", d.unit, d.name)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("direction %q of %s", d.better, d.name)
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d = %+v, binary has %+v", kind, i, m, d)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s has a bound; per-layer metrics have none", d.name)
			case bounded && (m.Bound == nil || *m.Bound != d.bound):
				t.Errorf("bound of %s differs from the binary's %v", d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("bound %v of %s is outside (0, 0.25]", d.bound, d.name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.name == "setup_s" && d.unit == "s" && d.better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// The end-to-end smoke run (1-s phases) takes ~10 s per workload, so it
// stays out of tier-1:
// BENCH_SMOKE=1 go test ./bench -run Smoke
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the 1-s-phase end-to-end smoke test")
	}
	for _, w := range workloads {
		res, err := runWorkload(runConfig{
			w: w, seed: 1, paced: time.Second, sat: time.Second,
			traced: true, tmpDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, p := range res.Problems {
			t.Errorf("%s: %s", w.name, p)
		}
		if res.failedShare() > maxFailedShare {
			t.Errorf("%s: %d of %d emissions failed", w.name, res.Failed, res.Attempted)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if _, ok := res.Values[d.name]; !ok {
					t.Errorf("%s: metric %s was not measured", w.name, d.name)
				}
			}
		}
	}
}
