package harness

import (
	"testing"
	"time"

	"entitytrace/internal/topic"
)

func TestTestbedBuildAndClose(t *testing.T) {
	tb, err := New(Options{Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Brokers) != 2 || len(tb.Nodes) != 2 {
		t.Fatalf("built %d brokers, %d managers", len(tb.Brokers), len(tb.Nodes))
	}
	tb.Close()
}

func TestTestbedBadOptions(t *testing.T) {
	if _, err := New(Options{Transport: "pigeon"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestStartEntityAndTrackerValidation(t *testing.T) {
	tb, err := New(Options{Brokers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.StartEntity("e", 5); err == nil {
		t.Fatal("out-of-range broker index accepted")
	}
	if _, err := tb.StartTracker("t", -1, "e", topic.AllClasses()); err == nil {
		t.Fatal("negative broker index accepted")
	}
}

func TestMeasureStateTraces(t *testing.T) {
	tb, err := New(Options{Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("m-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.StartTracker("m-tracker", 1, "m-entity", topic.NewClassSet(topic.ClassStateTransitions))
	if err != nil {
		t.Fatal(err)
	}
	sample, err := MeasureStateTraces(ent, h, 5, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sample.N() != 5 {
		t.Fatalf("measured %d rounds", sample.N())
	}
	if sample.Mean() <= 0 {
		t.Fatalf("non-positive latency %v", sample.Mean())
	}
	if sample.Mean() > 5000 {
		t.Fatalf("implausible latency %v ms", sample.Mean())
	}
}

func TestRunTraceRoutingBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	auth, err := RunTraceRouting(2, "inproc", false, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := RunTraceRouting(2, "inproc", true, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if auth.N != 5 || sec.N != 5 {
		t.Fatalf("rounds: %d, %d", auth.N, sec.N)
	}
	if auth.Mean <= 0 || sec.Mean <= 0 {
		t.Fatal("non-positive means")
	}
}

func TestCryptoCosts(t *testing.T) {
	rows, err := CryptoCosts(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d crypto rows, want 8", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.N != 3 {
			t.Fatalf("row %q has N=%d", r.Name, r.N)
		}
		if r.Mean < 0 {
			t.Fatalf("row %q negative mean", r.Name)
		}
		byName[r.Name] = r.Mean
	}
	// Shape: token generation (keygen+sign) dominates verification, and
	// signing costs more than symmetric encryption — exactly the paper's
	// cost ordering.
	if byName["Token Generation and Signing"] <= byName["Verifying Authorization Token"] {
		t.Fatal("token generation not slower than verification")
	}
	if byName["Sign Trace Message"] <= byName["Encrypting Trace Message"] {
		t.Fatal("RSA signing not slower than AES encryption")
	}
}

func TestRunKeyDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	sm, err := RunKeyDistribution(2, "inproc", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sm.N != 3 || sm.Mean <= 0 {
		t.Fatalf("key distribution summary: %+v", sm)
	}
}

func TestRunSigningOptimization(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	plain, opt, err := RunSigningOptimization("inproc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mean <= 0 || opt.Mean <= 0 {
		t.Fatalf("plain=%v opt=%v", plain.Mean, opt.Mean)
	}
}

func TestRunTrackerScalingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	points, err := RunTrackerScaling([]int{1, 3}, "inproc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].X != 1 || points[1].X != 3 {
		t.Fatalf("points: %+v", points)
	}
}

func TestRunEntityScalingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	points, err := RunEntityScaling([]int{1, 2}, 2, "inproc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %+v", points)
	}
	for _, p := range points {
		if p.Summary.Mean <= 0 {
			t.Fatalf("point %d non-positive mean", p.X)
		}
	}
}

func TestMessageComplexity(t *testing.T) {
	rows := MessageComplexity([]int{10, 100}, 5)
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].AllToAll != 90 || rows[1].AllToAll != 9900 {
		t.Fatalf("all-to-all counts wrong: %+v", rows)
	}
	if rows[1].Brokered >= rows[1].AllToAll {
		t.Fatal("brokered scheme not cheaper at N=100")
	}
}

func TestPerHopLatencyShapesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	fast, err := RunTraceRouting(2, "inproc", false, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunTraceRouting(2, "inproc", false, 10*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Mean <= fast.Mean {
		t.Fatalf("injected latency had no effect: fast=%.2f slow=%.2f", fast.Mean, slow.Mean)
	}
}

func TestRunDetectionComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	rows, err := RunDetectionComparison(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	brokered := rows[0]
	if brokered.Detection.Mean <= 0 {
		t.Fatal("non-positive brokered detection latency")
	}
	// Detection should land in the vicinity of 5 missed 100 ms periods
	// (plus scheduling); anything over 5 s means the mechanism broke.
	if brokered.Detection.Mean > 5000 {
		t.Fatalf("implausible detection latency %v ms", brokered.Detection.Mean)
	}
	// The headline claim: far fewer messages than all-to-all at N=10.
	if rows[0].MessagesPerPeriod >= rows[1].MessagesPerPeriod {
		t.Fatal("brokered scheme not cheaper than all-to-all")
	}
}

func TestRunInterestGating(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in short mode")
	}
	rows, err := RunInterestGating(600 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	silent, interested, withdrawn := rows[0], rows[1], rows[2]
	// §3.5: the interested phase must publish materially more than the
	// silent phases (heartbeats per ping vs only gauge probes).
	if interested.Published <= silent.Published {
		t.Fatalf("interest did not increase publications: %d vs %d",
			interested.Published, silent.Published)
	}
	if withdrawn.Published >= interested.Published {
		t.Fatalf("withdrawal did not reduce publications: %d vs %d",
			withdrawn.Published, interested.Published)
	}
	for _, r := range rows {
		if r.String() == "" {
			t.Fatal("empty row string")
		}
	}
}
