package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleKnownValues(t *testing.T) {
	// Values with a hand-computable mean/stddev.
	s := NewSample(false)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-9) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if !almostEqual(s.StdDev(), want, 1e-9) {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
	if !almostEqual(s.StdErr(), want/math.Sqrt(8), 1e-9) {
		t.Fatalf("StdErr = %v", s.StdErr())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	s := NewSample(false)
	if s.Mean() != 0 || s.StdDev() != 0 || s.StdErr() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	s.Add(42)
	if s.Mean() != 42 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.StdDev() != 0 {
		t.Fatalf("single-observation StdDev = %v, want 0", s.StdDev())
	}
}

func TestSampleAddDurationUsesMilliseconds(t *testing.T) {
	s := NewSample(false)
	s.AddDuration(1500 * time.Microsecond)
	if !almostEqual(s.Mean(), 1.5, 1e-9) {
		t.Fatalf("Mean = %v, want 1.5 ms", s.Mean())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	prop := func(vals []float64) bool {
		// Constrain to finite, moderate values.
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) < 2 {
			return true
		}
		s := NewSample(false)
		var sum float64
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, v := range clean {
			ss += (v - mean) * (v - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		return almostEqual(s.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEqual(s.Variance(), naiveVar, 1e-6*(1+naiveVar))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample(true)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	p50, err := s.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p50, 50.5, 1e-9) {
		t.Fatalf("p50 = %v, want 50.5", p50)
	}
	p0, _ := s.Percentile(0)
	p100, _ := s.Percentile(100)
	if p0 != 1 || p100 != 100 {
		t.Fatalf("p0/p100 = %v/%v", p0, p100)
	}
	if _, err := s.Percentile(101); err == nil {
		t.Fatal("accepted percentile > 100")
	}
}

func TestPercentileRequiresRaw(t *testing.T) {
	s := NewSample(false)
	s.Add(1)
	if _, err := s.Percentile(50); err == nil {
		t.Fatal("Percentile without raw retention should error")
	}
}

func TestSummarize(t *testing.T) {
	s := NewSample(false)
	s.Add(10)
	s.Add(20)
	sm := s.Summarize("2 hops")
	if sm.Name != "2 hops" || sm.N != 2 || !almostEqual(sm.Mean, 15, 1e-9) {
		t.Fatalf("bad summary: %+v", sm)
	}
	if sm.String() == "" {
		t.Fatal("empty summary string")
	}
}
