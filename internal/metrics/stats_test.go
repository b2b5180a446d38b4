package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(r.Var()-32.0/7) > 1e-9 {
		t.Fatalf("Var = %v, want %v", r.Var(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.CI95() <= 0 {
		t.Fatal("CI95 not positive")
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.CI95() != 0 {
		t.Fatal("empty Running nonzero")
	}
	r.Add(3)
	if r.Var() != 0 || r.CI95() != 0 {
		t.Fatal("single-sample variance nonzero")
	}
	if r.Mean() != 3 || r.Min() != 3 || r.Max() != 3 {
		t.Fatal("single-sample summary wrong")
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	check := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if len(xs) < 2 {
			return true
		}
		var r Running
		sum := 0.0
		for _, x := range xs {
			r.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		if math.Abs(r.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(len(xs)-1)
		return math.Abs(r.Var()-v) <= 1e-6*(1+v)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.8)
	if e.Primed() {
		t.Fatal("fresh EMA primed")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10 (priming)", got)
	}
	got := e.Update(0)
	if math.Abs(got-2.0) > 1e-12 { // 0.8*0 + 0.2*10
		t.Fatalf("second update = %v, want 2", got)
	}
	if e.Value() != got {
		t.Fatal("Value disagrees with Update return")
	}
}

func TestEMAConvergence(t *testing.T) {
	e := NewEMA(0.5)
	for i := 0; i < 60; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EMA did not converge: %v", e.Value())
	}
}

func TestEMAAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEMA(%v) did not panic", a)
				}
			}()
			NewEMA(a)
		}()
	}
	NewEMA(1) // boundary is legal
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d", h.Count())
	}
	for i := 0; i < 10; i++ {
		if h.Bucket(i) != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, h.Bucket(i))
		}
	}
	med := h.Quantile(0.5)
	if med < 4 || med > 6 {
		t.Fatalf("median = %v, want ~5", med)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-100)
	h.Add(100)
	if h.Bucket(0) != 1 || h.Bucket(4) != 1 {
		t.Fatal("out-of-range values not clamped to edge buckets")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero buckets": func() { NewHistogram(0, 1, 0) },
		"bad range":    func() { NewHistogram(5, 5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	// Bucket midpoints put each percentile within one bucket width.
	if s.P50 < 49 || s.P50 > 52 {
		t.Errorf("P50 = %v, want ~50", s.P50)
	}
	if s.P95 < 94 || s.P95 > 97 {
		t.Errorf("P95 = %v, want ~95", s.P95)
	}
	if s.P99 < 98 || s.P99 > 100 {
		t.Errorf("P99 = %v, want ~99", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}

func TestHistogramSummaryEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if s := h.Summary(); s != (HistSummary{}) {
		t.Fatalf("empty summary = %+v, want zero value", s)
	}
}

func TestHistogramSummarySkewed(t *testing.T) {
	// A tail-heavy distribution must separate p50 from p99. The tail is
	// 2% of the mass so the nearest-rank p99 (the 990th of 1000 samples)
	// falls inside it.
	h := NewHistogram(0, 1000, 1000)
	for i := 0; i < 980; i++ {
		h.Add(10)
	}
	for i := 0; i < 20; i++ {
		h.Add(900)
	}
	s := h.Summary()
	if s.P50 > 20 {
		t.Errorf("P50 = %v, want ~10", s.P50)
	}
	if s.P99 < 100 {
		t.Errorf("P99 = %v, want in the tail", s.P99)
	}
}

// TestHistogramQuantileBoundaries pins the nearest-rank edge cases at 0,
// 1 and 2 samples: every quantile of a one-sample histogram is that
// sample's bucket, and Quantile(1) never overshoots to a bucket no
// observation landed in.
func TestHistogramQuantileBoundaries(t *testing.T) {
	const mid7 = 7.5 // midpoint of bucket 7 in [0,10) x 10 buckets
	const mid2 = 2.5

	t.Run("zero samples", func(t *testing.T) {
		h := NewHistogram(0, 10, 10)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("Quantile(%v) = %v, want 0", q, got)
			}
		}
		if s := h.Summary(); s != (HistSummary{}) {
			t.Errorf("Summary = %+v, want zero value", s)
		}
	})

	t.Run("one sample", func(t *testing.T) {
		h := NewHistogram(0, 10, 10)
		h.Add(7.3)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != mid7 {
				t.Errorf("Quantile(%v) = %v, want %v", q, got, mid7)
			}
		}
		s := h.Summary()
		want := HistSummary{Count: 1, P50: mid7, P95: mid7, P99: mid7}
		if s != want {
			t.Errorf("Summary = %+v, want %+v", s, want)
		}
	})

	t.Run("two samples", func(t *testing.T) {
		h := NewHistogram(0, 10, 10)
		h.Add(2.5)
		h.Add(7.5)
		cases := []struct{ q, want float64 }{
			{0, mid2},    // rank clamps to 1: the smaller sample
			{0.5, mid2},  // ceil(0.5·2) = 1
			{0.51, mid7}, // ceil(1.02) = 2
			{0.95, mid7},
			{0.99, mid7},
			{1, mid7}, // never the histogram max
		}
		for _, tc := range cases {
			if got := h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		}
		s := h.Summary()
		want := HistSummary{Count: 2, P50: mid2, P95: mid7, P99: mid7}
		if s != want {
			t.Errorf("Summary = %+v, want %+v", s, want)
		}
	})
}
