package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	mean, err := Mean(xs)
	if err != nil {
		t.Fatalf("Mean error: %v", err)
	}
	if mean != 5 {
		t.Errorf("Mean = %v, want 5", mean)
	}
	variance, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance error: %v", err)
	}
	if variance != 4 {
		t.Errorf("Variance = %v, want 4", variance)
	}
	std, err := StdDev(xs)
	if err != nil {
		t.Fatalf("StdDev error: %v", err)
	}
	if std != 2 {
		t.Errorf("StdDev = %v, want 2", std)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Mean(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := Variance(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Variance(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Percentile(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Min(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Max(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Summarize(nil) error = %v, want ErrEmptySample", err)
	}
	if _, err := FractionAtMost(nil, 1); !errors.Is(err, ErrEmptySample) {
		t.Errorf("FractionAtMost(nil) error = %v, want ErrEmptySample", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	minV, err := Min(xs)
	if err != nil || minV != -1 {
		t.Errorf("Min = %v, %v, want -1, nil", minV, err)
	}
	maxV, err := Max(xs)
	if err != nil || maxV != 7 {
		t.Errorf("Max = %v, %v, want 7, nil", maxV, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		name string
		p    float64
		want float64
	}{
		{name: "min", p: 0, want: 1},
		{name: "median", p: 50, want: 5.5},
		{name: "90th", p: 90, want: 9.1},
		{name: "max", p: 100, want: 10},
		{name: "25th", p: 25, want: 3.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Percentile(xs, tt.p)
			if err != nil {
				t.Fatalf("Percentile error: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestPercentileSingleElementAndInvalidP(t *testing.T) {
	got, err := Percentile([]float64{42}, 73)
	if err != nil || got != 42 {
		t.Errorf("Percentile single element = %v, %v, want 42, nil", got, err)
	}
	for _, p := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile([]float64{1, 2}, p); err == nil {
			t.Errorf("Percentile(%v) expected error", p)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	if _, err := Percentile(xs, 90); err != nil {
		t.Fatalf("Percentile error: %v", err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("Percentile mutated its input at %d: %v vs %v", i, xs, orig)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatalf("Summarize error: %v", err)
	}
	if s.Count != 100 {
		t.Errorf("Count = %d, want 100", s.Count)
	}
	if s.Mean != 50.5 {
		t.Errorf("Mean = %v, want 50.5", s.Mean)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("Min/Max = %v/%v, want 1/100", s.Min, s.Max)
	}
	if math.Abs(s.P50-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", s.P50)
	}
	if math.Abs(s.P90-90.1) > 1e-9 {
		t.Errorf("P90 = %v, want 90.1", s.P90)
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 1, 2, 3, 10}
	got, err := FractionAtMost(xs, 2)
	if err != nil {
		t.Fatalf("FractionAtMost error: %v", err)
	}
	if got != 0.6 {
		t.Errorf("FractionAtMost = %v, want 0.6", got)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	property := func(seed int64, pRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		p := math.Abs(math.Mod(pRaw, 100))
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		minV, _ := Min(xs)
		maxV, _ := Max(xs)
		return got >= minV-1e-9 && got <= maxV+1e-9
	}
	if err := quick.Check(property, nil); err != nil {
		t.Errorf("percentile out of sample range: %v", err)
	}
}
