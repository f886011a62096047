package acquisition

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestExpectedImprovementZeroStd(t *testing.T) {
	tests := []struct {
		name string
		pred numeric.Gaussian
		best float64
		want float64
	}{
		{name: "improvement", pred: numeric.Gaussian{Mean: 5}, best: 8, want: 3},
		{name: "no improvement", pred: numeric.Gaussian{Mean: 10}, best: 8, want: 0},
		{name: "equal", pred: numeric.Gaussian{Mean: 8}, best: 8, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpectedImprovement(tt.pred, tt.best); got != tt.want {
				t.Errorf("EI = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestExpectedImprovementClosedForm(t *testing.T) {
	// With µ = best and σ = 1, EI = σ·φ(0) = 0.3989...
	pred := numeric.Gaussian{Mean: 4, StdDev: 1}
	got := ExpectedImprovement(pred, 4)
	want := numeric.NormalPDF(0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EI at z=0 = %v, want %v", got, want)
	}
	// One std of improvement: EI = 1·Φ(1) + 1·φ(1).
	got = ExpectedImprovement(numeric.Gaussian{Mean: 3, StdDev: 1}, 4)
	want = numeric.NormalCDF(1) + numeric.NormalPDF(1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EI at z=1 = %v, want %v", got, want)
	}
}

func TestExpectedImprovementIsNonNegativeAndMonotoneInUncertainty(t *testing.T) {
	property := func(meanRaw, stdRaw, bestRaw float64) bool {
		mean := math.Mod(meanRaw, 1e4)
		std := math.Abs(math.Mod(stdRaw, 1e3))
		best := math.Mod(bestRaw, 1e4)
		pred := numeric.Gaussian{Mean: mean, StdDev: std}
		ei := ExpectedImprovement(pred, best)
		if ei < 0 || math.IsNaN(ei) {
			return false
		}
		// More uncertainty can never decrease EI.
		eiWider := ExpectedImprovement(numeric.Gaussian{Mean: mean, StdDev: std + 1}, best)
		return eiWider >= ei-1e-9
	}
	if err := quick.Check(property, nil); err != nil {
		t.Errorf("EI property failed: %v", err)
	}
}

func TestConstraintProbability(t *testing.T) {
	pred := numeric.Gaussian{Mean: 10, StdDev: 2}
	// Threshold = Tmax·U = 600s · (1/60 $/s) = 10$ -> z = 0 -> p = 0.5.
	p, err := ConstraintProbability(pred, 600, 1.0/60)
	if err != nil {
		t.Fatalf("ConstraintProbability error: %v", err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Errorf("p = %v, want 0.5", p)
	}
	if _, err := ConstraintProbability(pred, 0, 1); err == nil {
		t.Error("zero Tmax should error")
	}
	if _, err := ConstraintProbability(pred, 10, 0); err == nil {
		t.Error("zero unit price should error")
	}
}

func TestConstrained(t *testing.T) {
	got, err := Constrained(2.0, 0.5, 0.5)
	if err != nil {
		t.Fatalf("Constrained error: %v", err)
	}
	if got != 0.5 {
		t.Errorf("Constrained = %v, want 0.5", got)
	}
	if _, err := Constrained(-1, 0.5); err == nil {
		t.Error("negative EI should error")
	}
	if _, err := Constrained(1, 1.5); err == nil {
		t.Error("probability above 1 should error")
	}
	if _, err := Constrained(1, -0.1); err == nil {
		t.Error("negative probability should error")
	}
	noConstraints, err := Constrained(3.0)
	if err != nil || noConstraints != 3.0 {
		t.Errorf("Constrained with no constraints = %v, %v", noConstraints, err)
	}
}

func TestIncumbentFallback(t *testing.T) {
	if got := IncumbentFallback(10, 2); got != 16 {
		t.Errorf("IncumbentFallback = %v, want 16", got)
	}
}

func TestArgMaxEIc(t *testing.T) {
	scores := []Score{
		{ConfigID: 4, EIc: 0.3},
		{ConfigID: 2, EIc: 0.9},
		{ConfigID: 9, EIc: 0.9},
		{ConfigID: 1, EIc: 0.1},
	}
	idx, err := ArgMaxEIc(scores)
	if err != nil {
		t.Fatalf("ArgMaxEIc error: %v", err)
	}
	if scores[idx].ConfigID != 2 {
		t.Errorf("ArgMaxEIc picked config %d, want 2 (ties break on lower ID)", scores[idx].ConfigID)
	}
	if _, err := ArgMaxEIc(nil); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("empty candidates error = %v, want ErrNoCandidates", err)
	}
}

func TestQuickConstrainedNeverExceedsEI(t *testing.T) {
	property := func(eiRaw, pRaw float64) bool {
		ei := math.Abs(math.Mod(eiRaw, 1e6))
		p := math.Abs(math.Mod(pRaw, 1.0))
		got, err := Constrained(ei, p)
		if err != nil {
			return false
		}
		return got <= ei+1e-12 && got >= 0
	}
	if err := quick.Check(property, nil); err != nil {
		t.Errorf("Constrained bound property failed: %v", err)
	}
}
