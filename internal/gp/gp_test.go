package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestFitValidation(t *testing.T) {
	g := New()
	tests := []struct {
		name     string
		features [][]float64
		targets  []float64
	}{
		{name: "empty", features: nil, targets: nil},
		{name: "length mismatch", features: [][]float64{{1}}, targets: []float64{1, 2}},
		{name: "empty rows", features: [][]float64{{}}, targets: []float64{1}},
		{name: "ragged rows", features: [][]float64{{1, 2}, {3}}, targets: []float64{1, 2}},
		{name: "nan target", features: [][]float64{{1}}, targets: []float64{math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.Fit(tt.features, tt.targets); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestPredictBeforeFit(t *testing.T) {
	g := New()
	if g.Trained() {
		t.Error("untrained GP reports trained")
	}
	if _, err := g.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("error = %v, want ErrNotTrained", err)
	}
}

func TestPredictArity(t *testing.T) {
	g := New()
	if err := g.Fit([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if _, err := g.Predict([]float64{1}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	features := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}}
	targets := []float64{1, 3, 2, 7, 4}
	g := New()
	if err := g.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	for i, x := range features {
		pred, err := g.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		if math.Abs(pred.Mean-targets[i]) > 0.05*(1+math.Abs(targets[i])) {
			t.Errorf("Predict(%v).Mean = %v, want ~%v", x, pred.Mean, targets[i])
		}
		if pred.StdDev > 0.2*math.Sqrt(g.signalVariance) {
			t.Errorf("Predict(%v).StdDev = %v, want near 0 at a training point", x, pred.StdDev)
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	features := [][]float64{{0}, {1}, {2}, {3}}
	targets := []float64{0, 1, 4, 9}
	g := New()
	if err := g.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	near, err := g.Predict([]float64{1.5})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	far, err := g.Predict([]float64{30})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if far.StdDev <= near.StdDev {
		t.Errorf("uncertainty far from data (%v) not larger than near data (%v)", far.StdDev, near.StdDev)
	}
	// Far away from the data the posterior reverts to the mean of the
	// training targets.
	wantMean := (0.0 + 1 + 4 + 9) / 4
	if math.Abs(far.Mean-wantMean) > 1 {
		t.Errorf("far prediction mean = %v, want ~%v (prior mean)", far.Mean, wantMean)
	}
}

func TestSingleTrainingPoint(t *testing.T) {
	g := New()
	if err := g.Fit([][]float64{{2, 2}}, []float64{5}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	pred, err := g.Predict([]float64{2, 2})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if math.Abs(pred.Mean-5) > 1e-6 {
		t.Errorf("Predict at the only training point = %v, want 5", pred.Mean)
	}
}

func TestLearnsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	features := make([][]float64, 0, 60)
	targets := make([]float64, 0, 60)
	f := func(x, y float64) float64 { return math.Sin(3*x) + y*y }
	for i := 0; i < 60; i++ {
		x, y := rng.Float64(), rng.Float64()
		features = append(features, []float64{x, y})
		targets = append(targets, f(x, y))
	}
	g := New()
	if err := g.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	var sse, sst, meanY float64
	for _, y := range targets {
		meanY += y
	}
	meanY /= float64(len(targets))
	for i := 0; i < 50; i++ {
		x, y := rng.Float64(), rng.Float64()
		pred, err := g.Predict([]float64{x, y})
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		truth := f(x, y)
		sse += (pred.Mean - truth) * (pred.Mean - truth)
		sst += (truth - meanY) * (truth - meanY)
	}
	if r2 := 1 - sse/sst; r2 < 0.9 {
		t.Errorf("GP R^2 = %v, want >= 0.9 on a smooth function", r2)
	}
}

func TestConstantTargets(t *testing.T) {
	g := New()
	if err := g.Fit([][]float64{{1}, {2}, {3}}, []float64{7, 7, 7}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	pred, err := g.Predict([]float64{2.5})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if math.Abs(pred.Mean-7) > 1e-6 {
		t.Errorf("constant-target prediction = %v, want 7", pred.Mean)
	}
}

func TestRefitReplacesModel(t *testing.T) {
	g := New()
	if err := g.Fit([][]float64{{0}, {1}}, []float64{0, 0}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := g.Fit([][]float64{{0}, {1}}, []float64{10, 10}); err != nil {
		t.Fatalf("refit error: %v", err)
	}
	pred, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if math.Abs(pred.Mean-10) > 1e-6 {
		t.Errorf("prediction after refit = %v, want 10", pred.Mean)
	}
}

func TestCholeskyAgainstKnownFactor(t *testing.T) {
	m := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	want := [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	}
	l, err := cholesky(m)
	if err != nil {
		t.Fatalf("cholesky error: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-9 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholSolve(t *testing.T) {
	m := [][]float64{
		{4, 2},
		{2, 3},
	}
	l, err := cholesky(m)
	if err != nil {
		t.Fatalf("cholesky error: %v", err)
	}
	x, err := cholSolve(l, []float64{8, 7})
	if err != nil {
		t.Fatalf("cholSolve error: %v", err)
	}
	// Verify m·x = b.
	b0 := 4*x[0] + 2*x[1]
	b1 := 2*x[0] + 3*x[1]
	if math.Abs(b0-8) > 1e-9 || math.Abs(b1-7) > 1e-9 {
		t.Errorf("cholSolve solution %v does not satisfy the system", x)
	}
}

func TestMedianHelper(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestQuickVarianceNonNegativeAndFiniteMean(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		features := make([][]float64, n)
		targets := make([]float64, n)
		for i := range features {
			features[i] = []float64{rng.Float64() * 10, rng.Float64() * 100}
			targets[i] = rng.NormFloat64() * 50
		}
		g := New()
		if err := g.Fit(features, targets); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			pred, err := g.Predict([]float64{rng.Float64() * 20, rng.Float64() * 200})
			if err != nil {
				return false
			}
			if pred.StdDev < 0 || math.IsNaN(pred.StdDev) || math.IsNaN(pred.Mean) || math.IsInf(pred.Mean, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("GP predictive distribution property failed: %v", err)
	}
}

func TestPredictBatchMatchesScalarBitwise(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		features := make([][]float64, 25)
		targets := make([]float64, 25)
		for i := range features {
			features[i] = []float64{rng.Float64() * 10, rng.Float64() * 100}
			targets[i] = math.Sin(features[i][0]) + features[i][1]/50
		}
		g := New()
		if err := g.Fit(features, targets); err != nil {
			t.Fatalf("seed=%d: Fit error: %v", seed, err)
		}
		queries := make([][]float64, 60)
		cols := make([][]float64, 2)
		cols[0] = make([]float64, len(queries))
		cols[1] = make([]float64, len(queries))
		for i := range queries {
			queries[i] = []float64{rng.Float64() * 12, rng.Float64() * 120}
			cols[0][i] = queries[i][0]
			cols[1][i] = queries[i][1]
		}
		out := make([]numeric.Gaussian, len(queries))
		if err := g.PredictBatch(cols, out); err != nil {
			t.Fatalf("seed=%d: PredictBatch error: %v", seed, err)
		}
		for i, q := range queries {
			want, err := g.Predict(q)
			if err != nil {
				t.Fatalf("seed=%d: Predict error: %v", seed, err)
			}
			if out[i] != want {
				t.Fatalf("seed=%d query %d: batch %+v != scalar %+v", seed, i, out[i], want)
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	g := New()
	if err := g.PredictBatch([][]float64{{1}}, make([]numeric.Gaussian, 1)); !errors.Is(err, ErrNotTrained) {
		t.Errorf("PredictBatch before Fit error = %v, want ErrNotTrained", err)
	}
	if err := g.Fit([][]float64{{0, 0}, {1, 1}, {2, 0}}, []float64{0, 1, 2}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := g.PredictBatch([][]float64{{1}}, make([]numeric.Gaussian, 1)); err == nil {
		t.Error("PredictBatch with wrong column count: expected error, got nil")
	}
	if err := g.PredictBatch([][]float64{{1, 2}, {3}}, make([]numeric.Gaussian, 2)); err == nil {
		t.Error("PredictBatch with ragged columns: expected error, got nil")
	}
}
