package bagging

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func linearDataset(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	features := make([][]float64, n)
	targets := make([]float64, n)
	for i := range features {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 5
		features[i] = []float64{x0, x1}
		targets[i] = 3*x0 + 2*x1 + rng.NormFloat64()*noise
	}
	return features, targets
}

func TestPredictBeforeFit(t *testing.T) {
	e := New(Params{}, 1)
	if _, err := e.Predict([]float64{1, 2}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Predict before Fit error = %v, want ErrNotTrained", err)
	}
	if e.Trained() {
		t.Error("Trained() = true before Fit")
	}
}

func TestFitValidation(t *testing.T) {
	e := New(Params{}, 1)
	if err := e.Fit(nil, nil); err == nil {
		t.Error("empty training data should error")
	}
	if err := e.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	e := New(Params{}, 1)
	if e.NumTrees() != DefaultNumTrees {
		t.Errorf("NumTrees = %d, want %d (paper §5.2 uses 10 trees)", e.NumTrees(), DefaultNumTrees)
	}
}

func TestPredictArityCheck(t *testing.T) {
	e := New(Params{}, 1)
	features, targets := linearDataset(20, 0, 1)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if _, err := e.Predict([]float64{1}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestEnsembleLearnsSmoothFunction(t *testing.T) {
	features, targets := linearDataset(400, 0.2, 7)
	e := New(Params{NumTrees: 20}, 11)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	testFeatures, testTargets := linearDataset(100, 0, 99)
	var sse, sst float64
	var meanY float64
	for _, y := range testTargets {
		meanY += y
	}
	meanY /= float64(len(testTargets))
	for i, x := range testFeatures {
		pred, err := e.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		sse += (pred.Mean - testTargets[i]) * (pred.Mean - testTargets[i])
		sst += (testTargets[i] - meanY) * (testTargets[i] - meanY)
	}
	r2 := 1 - sse/sst
	if r2 < 0.85 {
		t.Errorf("ensemble R^2 = %v, want >= 0.85", r2)
	}
}

func TestFitIsReproducibleGivenSeed(t *testing.T) {
	features, targets := linearDataset(80, 0.5, 21)
	a := New(Params{NumTrees: 8}, 42)
	b := New(Params{NumTrees: 8}, 42)
	if err := a.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := b.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i), float64(i % 3)}
		pa, err := a.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		pb, err := b.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		if pa != pb {
			t.Fatalf("predictions diverge for identical seeds: %+v vs %+v", pa, pb)
		}
	}
}

func TestRefitReplacesModel(t *testing.T) {
	e := New(Params{NumTrees: 5}, 9)
	lowFeatures := [][]float64{{1}, {2}, {3}, {4}}
	lowTargets := []float64{1, 1, 1, 1}
	if err := e.Fit(lowFeatures, lowTargets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	highTargets := []float64{100, 100, 100, 100}
	if err := e.Fit(lowFeatures, highTargets); err != nil {
		t.Fatalf("refit error: %v", err)
	}
	pred, err := e.Predict([]float64{2})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if pred.Mean != 100 {
		t.Errorf("prediction after refit = %v, want 100", pred.Mean)
	}
}

func TestSingleSampleFit(t *testing.T) {
	e := New(Params{NumTrees: 4}, 2)
	if err := e.Fit([][]float64{{5, 5}}, []float64{13}); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	pred, err := e.Predict([]float64{0, 0})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if pred.Mean != 13 || pred.StdDev != 0 {
		t.Errorf("single-sample prediction = %+v, want mean 13, std 0", pred)
	}
}

// TestQuickPredictionWithinTargetRange: bagging predictions are averages of
// tree predictions, which are averages of targets, so they must stay within
// the target range.
func TestQuickPredictionWithinTargetRange(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		features := make([][]float64, n)
		targets := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range features {
			features[i] = []float64{rng.Float64() * 10, rng.Float64()}
			targets[i] = rng.NormFloat64() * 20
			if targets[i] < lo {
				lo = targets[i]
			}
			if targets[i] > hi {
				hi = targets[i]
			}
		}
		e := New(Params{NumTrees: 5}, seed)
		if err := e.Fit(features, targets); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			pred, err := e.Predict([]float64{rng.Float64() * 20, rng.Float64() * 2})
			if err != nil {
				return false
			}
			if pred.Mean < lo-1e-9 || pred.Mean > hi+1e-9 {
				return false
			}
			if pred.StdDev < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("bagging prediction range property failed: %v", err)
	}
}

// transpose turns row-major feature rows into the column-major matrix
// consumed by PredictBatch.
func transpose(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := make([][]float64, len(rows[0]))
	for f := range cols {
		cols[f] = make([]float64, len(rows))
		for i, row := range rows {
			cols[f][i] = row[f]
		}
	}
	return cols
}

// TestPredictBatchMatchesScalarBitwise is the model-level half of the batch
// determinism contract: for any seed and ensemble size, the batched sweep
// must emit Gaussians bitwise identical to sequential Predict calls.
func TestPredictBatchMatchesScalarBitwise(t *testing.T) {
	for _, trees := range []int{1, 5, 10, 20} {
		for seed := int64(1); seed <= 5; seed++ {
			features, targets := linearDataset(40, 1.0, seed)
			e := New(Params{NumTrees: trees}, seed)
			if err := e.Fit(features, targets); err != nil {
				t.Fatalf("trees=%d seed=%d: Fit error: %v", trees, seed, err)
			}
			rng := rand.New(rand.NewSource(seed + 100))
			queries := make([][]float64, 120)
			for i := range queries {
				queries[i] = []float64{rng.Float64() * 12, rng.Float64() * 6}
			}
			out := make([]numeric.Gaussian, len(queries))
			if err := e.PredictBatch(transpose(queries), out); err != nil {
				t.Fatalf("trees=%d seed=%d: PredictBatch error: %v", trees, seed, err)
			}
			for i, q := range queries {
				want, err := e.Predict(q)
				if err != nil {
					t.Fatalf("trees=%d seed=%d: Predict error: %v", trees, seed, err)
				}
				if out[i] != want {
					t.Fatalf("trees=%d seed=%d query %d: batch %+v != scalar %+v", trees, seed, i, out[i], want)
				}
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	e := New(Params{NumTrees: 3}, 1)
	if err := e.PredictBatch([][]float64{{1}, {2}}, make([]numeric.Gaussian, 1)); !errors.Is(err, ErrNotTrained) {
		t.Errorf("PredictBatch before Fit error = %v, want ErrNotTrained", err)
	}
	features, targets := linearDataset(20, 0.5, 1)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := e.PredictBatch([][]float64{{1}}, make([]numeric.Gaussian, 1)); err == nil {
		t.Error("PredictBatch with wrong column count: expected error, got nil")
	}
	if err := e.PredictBatch([][]float64{{1, 2}, {3}}, make([]numeric.Gaussian, 2)); err == nil {
		t.Error("PredictBatch with ragged columns: expected error, got nil")
	}
}

// TestPredictBatchZeroAllocsPerSweep is the allocation regression test of the
// batch path: after the first call has grown the scratch, a full sweep must
// not allocate at all — zero allocations per swept configuration.
func TestPredictBatchZeroAllocsPerSweep(t *testing.T) {
	features, targets := linearDataset(40, 1.0, 3)
	e := New(Params{NumTrees: 10}, 3)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	cols := transpose(features)
	out := make([]numeric.Gaussian, len(features))
	// Warm the scratch once so the steady-state sweep is measured.
	if err := e.PredictBatch(cols, out); err != nil {
		t.Fatalf("PredictBatch error: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.PredictBatch(cols, out); err != nil {
			t.Fatalf("PredictBatch error: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("PredictBatch allocations per sweep = %v, want 0", allocs)
	}
}

// TestScalarPredictZeroAllocs locks in the hoisted validation of the scalar
// path: one Predict call validates once and allocates nothing.
func TestScalarPredictZeroAllocs(t *testing.T) {
	features, targets := linearDataset(40, 1.0, 3)
	e := New(Params{NumTrees: 10}, 3)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	x := []float64{3, 2}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Predict(x); err != nil {
			t.Fatalf("Predict error: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Predict allocations per call = %v, want 0", allocs)
	}
}
