package regtree

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainValidation(t *testing.T) {
	tests := []struct {
		name     string
		features [][]float64
		targets  []float64
		wantErr  error
	}{
		{name: "empty data", features: nil, targets: nil, wantErr: ErrNoTrainingData},
		{name: "length mismatch", features: [][]float64{{1}}, targets: []float64{1, 2}},
		{name: "empty rows", features: [][]float64{{}}, targets: []float64{1}},
		{name: "ragged rows", features: [][]float64{{1, 2}, {1}}, targets: []float64{1, 2}},
		{name: "nan target", features: [][]float64{{1}}, targets: []float64{math.NaN()}},
		{name: "inf target", features: [][]float64{{1}}, targets: []float64{math.Inf(1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Train(tt.features, tt.targets)
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSingleSampleTreePredictsConstant(t *testing.T) {
	tree, err := Train([][]float64{{1, 2, 3}}, []float64{42})
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	got, err := tree.Predict([]float64{9, 9, 9})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if got != 42 {
		t.Errorf("Predict = %v, want 42", got)
	}
	if tree.Leaves() != 1 || tree.Depth() != 1 {
		t.Errorf("Leaves/Depth = %d/%d, want 1/1", tree.Leaves(), tree.Depth())
	}
}

func TestTreeFitsTrainingDataExactly(t *testing.T) {
	// Distinct feature vectors with distinct targets: a fully grown tree must
	// reproduce the training targets exactly.
	features := [][]float64{
		{1, 10}, {1, 20}, {2, 10}, {2, 20}, {3, 10}, {3, 20},
	}
	targets := []float64{5, 7, 11, 13, 17, 19}
	tree, err := Train(features, targets)
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	for i, x := range features {
		got, err := tree.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		if got != targets[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, got, targets[i])
		}
	}
}

func TestTreeSplitsOnInformativeFeature(t *testing.T) {
	// Feature 0 is informative, feature 1 is pure noise with a constant value.
	features := [][]float64{
		{0, 5}, {1, 5}, {2, 5}, {3, 5},
		{10, 5}, {11, 5}, {12, 5}, {13, 5},
	}
	targets := []float64{1, 1, 1, 1, 100, 100, 100, 100}
	tree, err := Train(features, targets)
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	low, err := tree.Predict([]float64{2, 5})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	high, err := tree.Predict([]float64{12, 5})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if low != 1 || high != 100 {
		t.Errorf("Predict low/high = %v/%v, want 1/100", low, high)
	}
}

func TestConstantTargetsYieldSingleLeaf(t *testing.T) {
	features := [][]float64{{1}, {2}, {3}, {4}}
	targets := []float64{7, 7, 7, 7}
	tree, err := Train(features, targets)
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	if tree.Leaves() != 1 {
		t.Errorf("Leaves = %d, want 1 for constant targets", tree.Leaves())
	}
}

func TestPredictValidation(t *testing.T) {
	var nilTree *Tree
	if _, err := nilTree.Predict([]float64{1}); err == nil {
		t.Error("predict on nil tree should error")
	}
	tree, err := Train([][]float64{{1, 2}}, []float64{3})
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	if _, err := tree.Predict([]float64{1}); err == nil {
		t.Error("wrong arity should error")
	}
	if tree.NumFeatures() != 2 {
		t.Errorf("NumFeatures = %d, want 2", tree.NumFeatures())
	}
}

func TestTreeReducesErrorVersusGlobalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	features := make([][]float64, n)
	targets := make([]float64, n)
	for i := range features {
		x0 := rng.Float64() * 4
		x1 := rng.Float64() * 4
		features[i] = []float64{x0, x1}
		targets[i] = math.Sin(x0)*10 + x1*x1 + rng.NormFloat64()*0.1
	}
	tree, err := Train(features, targets)
	if err != nil {
		t.Fatalf("Train error: %v", err)
	}
	mean := 0.0
	for _, y := range targets {
		mean += y
	}
	mean /= float64(n)
	var sseTree, sseMean float64
	for i, x := range features {
		pred, err := tree.Predict(x)
		if err != nil {
			t.Fatalf("Predict error: %v", err)
		}
		sseTree += (pred - targets[i]) * (pred - targets[i])
		sseMean += (mean - targets[i]) * (mean - targets[i])
	}
	if sseTree > sseMean/4 {
		t.Errorf("tree SSE %v not substantially below mean-predictor SSE %v", sseTree, sseMean)
	}
}

// TestQuickPredictionWithinTargetRange checks the CART invariant that every
// prediction is a mean of training targets and therefore lies within their
// range.
func TestQuickPredictionWithinTargetRange(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		features := make([][]float64, n)
		targets := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range features {
			features[i] = []float64{rng.Float64() * 100, float64(rng.Intn(5)), rng.NormFloat64()}
			targets[i] = rng.NormFloat64() * 50
			if targets[i] < lo {
				lo = targets[i]
			}
			if targets[i] > hi {
				hi = targets[i]
			}
		}
		tree, err := Train(features, targets)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			x := []float64{rng.Float64() * 200, float64(rng.Intn(8)), rng.NormFloat64() * 2}
			pred, err := tree.Predict(x)
			if err != nil {
				return false
			}
			if pred < lo-1e-9 || pred > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("prediction range property failed: %v", err)
	}
}
