package model

import (
	"math"
	"testing"

	"repro/internal/bagging"
	"repro/internal/gp"
)

func trainingData() ([][]float64, []float64) {
	features := make([][]float64, 0, 30)
	targets := make([]float64, 0, 30)
	for i := 0; i < 30; i++ {
		x := float64(i) / 3
		y := float64(i % 5)
		features = append(features, []float64{x, y})
		targets = append(targets, 2*x+y)
	}
	return features, targets
}

func TestFactoriesProduceWorkingRegressors(t *testing.T) {
	features, targets := trainingData()
	factories := []Factory{
		NewBaggingFactory(bagging.Params{NumTrees: 8}, 7),
		NewGPFactory(),
	}
	for _, f := range factories {
		t.Run(f.Name(), func(t *testing.T) {
			reg := f.New(3)
			if err := reg.Fit(features, targets); err != nil {
				t.Fatalf("Fit error: %v", err)
			}
			pred, err := reg.Predict([]float64{5, 2})
			if err != nil {
				t.Fatalf("Predict error: %v", err)
			}
			want := 2*5.0 + 2
			if math.Abs(pred.Mean-want) > 3 {
				t.Errorf("prediction mean = %v, want ~%v", pred.Mean, want)
			}
			if pred.StdDev < 0 {
				t.Errorf("negative std %v", pred.StdDev)
			}
		})
	}
}

func TestBaggingFactoryStreamsAreDeterministic(t *testing.T) {
	features, targets := trainingData()
	f := NewBaggingFactory(bagging.Params{NumTrees: 6}, 11)
	a := f.New(4)
	b := f.New(4)
	if err := a.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := b.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	pa, err := a.Predict([]float64{3, 1})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	pb, err := b.Predict([]float64{3, 1})
	if err != nil {
		t.Fatalf("Predict error: %v", err)
	}
	if pa != pb {
		t.Errorf("same stream produced different models: %+v vs %+v", pa, pb)
	}
}

// spaceColumns builds a column-major matrix for a tiny 2-dimensional space of
// n configurations.
func spaceColumns(n int) ([][]float64, [][]float64) {
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	rows := make([][]float64, n)
	for id := 0; id < n; id++ {
		cols[0][id] = float64(id) / 2
		cols[1][id] = float64(id % 4)
		rows[id] = []float64{cols[0][id], cols[1][id]}
	}
	return cols, rows
}

func TestCachedPrefillMatchesPredictID(t *testing.T) {
	features, targets := trainingData()
	const n = 24
	cols, rows := spaceColumns(n)
	for _, tc := range []struct {
		name  string
		inner Regressor
	}{
		{name: "batch-bagging", inner: bagging.New(bagging.Params{NumTrees: 6}, 5)},
		{name: "batch-gp", inner: gp.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: an identical model whose memo stays off, so every
			// PredictID is a scalar Predict of the wrapped regressor.
			var ref Regressor = bagging.New(bagging.Params{NumTrees: 6}, 5)
			if tc.name == "batch-gp" {
				ref = gp.New()
			}
			cached := NewCached(tc.inner, n)
			refCached := NewCached(ref, n)
			if err := cached.Fit(features, targets); err != nil {
				t.Fatalf("Fit error: %v", err)
			}
			if err := refCached.Fit(features, targets); err != nil {
				t.Fatalf("Fit error: %v", err)
			}
			if err := cached.Prefill(cols); err != nil {
				t.Fatalf("Prefill error: %v", err)
			}
			for id := 0; id < n; id++ {
				got, err := cached.PredictID(id, rows[id])
				if err != nil {
					t.Fatalf("PredictID error: %v", err)
				}
				want, err := refCached.PredictID(id, rows[id])
				if err != nil {
					t.Fatalf("reference PredictID error: %v", err)
				}
				if got != want {
					t.Fatalf("config %d: prefetched %+v != scalar %+v", id, got, want)
				}
			}
		})
	}
}

func TestCachedPrefillInvalidatedByFit(t *testing.T) {
	features, targets := trainingData()
	const n = 8
	cols, rows := spaceColumns(n)
	cached := NewCached(bagging.New(bagging.Params{NumTrees: 4}, 9), n)
	if err := cached.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := cached.Prefill(cols); err != nil {
		t.Fatalf("Prefill error: %v", err)
	}
	before, err := cached.PredictID(3, rows[3])
	if err != nil {
		t.Fatalf("PredictID error: %v", err)
	}
	// Refit on shifted targets: the memo must switch off so the old prefilled
	// prediction is not served.
	shifted := make([]float64, len(targets))
	for i, y := range targets {
		shifted[i] = y + 100
	}
	if err := cached.Fit(features, shifted); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	after, err := cached.PredictID(3, rows[3])
	if err != nil {
		t.Fatalf("PredictID error: %v", err)
	}
	if before == after {
		t.Error("prefilled prediction survived a refit")
	}
}

func TestCachedPrefillValidation(t *testing.T) {
	cached := NewCached(bagging.New(bagging.Params{NumTrees: 4}, 9), 8)
	features, targets := trainingData()
	if err := cached.Fit(features, targets); err != nil {
		t.Fatalf("Fit error: %v", err)
	}
	if err := cached.Prefill([][]float64{make([]float64, 4), make([]float64, 8)}); err == nil {
		t.Error("Prefill with a short column: expected error, got nil")
	}
	if err := cached.Prefill([][]float64{make([]float64, 12), make([]float64, 12)}); err == nil {
		t.Error("Prefill with columns longer than the memo: expected error, got nil")
	}
	if err := cached.Prefill([][]float64{make([]float64, 8)}); err == nil {
		t.Error("Prefill with wrong column count: expected error, got nil")
	}
	if cached.MemoPreds() != nil {
		t.Error("memo is valid after a failed Prefill")
	}
}
