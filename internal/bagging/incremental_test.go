package bagging

import (
	"math"
	"sync"
	"testing"

	"repro/internal/numeric"
)

// incEnsembleFixture fits an incremental ensemble on a smooth function over a
// small discrete grid.
func incEnsembleFixture(t *testing.T, seed int64) (*Ensemble, [][]float64, []float64, func([]float64) float64) {
	t.Helper()
	fn := func(x []float64) float64 { return 2*x[0] + x[1]*x[1] }
	features := make([][]float64, 0, 36)
	targets := make([]float64, 0, 36)
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			x := []float64{float64(a), float64(b)}
			features = append(features, x)
			targets = append(targets, fn(x))
		}
	}
	e := New(Params{NumTrees: 10, Incremental: true}, seed)
	if err := e.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return e, features, targets, fn
}

func TestIncrementalFitPredictsBitwiseLikePlainFit(t *testing.T) {
	fn := func(x []float64) float64 { return 2*x[0] + x[1] }
	features := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	targets := make([]float64, len(features))
	for i, x := range features {
		targets[i] = fn(x)
	}
	plain := New(Params{NumTrees: 7}, 11)
	inc := New(Params{NumTrees: 7, Incremental: true}, 11)
	if err := plain.Fit(features, targets); err != nil {
		t.Fatalf("plain Fit: %v", err)
	}
	if err := inc.Fit(features, targets); err != nil {
		t.Fatalf("incremental Fit: %v", err)
	}
	for _, x := range features {
		a, _ := plain.Predict(x)
		b, _ := inc.Predict(x)
		if a != b {
			t.Fatalf("predictions differ at %v: %v vs %v", x, a, b)
		}
	}
}

func TestUpdateRequiresIncrementalFit(t *testing.T) {
	e := New(Params{NumTrees: 3}, 1)
	if err := e.Update([]float64{0}, 1); err != ErrNotTrained {
		t.Fatalf("Update before Fit = %v, want ErrNotTrained", err)
	}
	if err := e.Fit([][]float64{{0}, {1}}, []float64{0, 1}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := e.Update([]float64{0}, 1); err != ErrNotIncremental {
		t.Fatalf("Update on plain fit = %v, want ErrNotIncremental", err)
	}
	if err := e.CloneInto(New(Params{NumTrees: 3}, 2)); err != ErrNotIncremental {
		t.Fatalf("CloneInto on plain fit = %v, want ErrNotIncremental", err)
	}
}

func TestUpdateMovesPredictionsTowardNewSample(t *testing.T) {
	e, _, _, _ := incEnsembleFixture(t, 5)
	x := []float64{3, 3}
	before, err := e.Predict(x)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	// Feed the same outlier repeatedly; the covering leaves' means must move
	// toward it.
	target := before.Mean + 50
	for i := 0; i < 8; i++ {
		if err := e.Update(x, target); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	after, err := e.Predict(x)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if after.Mean <= before.Mean {
		t.Fatalf("prediction did not move toward the inserted target: %v -> %v", before.Mean, after.Mean)
	}
	if e.Updates() != 8 {
		t.Fatalf("Updates = %d, want 8", e.Updates())
	}
}

func TestUpdateIsDeterministicAcrossClones(t *testing.T) {
	parent, features, _, fn := incEnsembleFixture(t, 9)
	mk := func() *Ensemble {
		c := New(parent.params, 12345) // distinct construction seed must not matter
		if err := parent.CloneInto(c); err != nil {
			t.Fatalf("CloneInto: %v", err)
		}
		return c
	}
	a, b := mk(), mk()
	stream := []struct {
		x []float64
		y float64
	}{
		{[]float64{1.5, 2}, fn([]float64{1.5, 2})},
		{[]float64{4, 0.5}, fn([]float64{4, 0.5}) + 1},
		{[]float64{2, 2}, fn([]float64{2, 2}) - 3},
	}
	for _, s := range stream {
		if err := a.Update(s.x, s.y); err != nil {
			t.Fatalf("Update a: %v", err)
		}
		if err := b.Update(s.x, s.y); err != nil {
			t.Fatalf("Update b: %v", err)
		}
	}
	for _, x := range features {
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatalf("clone predictions diverged at %v: %+v vs %+v", x, pa, pb)
		}
	}
}

func TestCloneIntoLeavesParentUntouched(t *testing.T) {
	parent, features, _, _ := incEnsembleFixture(t, 21)
	before := make([]numeric.Gaussian, len(features))
	for i, x := range features {
		before[i], _ = parent.Predict(x)
	}
	clone := New(parent.params, 77)
	if err := parent.CloneInto(clone); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := clone.Update([]float64{1, 1}, 99); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	for i, x := range features {
		after, _ := parent.Predict(x)
		if after != before[i] {
			t.Fatalf("parent moved at %v: %+v -> %+v", x, before[i], after)
		}
	}
	if parent.Updates() != 0 {
		t.Fatalf("parent Updates = %d, want 0", parent.Updates())
	}
}

func TestInclusionMultiplicityMatchesPoisson(t *testing.T) {
	// Over many draws the multiplicities must follow Poisson(1) closely:
	// mean ~1, P(0) ~ 1/e.
	const n = 200_000
	zeros, total := 0, 0
	for i := 0; i < n; i++ {
		m := inclusionMultiplicity(updateStream(42, i%10, i))
		total += m
		if m == 0 {
			zeros++
		}
	}
	mean := float64(total) / n
	p0 := float64(zeros) / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("multiplicity mean = %v, want ~1", mean)
	}
	if math.Abs(p0-math.Exp(-1)) > 0.01 {
		t.Errorf("P(multiplicity=0) = %v, want ~%v", p0, math.Exp(-1))
	}
}

// TestPredictBatchConcurrentSweeps exercises concurrent batched sweeps over
// one fitted ensemble — the shared-scratch hazard fixed by moving the
// gathered row to the caller's stack. Run under -race this fails loudly if
// PredictBatch ever regains shared mutable state.
func TestPredictBatchConcurrentSweeps(t *testing.T) {
	e, features, _, _ := incEnsembleFixture(t, 13)
	cols := make([][]float64, 2)
	for f := range cols {
		cols[f] = make([]float64, len(features))
		for i, row := range features {
			cols[f][i] = row[f]
		}
	}
	want := make([]numeric.Gaussian, len(features))
	if err := e.PredictBatch(cols, want); err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([][]numeric.Gaussian, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]numeric.Gaussian, len(features))
			for iter := 0; iter < 50; iter++ {
				if err := e.PredictBatch(cols, out); err != nil {
					errs[g] = err
					return
				}
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		for i := range want {
			if outs[g][i] != want[i] {
				t.Fatalf("goroutine %d point %d = %+v, want %+v", g, i, outs[g][i], want[i])
			}
		}
	}
}
