package bagging_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bagging"
	"repro/internal/model"
	"repro/internal/numeric"
)

// The per-stream ensembles Lynceus' path simulation retrains are built by
// model.BaggingFactory, which derives each stream's seed for bagging.New.

func streamDataset(n int, noise float64, seed int64) ([][]float64, []float64) {
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

func TestFactoryStreamsAreIndependentAndDeterministic(t *testing.T) {
	features, targets := streamDataset(60, 2.0, 17)
	f := model.NewBaggingFactory(bagging.Params{NumTrees: 6}, 1234)
	if got := f.New(0).(*bagging.Ensemble).NumTrees(); got != 6 {
		t.Errorf("factory ensembles have %d trees, want 6", got)
	}

	x := []float64{4, 2}
	distinct := map[numeric.Gaussian]bool{}
	for stream := int64(0); stream < 8; stream++ {
		a, b := f.New(stream), f.New(stream)
		for _, e := range []model.Regressor{a, b} {
			if err := e.Fit(features, targets); err != nil {
				t.Fatalf("stream %d: Fit error: %v", stream, err)
			}
		}
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Errorf("stream %d yielded different models: %+v vs %+v", stream, pa, pb)
		}
		distinct[pa] = true
	}
	if len(distinct) < 2 {
		t.Errorf("8 streams produced %d distinct models, want distinct resamples", len(distinct))
	}
}

func TestFactoryConcurrentUse(t *testing.T) {
	features, targets := streamDataset(50, 1.0, 23)
	f := model.NewBaggingFactory(bagging.Params{NumTrees: 5}, 99)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			e := f.New(int64(stream))
			if err := e.Fit(features, targets); err != nil {
				errs[stream] = err
				return
			}
			if _, err := e.Predict([]float64{1, 1}); err != nil {
				errs[stream] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
}
