package core

import (
	"testing"

	"repro/internal/model"
)

// TestOptimizeWithGaussianProcessModel exercises the footnote-1 variant of
// the paper: Lynceus planning on a Gaussian-Process cost model instead of the
// bagging ensemble.
func TestOptimizeWithGaussianProcessModel(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 19)
	optimum, err := env.Job().Optimum(opts.MaxRuntimeSeconds)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}

	l, err := New(Params{
		Lookahead:    1,
		GHOrder:      3,
		ModelFactory: model.NewGPFactory(),
		Workers:      2,
	})
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	res, err := l.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if !res.RecommendedFeasible {
		t.Error("recommendation not feasible")
	}
	if cno := res.Recommended.Cost / optimum.Cost; cno > 2.5 {
		t.Errorf("CNO with GP model = %v, want <= 2.5 on this easy fixture", cno)
	}
	if res.Explorations < 2 {
		t.Errorf("explorations = %d", res.Explorations)
	}
}
