package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/bagging"
	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/optimizer"
)

// fixtureJob builds a 4x4 job with an interior optimum: runtime decreases
// with the cluster size, cost is minimized at a medium cluster with the right
// parameter, and the "bad" parameter values are much slower.
func fixtureJob(t *testing.T) *dataset.Job {
	t.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "param", Values: []float64{0, 1, 2, 3}},
		{Name: "cluster", Values: []float64{1, 2, 4, 8}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	measurements := make([]dataset.Measurement, space.Size())
	energy := make([]float64, space.Size())
	for _, cfg := range space.Configs() {
		param := cfg.Features[0]
		cluster := cfg.Features[1]
		// Parameter 1 is best; others are 2x-6x slower.
		paramFactor := 1.0 + 2.5*math.Abs(param-1)
		// Diminishing parallel speedup.
		runtime := 2400 * paramFactor / math.Pow(cluster, 0.8)
		price := 0.2 * cluster
		measurements[cfg.ID] = dataset.Measurement{
			ConfigID:         cfg.ID,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: price,
			Cost:             runtime / 3600 * price,
		}
		energy[cfg.ID] = runtime * cluster / 100
	}
	job, err := dataset.NewJob("core-fixture", space, measurements, 0, map[string][]float64{"energy": energy})
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	return job
}

func fixtureEnv(t *testing.T) *optimizer.JobEnvironment {
	t.Helper()
	env, err := optimizer.NewJobEnvironment(fixtureJob(t))
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	return env
}

// fixtureOptions returns options with a medium budget (enough for roughly ten
// average-cost runs) and a runtime constraint satisfied by about half of the
// configurations.
func fixtureOptions(t *testing.T, seed int64) optimizer.Options {
	t.Helper()
	job := fixtureJob(t)
	tmax, err := job.RuntimeForFeasibleFraction(0.6)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	return optimizer.Options{
		Budget:            10 * job.MeanCost(),
		MaxRuntimeSeconds: tmax,
		Seed:              seed,
	}
}

func fastParams(lookahead int) Params {
	return Params{
		Lookahead: lookahead,
		GHOrder:   3,
		Model:     bagging.Params{NumTrees: 6},
		Workers:   2,
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		params Params
	}{
		{name: "negative lookahead", params: Params{Lookahead: -1}},
		{name: "discount above one", params: Params{Discount: 1.5}},
		{name: "negative gh order", params: Params{GHOrder: -2}},
		{name: "bad eligibility", params: Params{EligibilityProb: 1.5}},
		{name: "negative workers", params: Params{Workers: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.params); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	l, err := New(Params{})
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	p := l.Params()
	if p.Lookahead != 0 {
		t.Errorf("default lookahead = %d (zero value means LA=0; use DefaultLookahead explicitly)", p.Lookahead)
	}
	if p.Discount != DefaultDiscount {
		t.Errorf("discount = %v, want %v", p.Discount, DefaultDiscount)
	}
	if p.GHOrder != DefaultGHOrder {
		t.Errorf("gh order = %d, want %d", p.GHOrder, DefaultGHOrder)
	}
	if p.EligibilityProb != DefaultEligibilityProb {
		t.Errorf("eligibility = %v, want %v", p.EligibilityProb, DefaultEligibilityProb)
	}
	if p.Workers <= 0 {
		t.Errorf("workers = %d, want > 0", p.Workers)
	}

	noDiscount, err := New(Params{NoDiscount: true})
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if noDiscount.Params().Discount != 0 {
		t.Errorf("NoDiscount did not force gamma to 0: %v", noDiscount.Params().Discount)
	}
}

func TestName(t *testing.T) {
	for _, la := range []int{0, 1, 2} {
		l, err := New(fastParams(la))
		if err != nil {
			t.Fatalf("New error: %v", err)
		}
		want := map[int]string{0: "lynceus-la0", 1: "lynceus-la1", 2: "lynceus-la2"}[la]
		if l.Name() != want {
			t.Errorf("Name = %q, want %q", l.Name(), want)
		}
	}
}

func TestOptimizeValidatesInput(t *testing.T) {
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if _, err := l.Optimize(nil, fixtureOptions(t, 1)); err == nil {
		t.Error("nil environment should error")
	}
	if _, err := l.Optimize(fixtureEnv(t), optimizer.Options{}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestOptimizeFindsGoodConfiguration(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 7)
	optimum, err := env.Job().Optimum(opts.MaxRuntimeSeconds)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}

	l, err := New(fastParams(1))
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
	cno := res.Recommended.Cost / optimum.Cost
	if cno > 2.0 {
		t.Errorf("CNO = %v, want <= 2.0 on this easy fixture", cno)
	}
	if res.Explorations < 2 {
		t.Errorf("explorations = %d, want at least the bootstrap size", res.Explorations)
	}
	if res.Explorations != len(res.Trials) {
		t.Errorf("explorations %d != trials %d", res.Explorations, len(res.Trials))
	}
	if res.SpentBudget <= 0 {
		t.Errorf("spent budget = %v", res.SpentBudget)
	}
	if res.OptimizerName != "lynceus-la1" {
		t.Errorf("optimizer name = %q", res.OptimizerName)
	}
}

func TestOptimizeRespectsTinyBudget(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	// A budget barely covering the bootstrap leaves no room for exploration.
	opts.Budget = env.Job().MeanCost() * 0.5
	l, err := New(fastParams(2))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	res, err := l.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	// Bootstrap is 2 configurations for this space; with essentially no
	// remaining budget the optimizer must stop almost immediately.
	if res.Explorations > 4 {
		t.Errorf("explorations = %d with a tiny budget, want <= 4", res.Explorations)
	}
}

func TestOptimizeLookaheadZeroAndTwo(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 13)
	for _, la := range []int{0, 2} {
		l, err := New(fastParams(la))
		if err != nil {
			t.Fatalf("New error: %v", err)
		}
		res, err := l.Optimize(env, opts)
		if err != nil {
			t.Fatalf("Optimize(LA=%d) error: %v", la, err)
		}
		if res.Explorations < 2 {
			t.Errorf("LA=%d explorations = %d", la, res.Explorations)
		}
	}
}

func TestOptimizeWithExtraConstraint(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 5)
	// Constrain the synthetic energy metric to a value that excludes the
	// largest clusters.
	opts.ExtraConstraints = []optimizer.Constraint{{Metric: "energy", Max: 40}}
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	res, err := l.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if res.RecommendedFeasible && res.Recommended.Extra["energy"] > 40 {
		t.Errorf("recommendation violates the energy constraint: %v", res.Recommended.Extra["energy"])
	}
}

func TestOptimizeWithSetupCost(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 9)
	var setupCalls atomic.Int64
	opts.SetupCost = func(from *configspace.Config, to configspace.Config) float64 {
		setupCalls.Add(1)
		if from != nil && from.ID == to.ID {
			return 0
		}
		return 0.01
	}
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	res, err := l.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if setupCalls.Load() == 0 {
		t.Error("setup cost function never invoked")
	}
	// The spent budget must include the setup charges: it is strictly larger
	// than the sum of the trial costs.
	sumCosts := 0.0
	for _, tr := range res.Trials {
		sumCosts += tr.Cost
	}
	if res.SpentBudget <= sumCosts {
		t.Errorf("spent budget %v does not include setup costs (trial costs sum to %v)", res.SpentBudget, sumCosts)
	}
}

func TestSelectBestRatio(t *testing.T) {
	if _, ok := selectBestRatio(nil); ok {
		t.Error("empty scores should report not ok")
	}
	scores := []pathScore{
		{candidateID: 3, reward: 1.0, cost: 10},
		{candidateID: 1, reward: 0.5, cost: 1},
		{candidateID: 2, reward: 0.5, cost: 1},
	}
	id, ok := selectBestRatio(scores)
	if !ok || id != 1 {
		t.Errorf("selectBestRatio = %d, %v, want 1 (ties break on lower ID)", id, ok)
	}
	zeroCost := []pathScore{{candidateID: 5, reward: 0.1, cost: 0}}
	if id, ok := selectBestRatio(zeroCost); !ok || id != 5 {
		t.Errorf("zero-cost path selection = %d, %v", id, ok)
	}
}

func TestSchedulerRunIndexesResults(t *testing.T) {
	n := 20
	sched := newSpecScheduler(4, nil, "")
	scores := make([]pathScore, n)
	sched.run(n, func(w *specWorker, i int) {
		scores[i] = pathScore{candidateID: i, reward: float64(i), cost: 1}
	})
	for i, s := range scores {
		if s.candidateID != i {
			t.Errorf("score %d has candidate %d; results must be indexed by input order", i, s.candidateID)
		}
	}

	wantErr := errors.New("boom")
	errs := make([]error, 10)
	sched.run(10, func(w *specWorker, i int) {
		if i >= 7 {
			errs[i] = fmt.Errorf("wrapped %d: %w", i, wantErr)
		}
	})
	if err := firstError(errs); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	} else if err.Error() != "wrapped 7: boom" {
		t.Errorf("firstError must return the lowest-indexed error, got %v", err)
	}
}

// withEntry returns a new training set extended with one speculated entry.
// The receiver is not modified.
func (ts *trainSet) withEntry(features []float64, cost float64, extras []float64, feasible bool) *trainSet {
	return ts.withEntryInto(&trainSet{}, features, cost, extras, feasible)
}

func TestTrainSetWithEntryDoesNotMutateParent(t *testing.T) {
	parent := &trainSet{
		features: [][]float64{{1, 2}},
		costs:    []float64{3},
		extras:   [][]float64{{5}},
		feasible: []bool{true},
	}
	child := parent.withEntry([]float64{7, 8}, 9, []float64{10}, false)
	if len(parent.costs) != 1 || len(parent.features) != 1 || len(parent.extras[0]) != 1 {
		t.Errorf("parent mutated: %+v", parent)
	}
	if len(child.costs) != 2 || child.costs[1] != 9 || child.extras[0][1] != 10 || child.feasible[1] {
		t.Errorf("child malformed: %+v", child)
	}
	best, ok := child.bestFeasibleCost()
	if !ok || best != 3 {
		t.Errorf("bestFeasibleCost = %v, %v, want 3, true", best, ok)
	}
	if child.maxCost() != 9 {
		t.Errorf("maxCost = %v, want 9", child.maxCost())
	}
}
