package baselines

import (
	"math"
	"testing"

	"repro/internal/bagging"
	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/optimizer"
	"repro/internal/synth"
)

// fixtureJob builds the same 4x4 job used by the core tests: parameter 1 is
// best, cost is minimized at a medium cluster.
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
		paramFactor := 1.0 + 2.5*math.Abs(param-1)
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
	job, err := dataset.NewJob("baseline-fixture", space, measurements, 0, map[string][]float64{"energy": energy})
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

func TestBOOptimize(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 11)
	optimum, err := env.Job().Optimum(opts.MaxRuntimeSeconds)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}
	b := NewBO(BOParams{Model: bagging.Params{NumTrees: 6}})
	res, err := b.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if !res.RecommendedFeasible {
		t.Error("recommendation not feasible")
	}
	if cno := res.Recommended.Cost / optimum.Cost; cno > 3 {
		t.Errorf("CNO = %v, want <= 3 on this easy fixture", cno)
	}
	if res.Explorations < 2 || res.Explorations != len(res.Trials) {
		t.Errorf("explorations = %d, trials = %d", res.Explorations, len(res.Trials))
	}
	if res.OptimizerName != "bo" {
		t.Errorf("name = %q", res.OptimizerName)
	}
}

func TestBOOptimizeValidatesInput(t *testing.T) {
	b := NewBO(BOParams{})
	if _, err := b.Optimize(nil, fixtureOptions(t, 1)); err == nil {
		t.Error("nil environment should error")
	}
	if _, err := b.Optimize(fixtureEnv(t), optimizer.Options{}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestBOIsDeterministic(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 17)
	b := NewBO(BOParams{Model: bagging.Params{NumTrees: 6}})
	a, err := b.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	c, err := b.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if len(a.Trials) != len(c.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(c.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i].Config.ID != c.Trials[i].Config.ID {
			t.Fatalf("trial %d differs", i)
		}
	}
}

func TestBOWithExtraConstraint(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 29)
	opts.ExtraConstraints = []optimizer.Constraint{{Metric: "energy", Max: 40}}
	b := NewBO(BOParams{Model: bagging.Params{NumTrees: 6}})
	res, err := b.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if res.RecommendedFeasible && res.Recommended.Extra["energy"] > 40 {
		t.Errorf("recommendation violates the energy constraint: %v", res.Recommended.Extra["energy"])
	}
}

func TestRandomOptimize(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 31)
	r := NewRandom()
	if r.Name() != "rnd" {
		t.Errorf("Name = %q", r.Name())
	}
	res, err := r.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if res.Explorations < 2 {
		t.Errorf("explorations = %d", res.Explorations)
	}
	// RND stops only when the budget is depleted or the space is exhausted.
	if res.SpentBudget < res.InitialBudget && res.Explorations < env.Space().Size() {
		t.Errorf("RND stopped early: spent %v of %v after %d explorations",
			res.SpentBudget, res.InitialBudget, res.Explorations)
	}
	// The recommendation is the best feasible configuration among the trials.
	bestCost := math.Inf(1)
	for _, tr := range res.Trials {
		if tr.Feasible(opts.MaxRuntimeSeconds, nil) && tr.Cost < bestCost {
			bestCost = tr.Cost
		}
	}
	if res.RecommendedFeasible && res.Recommended.Cost != bestCost {
		t.Errorf("recommendation cost %v != best tried feasible cost %v", res.Recommended.Cost, bestCost)
	}
}

func TestRandomOptimizeValidatesInput(t *testing.T) {
	r := NewRandom()
	if _, err := r.Optimize(nil, fixtureOptions(t, 1)); err == nil {
		t.Error("nil environment should error")
	}
	if _, err := r.Optimize(fixtureEnv(t), optimizer.Options{}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 37)
	r := NewRandom()
	a, err := r.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	b, err := r.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ")
	}
	for i := range a.Trials {
		if a.Trials[i].Config.ID != b.Trials[i].Config.ID {
			t.Fatalf("trial %d differs", i)
		}
	}
}

// TestBaselinesHonourRetryPolicy runs BO and RND on the 72-point Scout space
// under 20 % injected transient faults with a retrying, quarantining policy:
// decision-phase trials go through the same retry loop as the bootstrap, so
// no seed aborts on a transient failure.
func TestBaselinesHonourRetryPolicy(t *testing.T) {
	jobs, err := synth.ScoutJobs(42)
	if err != nil {
		t.Fatalf("ScoutJobs: %v", err)
	}
	job := jobs[0]
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), optimizer.Options{})
	if err != nil {
		t.Fatalf("ResolveBootstrapSize: %v", err)
	}
	bo := NewBO(BOParams{})
	for _, opt := range []optimizer.Optimizer{bo, NewRandom()} {
		for seed := int64(1); seed <= 5; seed++ {
			inner, err := optimizer.NewJobEnvironment(job)
			if err != nil {
				t.Fatalf("NewJobEnvironment: %v", err)
			}
			env, err := faults.New(inner, faults.Params{Seed: seed, TransientRate: 0.2, FailedCostFraction: 0.25})
			if err != nil {
				t.Fatalf("faults.New: %v", err)
			}
			res, err := opt.Optimize(env, optimizer.Options{
				Budget:            float64(bootstrap) * job.MeanCost() * 4,
				MaxRuntimeSeconds: tmax,
				Seed:              seed,
				Retry:             optimizer.RetryPolicy{MaxAttempts: 3, Quarantine: true},
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", opt.Name(), seed, err)
			}
			if res.Explorations <= bootstrap {
				t.Fatalf("%s seed %d: %d explorations, want a decision phase", opt.Name(), seed, res.Explorations)
			}
		}
	}
}

func TestDisjointValidation(t *testing.T) {
	job := fixtureJob(t)
	if _, err := Disjoint(nil, []int{1}, 1000); err == nil {
		t.Error("nil job should error")
	}
	if _, err := Disjoint(job, nil, 1000); err == nil {
		t.Error("empty cloud dims should error")
	}
	if _, err := Disjoint(job, []int{0, 1}, 1000); err == nil {
		t.Error("all dims as cloud dims should error")
	}
	if _, err := Disjoint(job, []int{5}, 1000); err == nil {
		t.Error("out-of-range cloud dim should error")
	}
	if _, err := Disjoint(job, []int{1, 1}, 1000); err == nil {
		t.Error("duplicate cloud dim should error")
	}
	if _, err := Disjoint(job, []int{1}, 0.001); err == nil {
		t.Error("impossible constraint should error")
	}
}

func TestDisjointUpperBoundsAndCanMissOptimum(t *testing.T) {
	// Craft a job where the best parameter on small clusters differs from
	// the best parameter on large clusters, so disjoint optimization starting
	// from a small reference cluster misses the global optimum.
	space, err := configspace.New([]configspace.Dimension{
		{Name: "param", Values: []float64{0, 1}},
		{Name: "cluster", Values: []float64{1, 2}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	// Costs: (param0,cl1)=4 (param1,cl1)=3 (param0,cl2)=1 (param1,cl2)=5.
	// Global optimum: param0 on cluster2, cost 1. Starting from cluster1 the
	// best param is param1 (3), and the best cluster for param1 is cluster1
	// (3) -> CNO 3.
	costs := map[[2]int]float64{
		{0, 0}: 4, {1, 0}: 3, {0, 1}: 1, {1, 1}: 5,
	}
	measurements := make([]dataset.Measurement, space.Size())
	for _, cfg := range space.Configs() {
		c := costs[[2]int{cfg.Indices[0], cfg.Indices[1]}]
		measurements[cfg.ID] = dataset.Measurement{
			ConfigID:         cfg.ID,
			RuntimeSeconds:   100,
			UnitPricePerHour: c * 36,
			Cost:             c,
		}
	}
	job, err := dataset.NewJob("disjoint-fixture", space, measurements, 0, nil)
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}

	results, err := Disjoint(job, []int{1}, 1000)
	if err != nil {
		t.Fatalf("Disjoint error: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want one per reference cloud setting (2)", len(results))
	}
	foundOptimal, foundSuboptimal := false, false
	for _, r := range results {
		if r.CNO < 1-1e-9 {
			t.Errorf("CNO %v below 1; disjoint cannot beat the true optimum", r.CNO)
		}
		if math.Abs(r.CNO-1) < 1e-9 {
			foundOptimal = true
		}
		if r.CNO > 2.9 {
			foundSuboptimal = true
		}
	}
	if !foundOptimal {
		t.Error("no reference cluster led disjoint optimization to the optimum")
	}
	if !foundSuboptimal {
		t.Error("no reference cluster exposed the sub-optimality of disjoint optimization")
	}
}

func TestDisjointOnFixtureJob(t *testing.T) {
	job := fixtureJob(t)
	tmax, err := job.RuntimeForFeasibleFraction(0.7)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	results, err := Disjoint(job, []int{1}, tmax)
	if err != nil {
		t.Fatalf("Disjoint error: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("no disjoint results")
	}
	for _, r := range results {
		if r.CNO < 1-1e-9 {
			t.Errorf("CNO %v below 1", r.CNO)
		}
		if r.FinalCost <= 0 {
			t.Errorf("non-positive final cost %v", r.FinalCost)
		}
	}
}
