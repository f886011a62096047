package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/configspace"
	"repro/internal/dataset"
)

// fixtureJob builds a 3x4 job whose cost decreases with the config ID so that
// tests can reason about optima easily.
func fixtureJob(t *testing.T) *dataset.Job {
	t.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "vm", Values: []float64{0, 1, 2}, Labels: []string{"s", "m", "l"}},
		{Name: "workers", Values: []float64{2, 4, 8, 16}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	measurements := make([]dataset.Measurement, space.Size())
	for id := 0; id < space.Size(); id++ {
		runtime := float64(1200 - 90*id)
		price := 0.5 + 0.1*float64(id)
		measurements[id] = dataset.Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: price,
			Cost:             runtime / 3600 * price,
			Extra:            map[string]float64{"energy": float64(100 - id)},
		}
	}
	job, err := dataset.NewJob("fixture", space, measurements, 0)
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	return job
}

func fixtureEnv(t *testing.T) *JobEnvironment {
	t.Helper()
	env, err := NewJobEnvironment(fixtureJob(t))
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	return env
}

func TestOptionsValidate(t *testing.T) {
	valid := Options{Budget: 10, MaxRuntimeSeconds: 600}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	invalid := []Options{
		{Budget: 0, MaxRuntimeSeconds: 600},
		{Budget: -1, MaxRuntimeSeconds: 600},
		{Budget: math.NaN(), MaxRuntimeSeconds: 600},
		{Budget: 10, MaxRuntimeSeconds: 0},
		{Budget: 10, MaxRuntimeSeconds: 600, BootstrapSize: -1},
		{Budget: 10, MaxRuntimeSeconds: 600, ExtraConstraints: []Constraint{{Metric: ""}}},
	}
	for i, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options %d accepted: %+v", i, o)
		}
	}
}

func TestTrialResultFeasible(t *testing.T) {
	tr := TrialResult{RuntimeSeconds: 100, Extra: map[string]float64{"energy": 50}}
	if !tr.Feasible(200, nil) {
		t.Error("trial within Tmax reported infeasible")
	}
	if tr.Feasible(50, nil) {
		t.Error("trial beyond Tmax reported feasible")
	}
	if !tr.Feasible(200, []Constraint{{Metric: "energy", Max: 60}}) {
		t.Error("trial within extra constraint reported infeasible")
	}
	if tr.Feasible(200, []Constraint{{Metric: "energy", Max: 40}}) {
		t.Error("trial violating extra constraint reported feasible")
	}
	if tr.Feasible(200, []Constraint{{Metric: "missing", Max: 1}}) {
		t.Error("trial missing a constrained metric reported feasible")
	}
	timedOut := TrialResult{RuntimeSeconds: 100, TimedOut: true}
	if timedOut.Feasible(200, nil) {
		t.Error("timed-out trial reported feasible")
	}
}

func TestBudget(t *testing.T) {
	if _, err := NewBudget(0); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := NewBudget(math.NaN()); err == nil {
		t.Error("NaN budget should error")
	}
	b, err := NewBudget(10)
	if err != nil {
		t.Fatalf("NewBudget error: %v", err)
	}
	if b.Initial() != 10 || b.Remaining() != 10 || b.Spent() != 0 {
		t.Errorf("fresh budget state: %v/%v/%v", b.Initial(), b.Remaining(), b.Spent())
	}
	if err := b.Spend(3); err != nil {
		t.Fatalf("Spend error: %v", err)
	}
	if b.Remaining() != 7 || b.Spent() != 3 {
		t.Errorf("after spend: remaining %v spent %v", b.Remaining(), b.Spent())
	}
	if err := b.Spend(-1); err == nil {
		t.Error("negative expense should error")
	}
	// Overspending is allowed (the bootstrap phase may overshoot) but is
	// reflected in a negative remaining budget.
	if err := b.Spend(20); err != nil {
		t.Fatalf("Spend error: %v", err)
	}
	if b.Remaining() >= 0 {
		t.Errorf("remaining = %v, want negative after overspend", b.Remaining())
	}
}

func TestHistoryBookkeeping(t *testing.T) {
	env := fixtureEnv(t)
	h := NewHistory()
	if h.Len() != 0 || h.Deployed() != nil {
		t.Error("fresh history not empty")
	}
	if _, ok := h.CheapestTried(); ok {
		t.Error("CheapestTried on empty history should report not found")
	}

	cfg, err := env.Space().Config(5)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	trial, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	h.Add(trial)

	if h.Len() != 1 || !h.Tested(5) || h.Tested(4) {
		t.Errorf("history state after add: len=%d tested5=%v tested4=%v", h.Len(), h.Tested(5), h.Tested(4))
	}
	if got := h.Deployed(); got == nil || got.ID != 5 {
		t.Errorf("Deployed = %+v, want config 5", got)
	}
	if got := len(h.UntestedIDs(env.Space())); got != env.Space().Size()-1 {
		t.Errorf("UntestedIDs = %d, want %d", got, env.Space().Size()-1)
	}
	feats := h.Features()
	costs := h.Costs()
	if len(feats) != 1 || len(costs) != 1 {
		t.Fatalf("Features/Costs lengths: %d/%d", len(feats), len(costs))
	}
	if costs[0] != trial.Cost {
		t.Errorf("Costs[0] = %v, want %v", costs[0], trial.Cost)
	}
	if got := h.ExtraMetric("energy"); got[0] != trial.Extra["energy"] {
		t.Errorf("ExtraMetric = %v", got)
	}
	if got := h.MaxCost(); got != trial.Cost {
		t.Errorf("MaxCost = %v, want %v", got, trial.Cost)
	}
}

func TestHistoryBestFeasibleAndCheapest(t *testing.T) {
	env := fixtureEnv(t)
	h := NewHistory()
	for _, id := range []int{0, 3, 11} {
		cfg, err := env.Space().Config(id)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		trial, err := env.Run(cfg)
		if err != nil {
			t.Fatalf("Run error: %v", err)
		}
		h.Add(trial)
	}
	// Runtimes: cfg0=1200, cfg3=930, cfg11=210. With Tmax=1000 only 3 and 11
	// are feasible; costs are 930/3600*0.8=0.2067 and 210/3600*1.6=0.0933.
	best, ok := h.BestFeasible(1000, nil)
	if !ok || best.Config.ID != 11 {
		t.Errorf("BestFeasible = %+v, %v, want config 11", best.Config.ID, ok)
	}
	if _, ok := h.BestFeasible(100, nil); ok {
		t.Error("BestFeasible with impossible constraint should report not found")
	}
	cheapest, ok := h.CheapestTried()
	if !ok || cheapest.Config.ID != 11 {
		t.Errorf("CheapestTried = %d, %v, want 11", cheapest.Config.ID, ok)
	}
}

func TestRecommendFallsBackWhenNothingFeasible(t *testing.T) {
	env := fixtureEnv(t)
	h := NewHistory()
	cfg, err := env.Space().Config(0)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	trial, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	h.Add(trial)
	opts := Options{Budget: 10, MaxRuntimeSeconds: 10}
	rec, feasible, err := Recommend(h, opts)
	if err != nil {
		t.Fatalf("Recommend error: %v", err)
	}
	if feasible {
		t.Error("recommendation reported feasible with impossible constraint")
	}
	if rec.Config.ID != 0 {
		t.Errorf("recommendation = config %d, want 0", rec.Config.ID)
	}
	if _, _, err := Recommend(NewHistory(), opts); err == nil {
		t.Error("Recommend on empty history should error")
	}
}

func TestJobEnvironment(t *testing.T) {
	if _, err := NewJobEnvironment(nil); err == nil {
		t.Error("nil job should error")
	}
	env := fixtureEnv(t)
	if env.Job() == nil {
		t.Error("Job() returned nil")
	}
	cfg, err := env.Space().Config(7)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	trial, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	wantRuntime := float64(1200 - 90*7)
	if trial.RuntimeSeconds != wantRuntime {
		t.Errorf("runtime = %v, want %v", trial.RuntimeSeconds, wantRuntime)
	}
	price, err := env.UnitPricePerHour(cfg)
	if err != nil {
		t.Fatalf("UnitPricePerHour error: %v", err)
	}
	if math.Abs(price-(0.5+0.1*7)) > 1e-12 {
		t.Errorf("price = %v", price)
	}
	bad := configspace.Config{ID: 999}
	if _, err := env.Run(bad); err == nil {
		t.Error("running an out-of-space config should error")
	}
	if _, err := env.UnitPricePerHour(bad); err == nil {
		t.Error("pricing an out-of-space config should error")
	}
}

func TestResolveBootstrapSize(t *testing.T) {
	env := fixtureEnv(t)
	// Explicit size wins.
	n, err := ResolveBootstrapSize(env.Space(), Options{BootstrapSize: 4, Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil || n != 4 {
		t.Errorf("explicit bootstrap size = %d, %v", n, err)
	}
	// Explicit size is capped at the space size.
	n, err = ResolveBootstrapSize(env.Space(), Options{BootstrapSize: 100, Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil || n != env.Space().Size() {
		t.Errorf("capped bootstrap size = %d, %v", n, err)
	}
	// Default: max(3% of 12, 2 dims) = 2.
	n, err = ResolveBootstrapSize(env.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil || n != 2 {
		t.Errorf("default bootstrap size = %d, %v, want 2", n, err)
	}
}

func TestRunTrialAndBootstrap(t *testing.T) {
	env := fixtureEnv(t)
	h := NewHistory()
	budget, err := NewBudget(100)
	if err != nil {
		t.Fatalf("NewBudget error: %v", err)
	}
	setupCalls := 0
	setup := func(from *configspace.Config, to configspace.Config) float64 {
		setupCalls++
		if from == nil {
			return 0.5
		}
		return 0.1
	}
	cfg, err := env.Space().Config(2)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	trial, _, err := RunTrialWithRetry(env, cfg, h, budget, Options{SetupCost: setup})
	if err != nil {
		t.Fatalf("RunTrialWithRetry error: %v", err)
	}
	if setupCalls != 1 {
		t.Errorf("setup calls = %d, want 1", setupCalls)
	}
	wantSpend := trial.Cost + 0.5
	if math.Abs(budget.Spent()-wantSpend) > 1e-12 {
		t.Errorf("budget spent = %v, want %v", budget.Spent(), wantSpend)
	}

	rng := rand.New(rand.NewSource(1))
	if err := Bootstrap(env, 3, rng, h, budget, Options{}); err != nil {
		t.Fatalf("Bootstrap error: %v", err)
	}
	if h.Len() != 4 {
		t.Errorf("history length after bootstrap = %d, want 4", h.Len())
	}
	if err := Bootstrap(env, 0, rng, h, budget, Options{}); err == nil {
		t.Error("bootstrap with zero size should error")
	}
}

func TestBuildResult(t *testing.T) {
	env := fixtureEnv(t)
	h := NewHistory()
	budget, err := NewBudget(5)
	if err != nil {
		t.Fatalf("NewBudget error: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := Bootstrap(env, 3, rng, h, budget, Options{}); err != nil {
		t.Fatalf("Bootstrap error: %v", err)
	}
	opts := Options{Budget: 5, MaxRuntimeSeconds: 2000}
	res, err := BuildResult("test-opt", h, budget, opts)
	if err != nil {
		t.Fatalf("BuildResult error: %v", err)
	}
	if res.OptimizerName != "test-opt" {
		t.Errorf("name = %q", res.OptimizerName)
	}
	if res.Explorations != 3 || len(res.Trials) != 3 {
		t.Errorf("explorations/trials = %d/%d, want 3/3", res.Explorations, len(res.Trials))
	}
	if !res.RecommendedFeasible {
		t.Error("recommendation should be feasible with a loose constraint")
	}
	if res.InitialBudget != 5 || res.SpentBudget != budget.Spent() {
		t.Errorf("budget fields = %v/%v", res.InitialBudget, res.SpentBudget)
	}
	if _, err := BuildResult("x", NewHistory(), budget, opts); err == nil {
		t.Error("BuildResult on empty history should error")
	}
}
