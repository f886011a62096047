package simulator

import (
	"math"
	"testing"

	"repro/internal/bagging"
	"repro/internal/baselines"
	"repro/internal/configspace"
	"repro/internal/core"
	"repro/internal/dataset"
)

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
	}
	job, err := dataset.NewJob("sim-fixture", space, measurements, 0, nil)
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	return job
}

func TestConfigValidation(t *testing.T) {
	job := fixtureJob(t)
	r := baselines.NewRandom()
	invalid := []Config{
		{Job: nil, Runs: 3},
		{Job: job, Runs: 0},
		{Job: job, Runs: 3, BudgetMultiplier: -1},
	}
	for i, cfg := range invalid {
		if _, err := Evaluate(r, cfg); err == nil {
			t.Errorf("invalid config %d accepted", i)
		}
	}
	if _, err := Evaluate(nil, Config{Job: job, Runs: 1}); err == nil {
		t.Error("nil optimizer should error")
	}
}

func TestEvaluateRandomBaseline(t *testing.T) {
	job := fixtureJob(t)
	cfg := Config{Job: job, Runs: 5, BaseSeed: 100}
	res, err := Evaluate(baselines.NewRandom(), cfg)
	if err != nil {
		t.Fatalf("Evaluate error: %v", err)
	}
	if res.JobName != "sim-fixture" || res.OptimizerName != "rnd" {
		t.Errorf("identity fields: %q %q", res.JobName, res.OptimizerName)
	}
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d, want 5", len(res.Runs))
	}
	if res.OptimalCost <= 0 || res.Budget <= 0 || res.Tmax <= 0 {
		t.Errorf("derived quantities: opt=%v budget=%v tmax=%v", res.OptimalCost, res.Budget, res.Tmax)
	}
	for i, run := range res.Runs {
		if run.CNO < 1-1e-9 {
			t.Errorf("run %d CNO = %v below 1", i, run.CNO)
		}
		if run.Explorations < 2 {
			t.Errorf("run %d explorations = %d", i, run.Explorations)
		}
		if len(run.BestCNOByExploration) != run.Explorations {
			t.Errorf("run %d trace length %d != NEX %d", i, len(run.BestCNOByExploration), run.Explorations)
		}
		if run.Seed != cfg.BaseSeed+int64(i) {
			t.Errorf("run %d seed = %d", i, run.Seed)
		}
		// The convergence trace must be non-increasing once finite.
		prev := math.Inf(1)
		for _, v := range run.BestCNOByExploration {
			if !math.IsInf(v, 1) && v > prev+1e-9 {
				t.Errorf("run %d convergence trace increased: %v after %v", i, v, prev)
			}
			if !math.IsInf(v, 1) {
				prev = v
			}
		}
	}

	cnoSummary, err := res.CNOSummary()
	if err != nil {
		t.Fatalf("CNOSummary error: %v", err)
	}
	if cnoSummary.Count != 5 || cnoSummary.Mean < 1-1e-9 {
		t.Errorf("CNO summary = %+v", cnoSummary)
	}
	nexSummary, err := res.NEXSummary()
	if err != nil {
		t.Fatalf("NEXSummary error: %v", err)
	}
	if nexSummary.Min < 2 {
		t.Errorf("NEX summary = %+v", nexSummary)
	}
}

// TestEvaluateSharesBootstrapSeeds checks the paper's "same set of initial
// configurations for their own i-th run" methodology: the i-th run of every
// optimizer evaluated under one Config uses the same seed.
func TestEvaluateSharesBootstrapSeeds(t *testing.T) {
	job := fixtureJob(t)
	cfg := Config{Job: job, Runs: 3, BaseSeed: 7}
	bo := baselines.NewBO(baselines.BOParams{Model: bagging.Params{NumTrees: 5}})
	boRes, err := Evaluate(bo, cfg)
	if err != nil {
		t.Fatalf("Evaluate(bo) error: %v", err)
	}
	rndRes, err := Evaluate(baselines.NewRandom(), cfg)
	if err != nil {
		t.Fatalf("Evaluate(rnd) error: %v", err)
	}
	if len(boRes.Runs) != 3 || len(rndRes.Runs) != 3 {
		t.Fatalf("runs = %d and %d, want 3", len(boRes.Runs), len(rndRes.Runs))
	}
	for i := range boRes.Runs {
		if boRes.Runs[i].Seed != rndRes.Runs[i].Seed {
			t.Errorf("run %d seeds differ across optimizers: %d vs %d",
				i, boRes.Runs[i].Seed, rndRes.Runs[i].Seed)
		}
	}
}

func TestEvaluateLynceusBeatsNothingButRuns(t *testing.T) {
	// A smoke test that the full Lynceus optimizer composes with the
	// simulator on a small space.
	job := fixtureJob(t)
	lyn, err := core.New(core.Params{Lookahead: 1, Model: bagging.Params{NumTrees: 5}, Workers: 2})
	if err != nil {
		t.Fatalf("core.New error: %v", err)
	}
	res, err := Evaluate(lyn, Config{Job: job, Runs: 2, BaseSeed: 11})
	if err != nil {
		t.Fatalf("Evaluate error: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.OptimizerName != "lynceus-la1" {
		t.Errorf("optimizer name = %q", res.OptimizerName)
	}
}

func TestConvergenceCurve(t *testing.T) {
	result := JobResult{
		Runs: []RunMetrics{
			{BestCNOByExploration: []float64{math.Inf(1), 3, 2, 1}},
			{BestCNOByExploration: []float64{4, 4}},
		},
	}
	curve, err := ConvergenceCurve(result, 50)
	if err != nil {
		t.Fatalf("ConvergenceCurve error: %v", err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length = %d, want 4", len(curve))
	}
	// After exploration 2 (index 1): traces are {3, 4} -> median 3.5.
	if math.Abs(curve[1]-3.5) > 1e-9 {
		t.Errorf("curve[1] = %v, want 3.5", curve[1])
	}
	// After exploration 4: first run reaches 1, second stays at its final 4.
	if math.Abs(curve[3]-2.5) > 1e-9 {
		t.Errorf("curve[3] = %v, want 2.5", curve[3])
	}
	if _, err := ConvergenceCurve(JobResult{}, 50); err == nil {
		t.Error("empty result should error")
	}
}
