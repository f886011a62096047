package core

import (
	"math"
	"testing"

	"repro/internal/configspace"
	"repro/internal/optimizer"
)

// noisyEnv is a stochastic Environment: every Run draws a different noise
// factor (a deterministic function of the global call index), so repeated
// runs of one configuration would return different costs. It logs every
// observation it hands out, which lets the tests assert that the planner
// reports observed costs verbatim and never substitutes memoized model
// predictions for them.
type noisyEnv struct {
	space *configspace.Space
	calls int
	log   []optimizer.TrialResult
}

func newNoisyEnv(t *testing.T) *noisyEnv {
	t.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "a", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "b", Values: []float64{1, 2, 3, 4}},
		{Name: "c", Values: []float64{1, 2, 3, 4}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	return &noisyEnv{space: space}
}

func (e *noisyEnv) Space() *configspace.Space { return e.space }

func (e *noisyEnv) baseRuntime(cfg configspace.Config) float64 {
	return 20 + 5*cfg.Features[0] + 8*cfg.Features[1] - 3*cfg.Features[2]
}

func (e *noisyEnv) price(cfg configspace.Config) float64 {
	return 0.4 + 0.3*cfg.Features[2]
}

func (e *noisyEnv) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	// The noise factor depends on the call index: a re-run of the same
	// configuration at a different point of the campaign would observe a
	// different cost, exactly like a real stochastic system.
	factor := 1 + 0.25*math.Sin(1.7*float64(e.calls)+0.3*float64(cfg.ID))
	e.calls++
	runtime := e.baseRuntime(cfg) * factor
	price := e.price(cfg)
	tr := optimizer.TrialResult{
		Config:           cfg.Clone(),
		RuntimeSeconds:   runtime,
		UnitPricePerHour: price,
		Cost:             runtime / 3600 * price,
	}
	e.log = append(e.log, tr)
	return tr, nil
}

func (e *noisyEnv) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	return e.price(cfg), nil
}

func noisyCampaign(t *testing.T, params Params) (optimizer.Result, *noisyEnv) {
	t.Helper()
	env := newNoisyEnv(t)
	lyn, err := New(params)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	res, err := lyn.Optimize(env, optimizer.Options{
		Budget:            0.3,
		MaxRuntimeSeconds: 55,
		Seed:              3,
	})
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	return res, env
}

func noisyParams() Params {
	p := fastParams(2)
	p.SpeculativeRefit = SpecRefitIncremental
	return p
}

// TestNoisyEnvObservationsReportedVerbatim runs an LA=2 incremental campaign
// on the stochastic environment and checks that the planner's bookkeeping
// holds observations, not model state: every trial in the result matches the
// environment's own log bitwise and in order, no configuration is profiled
// twice, and the recommendation is the cheapest feasible *observed* trial —
// i.e. the memoized cost-model predictions (model.Cached) never leak into
// reported costs or the recommendation.
func TestNoisyEnvObservationsReportedVerbatim(t *testing.T) {
	res, env := noisyCampaign(t, noisyParams())
	if len(res.Trials) != len(env.log) {
		t.Fatalf("result has %d trials, environment served %d runs", len(res.Trials), len(env.log))
	}
	seen := make(map[int]bool)
	for i, tr := range res.Trials {
		want := env.log[i]
		if tr.Config.ID != want.Config.ID || tr.Cost != want.Cost || tr.RuntimeSeconds != want.RuntimeSeconds {
			t.Fatalf("trial %d reports (id=%d cost=%v runtime=%v), environment served (id=%d cost=%v runtime=%v)",
				i, tr.Config.ID, tr.Cost, tr.RuntimeSeconds, want.Config.ID, want.Cost, want.RuntimeSeconds)
		}
		if seen[tr.Config.ID] {
			t.Fatalf("configuration %d profiled twice", tr.Config.ID)
		}
		seen[tr.Config.ID] = true
	}

	// The recommendation must be the cheapest feasible observation.
	bestCost, bestID, found := 0.0, -1, false
	for _, tr := range env.log {
		if tr.RuntimeSeconds > 55 {
			continue
		}
		if !found || tr.Cost < bestCost {
			bestCost, bestID, found = tr.Cost, tr.Config.ID, true
		}
	}
	if !found {
		t.Fatal("campaign observed no feasible configuration; fixture needs retuning")
	}
	if !res.RecommendedFeasible || res.Recommended.Config.ID != bestID || res.Recommended.Cost != bestCost {
		t.Errorf("recommended config %d (cost %v, feasible=%v), want cheapest feasible observation %d (cost %v)",
			res.Recommended.Config.ID, res.Recommended.Cost, res.RecommendedFeasible, bestID, bestCost)
	}
}
