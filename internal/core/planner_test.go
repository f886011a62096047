package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/bagging"
	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// testPlanner builds a planner over the fixture environment with the given
// extra constraints.
func testPlanner(t *testing.T, extra []optimizer.Constraint) (*planner, *optimizer.JobEnvironment, optimizer.Options) {
	t.Helper()
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	opts.ExtraConstraints = extra
	params, err := Params{Lookahead: 1, GHOrder: 3, Model: bagging.Params{NumTrees: 5}, Workers: 2}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults error: %v", err)
	}
	p, err := newPlanner(params, env, opts, nil)
	if err != nil {
		t.Fatalf("newPlanner error: %v", err)
	}
	return p, env, opts
}

// gatherAll returns the planner's active candidate set over every
// configuration of the space (the exhaustive selection under an empty
// history), with slots 0..Size-1.
func gatherAll(t *testing.T, p *planner) []candidate {
	t.Helper()
	ids := Search{Strategy: "exhaustive"}.candidates(p.space, func(int) bool { return false }, p.space.Size(), 0, 0)
	cands, err := p.gather(ids)
	if err != nil {
		t.Fatalf("gather error: %v", err)
	}
	return cands
}

// fitPrefilled fits a full-space model set (slot == configuration ID, as
// gatherAll assigns them) and prefills its memos, the state in which the
// planner's candidate sweeps read a model set.
func fitPrefilled(t *testing.T, p *planner, stream int64, train *trainSet) *modelSet {
	t.Helper()
	ms := p.newModelSet(stream, p.space.Size())
	if err := ms.fit(train); err != nil {
		t.Fatalf("fit error: %v", err)
	}
	if err := ms.prefill(p.gatherCols(gatherAll(t, p))); err != nil {
		t.Fatalf("prefill error: %v", err)
	}
	return ms
}

// predict returns the cost and per-constraint predictive distributions for an
// arbitrary feature vector, bypassing the memo.
func (ms *modelSet) predict(features []float64) (numeric.Gaussian, []numeric.Gaussian, error) {
	costPred, err := ms.cost.Predict(features)
	if err != nil {
		return numeric.Gaussian{}, nil, err
	}
	extraPreds := make([]numeric.Gaussian, len(ms.extras))
	for k, m := range ms.extras {
		extraPreds[k], err = m.Predict(features)
		if err != nil {
			return numeric.Gaussian{}, nil, err
		}
	}
	return costPred, extraPreds, nil
}

func TestGatherCollectsUnitPricesAndSharesFeatureStorage(t *testing.T) {
	p, env, _ := testPlanner(t, nil)
	cands := gatherAll(t, p)
	if len(cands) != env.Space().Size() {
		t.Fatalf("candidates = %d, want %d", len(cands), env.Space().Size())
	}
	for _, cand := range cands {
		m, err := env.Job().Measurement(cand.id)
		if err != nil {
			t.Fatalf("Measurement error: %v", err)
		}
		if cand.unitPriceHour != m.UnitPricePerHour {
			t.Errorf("candidate %d unit price = %v, want %v", cand.id, cand.unitPriceHour, m.UnitPricePerHour)
		}
		if len(cand.features) != env.Space().NumDimensions() {
			t.Errorf("candidate %d features = %v", cand.id, cand.features)
		}
		cfg, err := env.Space().Config(cand.id)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		for d, v := range cfg.Features {
			if cand.features[d] != v {
				t.Fatalf("candidate %d features = %v, want %v", cand.id, cand.features, cfg.Features)
			}
		}
		// Candidates share the planner's decode arena, one row per slot,
		// instead of owning a copy each.
		if &cand.features[0] != &p.featArena[cand.slot*len(cfg.Features)] {
			t.Fatalf("candidate %d does not reference its row of the planner's feature arena", cand.id)
		}
	}
}

func TestConstraintNamesAreSortedAndMapped(t *testing.T) {
	p, _, _ := testPlanner(t, []optimizer.Constraint{
		{Metric: "zeta", Max: 5},
		{Metric: "alpha", Max: 2},
	})
	names := p.extraNames
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("extraNames = %v, want sorted [alpha zeta]", names)
	}
	if len(p.extraMax) != 2 || p.extraMax[0] != 2 || p.extraMax[1] != 5 {
		t.Errorf("extraMax = %v, want [2 5] (aligned with the sorted names)", p.extraMax)
	}
}

func TestFeasibleSpeculation(t *testing.T) {
	p, _, opts := testPlanner(t, []optimizer.Constraint{{Metric: "energy", Max: 40}})
	cand := gatherAll(t, p)[0]
	// A speculated cost exactly at the runtime threshold is feasible.
	threshold := opts.MaxRuntimeSeconds * cand.unitPriceHour / 3600
	if !p.feasibleSpeculation(cand, threshold*0.99, []float64{10}) {
		t.Error("speculation below runtime threshold reported infeasible")
	}
	if p.feasibleSpeculation(cand, threshold*1.01, []float64{10}) {
		t.Error("speculation above runtime threshold reported feasible")
	}
	if p.feasibleSpeculation(cand, threshold*0.5, []float64{50}) {
		t.Error("speculation violating the energy constraint reported feasible")
	}
}

func TestEligibleFiltersOnBudget(t *testing.T) {
	p, env, opts := testPlanner(t, nil)
	h := optimizer.NewHistory()
	budget, err := optimizer.NewBudget(opts.Budget)
	if err != nil {
		t.Fatalf("NewBudget error: %v", err)
	}
	// Profile a handful of configurations to give the model signal.
	for _, id := range []int{0, 5, 10, 15} {
		cfg, err := env.Space().Config(id)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		if _, _, err := optimizer.RunTrialWithRetry(env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry error: %v", err)
		}
	}
	train := newTrainSetFromHistory(h, opts, p.extraNames)
	ms := fitPrefilled(t, p, 1, train)
	untested := make([]candidate, 0)
	for _, cand := range gatherAll(t, p) {
		if !h.Tested(cand.id) {
			untested = append(untested, cand)
		}
	}

	// With an enormous budget every untested configuration is eligible.
	all, _, _, err := p.eligible(untested, ms, 1e9, nil)
	if err != nil {
		t.Fatalf("eligible error: %v", err)
	}
	if len(all) != len(untested) {
		t.Errorf("eligible with huge budget = %d, want %d", len(all), len(untested))
	}
	// With a zero budget nothing is eligible.
	none, _, _, err := p.eligible(untested, ms, 0, nil)
	if err != nil {
		t.Fatalf("eligible error: %v", err)
	}
	if len(none) != 0 {
		t.Errorf("eligible with zero budget = %d, want 0", len(none))
	}
}

func TestNextStepPrefersHighEIc(t *testing.T) {
	p, env, opts := testPlanner(t, nil)
	h := optimizer.NewHistory()
	budget, err := optimizer.NewBudget(opts.Budget)
	if err != nil {
		t.Fatalf("NewBudget error: %v", err)
	}
	for _, id := range []int{0, 3, 7, 12, 15} {
		cfg, err := env.Space().Config(id)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		if _, _, err := optimizer.RunTrialWithRetry(env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry error: %v", err)
		}
	}
	train := newTrainSetFromHistory(h, opts, p.extraNames)
	ms := fitPrefilled(t, p, 2, train)
	untested := make([]candidate, 0)
	for _, cand := range gatherAll(t, p) {
		if !h.Tested(cand.id) {
			untested = append(untested, cand)
		}
	}
	state := &specState{train: train, untested: untested, budget: 1e9, bounds: &boundTable{}}
	inc, err := p.incumbent(state, ms)
	if err != nil {
		t.Fatalf("incumbent error: %v", err)
	}
	next, ok, err := p.nextStep(state, ms, inc, nil, &eligibleBuf{})
	if err != nil {
		t.Fatalf("nextStep error: %v", err)
	}
	if !ok {
		t.Fatal("nextStep found no candidate despite a huge budget")
	}
	// The returned candidate must carry the highest EIc among the untested.
	bestEIc := -1.0
	bestID := -1
	for _, cand := range untested {
		costPred, extraPreds, err := ms.predict(cand.features)
		if err != nil {
			t.Fatalf("predict error: %v", err)
		}
		score, err := p.eic(inc, cand, costPred, extraPreds)
		if err != nil {
			t.Fatalf("eic error: %v", err)
		}
		if score > bestEIc {
			bestEIc = score
			bestID = cand.id
		}
	}
	if next.id != bestID {
		t.Errorf("nextStep picked %d, want argmax-EIc %d", next.id, bestID)
	}

	// With a zero budget there is no next step.
	empty := &specState{train: train, untested: untested, budget: 0, bounds: &boundTable{}}
	if _, ok, err := p.nextStep(empty, ms, inc, nil, &eligibleBuf{}); err != nil || ok {
		t.Errorf("nextStep with zero budget = %v, %v, want not-ok", ok, err)
	}
}

func TestEICUsesFallbackIncumbentWhenNothingFeasible(t *testing.T) {
	p, _, _ := testPlanner(t, nil)
	// Training set where no entry is feasible.
	train := &trainSet{
		features: [][]float64{{0, 1}, {1, 2}},
		costs:    []float64{0.4, 0.9},
		extras:   [][]float64{},
		feasible: []bool{false, false},
	}
	ms := fitPrefilled(t, p, 5, train)
	cands := gatherAll(t, p)
	cand := cands[2]
	state := &specState{train: train, untested: cands[2:6], budget: 100}
	costPred, extraPreds, err := ms.predict(cand.features)
	if err != nil {
		t.Fatalf("predict error: %v", err)
	}
	inc, err := p.incumbent(state, ms)
	if err != nil {
		t.Fatalf("incumbent error: %v", err)
	}
	score, err := p.eic(inc, cand, costPred, extraPreds)
	if err != nil {
		t.Fatalf("eic error: %v", err)
	}
	if score < 0 || math.IsNaN(score) {
		t.Errorf("EIc with fallback incumbent = %v", score)
	}
	// The fallback incumbent (max cost + 3 max std) is above every observed
	// cost, so the expected improvement cannot be zero for a configuration
	// predicted near the cheap end.
	if score == 0 {
		t.Error("EIc with fallback incumbent is zero; fallback rule likely not applied")
	}
}

// TestSetupCostHelper opens a decision the way the planner does and charges
// the setup cost of switching to one of its candidates: the extension sees
// the candidate's full configuration, indices included.
func TestSetupCostHelper(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	charged := 0
	opts.SetupCost = func(from *configspace.Config, to configspace.Config) float64 {
		charged++
		want, err := env.Space().Config(to.ID)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		if !slices.Equal(to.Indices, want.Indices) || !slices.Equal(to.Features, want.Features) {
			t.Errorf("setup cost charged for %+v, want the candidate's configuration %+v", to, want)
		}
		if from == nil {
			return 1.5
		}
		return 0.25
	}
	params, err := Params{Lookahead: 0, Model: bagging.Params{NumTrees: 4}, Workers: 1}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults error: %v", err)
	}
	open := func(opts optimizer.Options) (*planner, []candidate) {
		p, err := newPlanner(params, env, opts, nil)
		if err != nil {
			t.Fatalf("newPlanner error: %v", err)
		}
		h := optimizer.NewHistory()
		budget, err := optimizer.NewBudget(opts.Budget)
		if err != nil {
			t.Fatalf("NewBudget error: %v", err)
		}
		cfg, err := env.Space().Config(0)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		if _, _, err := optimizer.RunTrialWithRetry(env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry error: %v", err)
		}
		d, err := p.selectCandidates(context.Background(), h, budget.Remaining())
		if err != nil || d == nil {
			t.Fatalf("selectCandidates: %v, %v", d, err)
		}
		return p, d.root.untested
	}
	p, cands := open(opts)
	if got := p.setupCost(nil, cands[3]); got != 1.5 {
		t.Errorf("setup cost from scratch = %v, want 1.5", got)
	}
	from, err := env.Space().Config(2)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	if got := p.setupCost(&from, cands[3]); got != 0.25 {
		t.Errorf("setup cost between configs = %v, want 0.25", got)
	}
	if charged != 2 {
		t.Errorf("setup function called %d times, want 2", charged)
	}

	// Without the extension the helper charges nothing.
	opts.SetupCost = nil
	p2, cands2 := open(opts)
	if got := p2.setupCost(&from, cands2[1]); got != 0 {
		t.Errorf("setup cost without extension = %v, want 0", got)
	}
}

func TestWithoutRemovesCandidate(t *testing.T) {
	p, _, _ := testPlanner(t, nil)
	subset := gatherAll(t, p)[:5]
	out := appendWithout(nil, subset, subset[2].id)
	if len(out) != 4 {
		t.Fatalf("appendWithout returned %d candidates, want 4", len(out))
	}
	for _, c := range out {
		if c.id == subset[2].id {
			t.Error("removed candidate still present")
		}
	}
}

func TestClampProb(t *testing.T) {
	if clampProb(-0.5) != 0 || clampProb(1.5) != 1 || clampProb(0.3) != 0.3 {
		t.Error("clampProb misbehaves")
	}
}

func TestModelSetPredictShapes(t *testing.T) {
	p, _, _ := testPlanner(t, []optimizer.Constraint{{Metric: "energy", Max: 100}})
	train := &trainSet{
		features: [][]float64{{0, 1}, {1, 2}, {2, 4}},
		costs:    []float64{0.1, 0.2, 0.3},
		extras:   [][]float64{{10, 20, 30}},
		feasible: []bool{true, true, true},
	}
	ms := p.newModelSet(9, 16)
	if err := ms.fit(train); err != nil {
		t.Fatalf("fit error: %v", err)
	}
	costPred, extraPreds, err := ms.predict([]float64{1, 2})
	if err != nil {
		t.Fatalf("predict error: %v", err)
	}
	if len(extraPreds) != 1 {
		t.Fatalf("extra predictions = %d, want 1", len(extraPreds))
	}
	if costPred.Mean < 0.1-1e-9 || costPred.Mean > 0.3+1e-9 {
		t.Errorf("cost prediction %v outside training range", costPred.Mean)
	}
	if extraPreds[0].Mean < 10-1e-9 || extraPreds[0].Mean > 30+1e-9 {
		t.Errorf("extra prediction %v outside training range", extraPreds[0].Mean)
	}
	var zero numeric.Gaussian
	if costPred == zero {
		t.Error("cost prediction is the zero distribution")
	}
}
