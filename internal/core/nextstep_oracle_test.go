package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bagging"
	"repro/internal/numeric"
	"repro/internal/optimizer"
	"repro/internal/servesim"
	"repro/internal/synth"
)

// nextStepExhaustive is the NextStep sweep that the bound-pruned nextStep
// replaced — every eligible candidate scored with the exact EIc, one
// comparison rule — kept as the differential oracle.
func (p *planner) nextStepExhaustive(state *specState, ms *modelSet, inc float64) (candidate, bool, error) {
	eligible, costPreds, extraPreds, err := p.eligible(state.untested, ms, state.budget)
	if err != nil {
		return candidate{}, false, err
	}
	if len(eligible) == 0 {
		return candidate{}, false, nil
	}
	best := candidate{}
	bestEIc := -1.0
	for i, cand := range eligible {
		score, err := p.eic(inc, cand, costPreds[i], extraPreds[i])
		if err != nil {
			return candidate{}, false, err
		}
		if score > bestEIc || (score == bestEIc && cand.id < best.id) {
			best = cand
			bestEIc = score
		}
	}
	return best, true, nil
}

// oracleCampaign is one environment of the differential test.
type oracleCampaign struct {
	name      string
	env       optimizer.Environment
	opts      optimizer.Options
	bootstrap int
	refit     SpeculativeRefit
}

func oracleCampaigns(t *testing.T) []oracleCampaign {
	t.Helper()
	var out []oracleCampaign

	tf, err := synth.TensorflowJob(synth.CNN, 42)
	if err != nil {
		t.Fatalf("TensorflowJob: %v", err)
	}
	scout, err := synth.ScoutJob(synth.ScoutJobNames()[0], 7)
	if err != nil {
		t.Fatalf("ScoutJob: %v", err)
	}
	tfEnv, err := optimizer.NewJobEnvironment(tf)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	tfTmax, err := tf.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	out = append(out, oracleCampaign{
		name: "tensorflow-384", env: tfEnv, bootstrap: 12, refit: SpecRefitIncremental,
		opts: optimizer.Options{Budget: 36 * tf.MeanCost(), MaxRuntimeSeconds: tfTmax, Seed: 3},
	})

	scoutEnv, err := optimizer.NewJobEnvironment(scout)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	scoutTmax, err := scout.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	out = append(out, oracleCampaign{
		name: "scout-72", env: scoutEnv, bootstrap: 5, refit: SpecRefitFull,
		opts: optimizer.Options{Budget: 20 * scout.MeanCost(), MaxRuntimeSeconds: scoutTmax, Seed: 5},
	})

	serve, err := servesim.NewProfileEnv("chat", 11)
	if err != nil {
		t.Fatalf("NewProfileEnv: %v", err)
	}
	serveTmax, serveMean, err := serve.ApproxStats(0.7, 96)
	if err != nil {
		t.Fatalf("ApproxStats: %v", err)
	}
	out = append(out, oracleCampaign{
		name: "servesim-slo", env: serve, bootstrap: 16, refit: SpecRefitIncremental,
		opts: optimizer.Options{
			Budget: 40 * serveMean, MaxRuntimeSeconds: serveTmax, Seed: 9,
			ExtraConstraints: []optimizer.Constraint{serve.Constraint()},
		},
	})
	return out
}

// oracleTally counts the sampled states by the corner they exercise, so the
// test can assert that every corner the issue names was actually reached.
type oracleTally struct {
	states, empty, fallback, sigmaZero, tied, shuffled, depth2 int
	evaluated, bounded                                         int
}

// TestNextStepPrunedMatchesExhaustive is the differential test of the
// bound-pruned NextStep sweep: on randomized speculated states grown from real
// campaign histories — Tensorflow-384 (incremental clones), Scout-72 (full
// refits) and the serving simulator with its SLO extra constraint — the
// pruned sweep must pick the candidate the exhaustive sweep picks, with the
// same ok, and every eligible candidate's bound must dominate its exact EIc.
// The sampler forces the corners: budgets that leave nothing eligible,
// training sets with no feasible entry (fallback incumbent), σ = 0
// predictions, and exact top ties presented in shuffled candidate order so
// that the lower ID wins only if the tied candidate is really evaluated.
func TestNextStepPrunedMatchesExhaustive(t *testing.T) {
	var tally oracleTally
	for _, oc := range oracleCampaigns(t) {
		t.Run(oc.name, func(t *testing.T) {
			sampleOracleCampaign(t, oc, &tally)
		})
	}
	t.Logf("states=%d empty=%d fallback=%d sigma0=%d tied=%d shuffled=%d depth2=%d; exact evaluations %d of %d eligible (%.1f%%)",
		tally.states, tally.empty, tally.fallback, tally.sigmaZero, tally.tied, tally.shuffled, tally.depth2,
		tally.evaluated, tally.evaluated+tally.bounded, 100*float64(tally.evaluated)/float64(tally.evaluated+tally.bounded))
	if tally.states < 1000 {
		t.Errorf("sampled %d states, want at least 1000", tally.states)
	}
	for name, n := range map[string]int{
		"empty eligible set": tally.empty, "fallback incumbent": tally.fallback,
		"σ=0 predictions": tally.sigmaZero, "exact top ties": tally.tied, "depth-2 states": tally.depth2,
	} {
		if n < 20 {
			t.Errorf("only %d sampled states exercised %s, want at least 20", n, name)
		}
	}
	if tally.bounded == 0 {
		t.Error("the pruned sweep never dismissed a candidate on its bound")
	}
}

func sampleOracleCampaign(t *testing.T, oc oracleCampaign, tally *oracleTally) {
	t.Helper()
	params, err := Params{
		Lookahead:        2,
		Model:            bagging.Params{NumTrees: 10},
		Workers:          1,
		SpeculativeRefit: oc.refit,
	}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	p, err := newPlanner(params, oc.env, oc.opts, nil)
	if err != nil {
		t.Fatalf("newPlanner: %v", err)
	}
	budget, err := optimizer.NewBudget(oc.opts.Budget)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	h := optimizer.NewHistory()
	rng := rand.New(rand.NewSource(oc.opts.Seed))
	if err := optimizer.Bootstrap(oc.env, oc.bootstrap, rng, h, budget, oc.opts); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	const decisions, perDecision = 6, 60
	for d := 0; d < decisions; d++ {
		sampleOracleStates(t, p, h, budget.Remaining(), rng, perDecision, tally)

		// Advance the real campaign by one planned trial.
		cfg, ok, err := p.nextConfig(nil, h, budget.Remaining())
		if err != nil {
			t.Fatalf("nextConfig: %v", err)
		}
		if !ok {
			break
		}
		if _, _, err := optimizer.RunTrialWithRetry(oc.env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry: %v", err)
		}
	}
}

// sampleOracleStates fits the root models of the campaign's current decision
// the way nextConfig does and checks n speculated states below it.
func sampleOracleStates(t *testing.T, p *planner, h *optimizer.History, remaining float64, rng *rand.Rand, n int, tally *oracleTally) {
	t.Helper()
	ids, err := p.strategy.Select(p.space, h.Excluded, p.space.Size()-h.ExcludedCount(), p.iteration, p.opts.Seed)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	untested, err := p.gather(ids)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	train := newTrainSetFromHistory(h, p.opts, p.extraNames)
	rootModels := p.newModelSet(int64(p.iteration)*2_000_000_011, len(untested))
	p.activeCols = p.gatherCols(untested)
	if err := p.refit(rootModels, train); err != nil {
		t.Fatalf("refit: %v", err)
	}

	var buf eligibleBuf
	for s := 0; s < n; s++ {
		// Speculate one or two steps down a random path: a random candidate,
		// a random Gauss-Hermite node of each of its predictions.
		state := &specState{train: train, untested: untested, budget: remaining}
		models := rootModels
		depth := 1 + rng.Intn(2)
		for step := 0; step < depth && len(state.untested) > 1; step++ {
			cand := state.untested[rng.Intn(len(state.untested))]
			costPred, extraPreds, err := models.predictCand(cand)
			if err != nil {
				t.Fatalf("predictCand: %v", err)
			}
			specCost := randomOutcome(t, rng, costPred, p.params.GHOrder)
			specExtras := make([]float64, len(extraPreds))
			for k, pred := range extraPreds {
				specExtras[k] = randomOutcome(t, rng, pred, p.params.GHOrder)
			}
			child := &specState{
				train:    state.train.withEntry(cand.features, specCost, specExtras, p.feasibleSpeculation(cand, specCost, specExtras)),
				untested: appendWithout(nil, state.untested, cand.id),
				budget:   state.budget - specCost,
			}
			childModels := p.newModelSet(int64(s+1), len(untested))
			if p.refitMode == SpecRefitIncremental {
				if err := childModels.cloneFrom(models); err != nil {
					t.Fatalf("cloneFrom: %v", err)
				}
				if err := childModels.update(cand.features, specCost, specExtras); err != nil {
					t.Fatalf("update: %v", err)
				}
			} else if err := p.refit(childModels, child.train); err != nil {
				t.Fatalf("refit: %v", err)
			}
			state, models = child, childModels
		}
		if depth == 2 {
			tally.depth2++
		}

		// Corners. Each perturbs only this state's own copies.
		switch rng.Intn(8) {
		case 0: // nothing affordable
			state.budget = -rng.Float64()
		case 1: // a sliver of the budget: few eligible
			state.budget *= 0.05 * rng.Float64()
		case 2: // no feasible entry: fallback incumbent
			infeasible := *state.train
			infeasible.feasible = make([]bool, len(state.train.feasible))
			state.train = &infeasible
		}
		if _, ok := state.train.bestFeasibleCost(); !ok {
			tally.fallback++
		}
		if rng.Intn(2) == 0 {
			shuffled := append([]candidate(nil), state.untested...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			state.untested = shuffled
			tally.shuffled++
		}
		inc, err := p.incumbent(state, models)
		if err != nil {
			t.Fatalf("incumbent: %v", err)
		}
		switch rng.Intn(4) {
		case 0: // σ = 0 predictions scattered over the candidates
			memo := models.cost.MemoPreds()
			for i := 0; i < 8; i++ {
				memo[state.untested[rng.Intn(len(state.untested))].slot].StdDev = 0
			}
			tally.sigmaZero++
		case 1: // an exact tie at the top: identical degenerate predictions
			top := numeric.Gaussian{Mean: inc - 1 - rng.Float64()}
			for i := 0; i < 3; i++ {
				slot := state.untested[rng.Intn(len(state.untested))].slot
				models.cost.MemoPreds()[slot] = top
				for _, m := range models.extras {
					m.MemoPreds()[slot] = numeric.Gaussian{Mean: math.Inf(-1)}
				}
			}
			tally.sigmaZero++
		}

		checkOracleState(t, p, state, models, inc, &buf, tally)
	}
	tally.evaluated += buf.evaluated
	tally.bounded += buf.bounded
}

// randomOutcome returns a random Gauss-Hermite node of the prediction — one
// of the outcomes explorePaths would speculate on.
func randomOutcome(t *testing.T, rng *rand.Rand, pred numeric.Gaussian, order int) float64 {
	t.Helper()
	outcomes, err := numeric.DiscretizeGaussian(pred, order)
	if err != nil {
		t.Fatalf("DiscretizeGaussian: %v", err)
	}
	return outcomes[rng.Intn(len(outcomes))].Value
}

func checkOracleState(t *testing.T, p *planner, state *specState, models *modelSet, inc float64, buf *eligibleBuf, tally *oracleTally) {
	t.Helper()
	tally.states++
	want, wantOK, err := p.nextStepExhaustive(state, models, inc)
	if err != nil {
		t.Fatalf("state %d: exhaustive sweep: %v", tally.states, err)
	}
	got, gotOK, err := p.nextStep(state, models, inc, buf)
	if err != nil {
		t.Fatalf("state %d: pruned sweep: %v", tally.states, err)
	}
	if gotOK != wantOK || got.id != want.id || got.slot != want.slot {
		t.Fatalf("state %d (budget %v, incumbent %v, %d untested): pruned sweep picked (%d, %v), exhaustive (%d, %v)",
			tally.states, state.budget, inc, len(state.untested), got.id, gotOK, want.id, wantOK)
	}
	if !wantOK {
		tally.empty++
		return
	}

	// Every eligible candidate's bound dominates its exact EIc, and the
	// winner's score is counted for ties.
	eligible, costPreds, extraPreds, err := p.eligible(state.untested, models, state.budget)
	if err != nil {
		t.Fatalf("eligible: %v", err)
	}
	extraMemos := extraMemosOf(models)
	var bestScore float64
	atBest := 0
	for i := range eligible {
		score, err := p.eic(inc, eligible[i], costPreds[i], extraPreds[i])
		if err != nil {
			t.Fatalf("eic: %v", err)
		}
		if bound := p.eicUpperBound(inc, &eligible[i], costPreds[i], extraMemos); bound < score {
			t.Fatalf("state %d: candidate %d (pred %+v, incumbent %v): bound %v below exact EIc %v",
				tally.states, eligible[i].id, costPreds[i], inc, bound, score)
		}
		switch {
		case atBest == 0 || score > bestScore:
			bestScore, atBest = score, 1
		case score == bestScore:
			atBest++
		}
	}
	if atBest > 1 && bestScore > 0 {
		tally.tied++
	}
}

// A NaN constraint prediction makes the exhaustive sweep fail (Constrained
// rejects the NaN probability; a NaN cost prediction never gets that far, it
// fails the eligibility test). Its bound is NaN, which is never pruned, so the
// pruned sweep must fail too — wherever the candidate sits and however poor
// the other candidates' bounds make it look.
func TestNextStepPrunedSurfacesNaNPredictions(t *testing.T) {
	p, _, _ := testPlanner(t, []optimizer.Constraint{{Metric: "energy", Max: 40}})
	train := &trainSet{
		features: [][]float64{{0, 1}, {1, 2}, {2, 4}},
		costs:    []float64{0.4, 0.9, 0.6},
		extras:   [][]float64{{10, 20, 30}},
		feasible: []bool{true, true, true},
	}
	cands := gatherAll(t, p)
	for _, at := range []int{0, len(cands) / 2, len(cands) - 1} {
		ms := fitPrefilled(t, p, 3, train)
		state := &specState{train: train, untested: cands, budget: 1e9}
		inc, err := p.incumbent(state, ms)
		if err != nil {
			t.Fatalf("incumbent: %v", err)
		}
		if _, ok, err := p.nextStep(state, ms, inc, &eligibleBuf{}); err != nil || !ok {
			t.Fatalf("clean state: ok=%v err=%v", ok, err)
		}
		slot := cands[at].slot
		ms.extras[0].MemoPreds()[slot] = numeric.Gaussian{Mean: math.NaN(), StdDev: 1}
		// eic reads the constraints only under a non-zero EI.
		ms.cost.MemoPreds()[slot] = numeric.Gaussian{Mean: inc + 3, StdDev: 1}
		if _, _, err := p.nextStepExhaustive(state, ms, inc); err == nil {
			t.Fatalf("NaN at %d: the exhaustive sweep accepted it", at)
		}
		if _, _, err := p.nextStep(state, ms, inc, &eligibleBuf{}); err == nil {
			t.Errorf("NaN at %d: the pruned sweep lost the error", at)
		}
	}
}
