package core

import (
	"context"
	"fmt"
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
// replaced — every eligible untested candidate scored with the exact EIc, one
// comparison rule — kept as the differential oracle.
func (p *planner) nextStepExhaustive(state *specState, ms *modelSet, inc float64) (candidate, bool, error) {
	eligible, costPreds, extraPreds, err := p.eligible(untestedOf(state), ms, state.budget, state.deployed)
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

// untestedOf lists the state's untested candidates: its active candidates
// not on its path.
func untestedOf(state *specState) []candidate {
	var out []candidate
	for _, u := range state.untested {
		if !state.onPathAt(u.slot) {
			out = append(out, u)
		}
	}
	return out
}

// randomUntested returns a random untested candidate of the state.
func randomUntested(rng *rand.Rand, state *specState) candidate {
	for {
		if c := state.untested[rng.Intn(len(state.untested))]; !state.onPathAt(c.slot) {
			return c
		}
	}
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
// tests can assert that every corner they name was actually reached.
type oracleTally struct {
	states, walked, everySlot, empty, fallback, raised, sigmaZero, tied, deep int
	evaluated, eligible                                                       int
}

// oracleVisit checks one speculated state of a decision: its models, its
// incumbent, and the decision's root memos (cost model first) as the
// ranking was built on them.
type oracleVisit func(t *testing.T, p *planner, d *decision, rootMemos [][]numeric.Gaussian, state *specState, models *modelSet, inc float64, depth int)

// walkOracleStates samples speculated states the way explorePaths reaches
// them: on each of a few decisions of the campaign, the root models are
// fitted, σ = 0 and exact-tie predictions are injected into their memos,
// eligibility ranks the candidates, and random paths descend to depth la —
// two sibling outcomes per state, each a Gauss-Hermite node of the
// candidate's predictions, applied to one working copy and undone in place
// (incremental mode) or refitted (Full mode), with the path marked on the
// worker. Some children get a raised budget (a negative cost node raises it
// above the parent's), a budget that leaves nothing eligible, a sliver of one,
// or a training set with no feasible entry (the fallback incumbent). visit
// checks every state.
func walkOracleStates(t *testing.T, oc oracleCampaign, la int, tally *oracleTally, visit oracleVisit) {
	t.Helper()
	params, err := Params{
		Lookahead:        la,
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
	rng := rand.New(rand.NewSource(oc.opts.Seed + int64(la)))
	if err := optimizer.Bootstrap(oc.env, oc.bootstrap, rng, h, budget, oc.opts); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	w := p.sched.workers[0]
	sw := &w.ws.sweep

	const decisions, walks = 4, 10
	for dn := 0; dn < decisions; dn++ {
		d, err := p.selectCandidates(context.Background(), h, budget.Remaining())
		if err != nil || d == nil {
			t.Fatalf("selectCandidates: %v, %v", d, err)
		}
		if err := p.rootModels(d); err != nil {
			t.Fatalf("rootModels: %v", err)
		}
		injectCorners(t, p, d, dn, rng, tally)
		if err := p.eligibility(d); err != nil {
			t.Fatalf("eligibility: %v", err)
		}
		if len(d.eligible) == 0 {
			break
		}
		rootMemos := memosOf(t, d.models)
		work := d.models
		if p.refitMode == SpecRefitIncremental {
			if work, err = w.ws.working(p, w, d.models); err != nil {
				t.Fatalf("working: %v", err)
			}
		}
		sw.reserve(len(d.root.untested))

		// walk checks two speculated children of state, whose models are
		// parent (the working copy itself below the root), and descends
		// into each.
		var walk func(state *specState, parent *modelSet, depth int)
		walk = func(state *specState, parent *modelSet, depth int) {
			if depth == la || len(state.untested)-sw.members < 2 {
				return
			}
			for sibling := 0; sibling < 2; sibling++ {
				cand := randomUntested(rng, state)
				costPred, extraPreds := candPreds(t, parent, cand)
				specCost := randomOutcome(t, rng, costPred, p.params.GHOrder)
				specExtras := make([]float64, len(extraPreds))
				for k, pred := range extraPreds {
					specExtras[k] = randomOutcome(t, rng, pred, p.params.GHOrder)
				}
				sw.mark(cand.slot)
				child := &specState{
					train:    state.train.withEntry(cand.features, specCost, specExtras, p.feasibleSpeculation(cand, specCost, specExtras)),
					untested: d.root.untested,
					onPath:   sw.onPath,
					budget:   state.budget - specCost,
				}
				switch rng.Intn(8) {
				case 0, 1:
					child.budget = 2*state.budget + costPred.Mean
					tally.raised++
				case 2: // nothing affordable
					child.budget = -rng.Float64()
				case 3: // a sliver of the budget: few eligible
					child.budget *= 0.05 * rng.Float64()
				case 4: // no feasible entry: fallback incumbent
					infeasible := *child.train
					infeasible.feasible = make([]bool, len(child.train.feasible))
					child.train = &infeasible
				}
				models := work
				if p.refitMode == SpecRefitIncremental {
					if err := models.update(cand.features, specCost, specExtras); err != nil {
						t.Fatalf("update: %v", err)
					}
				} else {
					models = p.newModelSet(int64(1+depth*7+sibling), len(d.root.untested))
					if err := p.refit(models, child.train); err != nil {
						t.Fatalf("refit: %v", err)
					}
				}
				inc, err := p.incumbent(child, models)
				if err != nil {
					t.Fatalf("incumbent: %v", err)
				}
				tally.states++
				if d.ranking != nil && inc <= d.inc {
					tally.walked++
				} else {
					tally.everySlot++
				}
				if _, ok := child.train.bestFeasibleCost(); !ok {
					tally.fallback++
				}
				if depth+1 >= 2 {
					tally.deep++
				}
				visit(t, p, d, rootMemos, child, models, inc, depth+1)
				walk(child, models, depth+1)
				if p.refitMode == SpecRefitIncremental {
					if err := models.undo(); err != nil {
						t.Fatalf("undo: %v", err)
					}
				}
				sw.unmark(cand.slot)
			}
		}
		for s := 0; s < walks; s++ {
			walk(&d.root, d.models, 0)
		}

		// Advance the real campaign by the root's best-EIc candidate: a
		// cheap step that grows the history the next decision plans on.
		best := 0
		for i, score := range d.rootEIc {
			if score > d.rootEIc[best] {
				best = i
			}
		}
		cfg, err := p.space.Config(d.eligible[best].id)
		if err != nil {
			t.Fatalf("Config: %v", err)
		}
		if _, _, err := optimizer.RunTrialWithRetry(oc.env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry: %v", err)
		}
		p.iteration++
	}
}

// candPreds returns predictCand's cost and constraint predictions of cand.
func candPreds(t *testing.T, ms *modelSet, cand candidate) (numeric.Gaussian, []numeric.Gaussian) {
	t.Helper()
	preds, err := ms.predictCand(nil, cand)
	if err != nil {
		t.Fatalf("predictCand: %v", err)
	}
	return preds[0], preds[1:]
}

// randomOutcome returns a random Gauss-Hermite node of the prediction — one
// of the outcomes explorePaths would speculate on.
func randomOutcome(t *testing.T, rng *rand.Rand, pred numeric.Gaussian, order int) float64 {
	t.Helper()
	outcomes, err := numeric.AppendDiscretizedGaussian(nil, pred, order)
	if err != nil {
		t.Fatalf("AppendDiscretizedGaussian: %v", err)
	}
	return outcomes[rng.Intn(len(outcomes))].Value
}

// injectCorners writes one corner into the decision's root memos before the
// ranking is built, by decision number: σ = 0 cost predictions scattered over
// the candidates, or an exact tie at the top — identical degenerate
// predictions below the incumbent on three candidates, whose lowest ID wins
// only if every tied candidate is really evaluated.
func injectCorners(t *testing.T, p *planner, d *decision, dn int, rng *rand.Rand, tally *oracleTally) {
	t.Helper()
	memo := d.models.cost.MemoPreds()
	switch dn % 3 {
	case 0:
		for i := 0; i < 8; i++ {
			memo[rng.Intn(len(memo))].StdDev = 0
		}
		tally.sigmaZero++
	case 1:
		inc, err := p.incumbent(&d.root, d.models)
		if err != nil {
			t.Fatalf("incumbent: %v", err)
		}
		top := numeric.Gaussian{Mean: inc - 1 - rng.Float64()}
		for i := 0; i < 3; i++ {
			slot := rng.Intn(len(memo))
			memo[slot] = top
			for _, m := range d.models.extras {
				m.MemoPreds()[slot] = numeric.Gaussian{Mean: -1e6}
			}
		}
	}
}

// TestNextStepPrunedMatchesExhaustive is the differential test of the
// bound-pruned NextStep sweep: on speculated states grown from real campaign
// histories (see walkOracleStates) — Tensorflow-384 and the serving simulator
// with its SLO extra constraint (incremental mode: the sweeps walk the root
// ranking), and Scout-72 (Full-mode refits: every slot is bounded afresh) —
// at lookahead 2 and 3, the sweep must pick the candidate the exhaustive
// sweep picks, with the same ok, and every eligible candidate's bound must
// dominate its exact EIc.
func TestNextStepPrunedMatchesExhaustive(t *testing.T) {
	var tally oracleTally
	for _, oc := range oracleCampaigns(t) {
		t.Run(oc.name, func(t *testing.T) {
			for _, la := range []int{2, 3} {
				t.Run(fmt.Sprintf("la=%d", la), func(t *testing.T) {
					walkOracleStates(t, oc, la, &tally, func(t *testing.T, p *planner, d *decision, _ [][]numeric.Gaussian, state *specState, models *modelSet, inc float64, depth int) {
						checkOracleState(t, p, d, state, models, inc, depth, &tally)
					})
				})
			}
		})
	}
	t.Logf("states=%d (walked %d, every slot %d) empty=%d fallback=%d raised=%d deep=%d tied=%d σ=0 decisions=%d; exact evaluations %d of %d eligible (%.1f%%)",
		tally.states, tally.walked, tally.everySlot, tally.empty, tally.fallback, tally.raised, tally.deep, tally.tied, tally.sigmaZero,
		tally.evaluated, tally.eligible, 100*float64(tally.evaluated)/float64(tally.eligible))
	if tally.walked < 1000 {
		t.Errorf("%d sampled states walked the root ranking, want at least 1000", tally.walked)
	}
	for name, n := range map[string]int{
		"empty eligible set": tally.empty, "fallback incumbent": tally.fallback, "raised budget": tally.raised,
		"every-slot sweep": tally.everySlot, "exact top ties": tally.tied, "depth ≥ 2 states": tally.deep,
	} {
		if n < 20 {
			t.Errorf("only %d sampled states exercised %s, want at least 20", n, name)
		}
	}
	if tally.sigmaZero < 2 {
		t.Errorf("σ = 0 predictions injected on %d decisions, want at least 2", tally.sigmaZero)
	}
	if tally.evaluated >= tally.eligible {
		t.Error("the pruned sweep never dismissed a candidate on its bound")
	}
}

func checkOracleState(t *testing.T, p *planner, d *decision, state *specState, models *modelSet, inc float64, depth int, tally *oracleTally) {
	t.Helper()
	want, wantOK, err := p.nextStepExhaustive(state, models, inc)
	if err != nil {
		t.Fatalf("state %d: exhaustive sweep: %v", tally.states, err)
	}
	w := p.sched.workers[0]
	evaluated := w.counts.evaluated
	got, gotOK, err := p.nextStep(d, state, models, inc, &w.ws.sweep, &w.counts)
	if err != nil {
		t.Fatalf("state %d: pruned sweep: %v", tally.states, err)
	}
	if gotOK != wantOK || got.id != want.id || got.slot != want.slot {
		t.Fatalf("state %d at depth %d (budget %v, incumbent %v, root incumbent %v): pruned sweep picked (%d, %v), exhaustive (%d, %v)",
			tally.states, depth, state.budget, inc, d.inc, got.id, gotOK, want.id, wantOK)
	}
	if !wantOK {
		tally.empty++
		return
	}

	// Every eligible candidate's bound dominates its exact EIc, and the
	// winner's score is counted for ties.
	eligible, costPreds, extraPreds, err := p.eligible(untestedOf(state), models, state.budget, state.deployed)
	if err != nil {
		t.Fatalf("eligible: %v", err)
	}
	tally.eligible += len(eligible)
	tally.evaluated += w.counts.evaluated - evaluated
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
// the other candidates' bounds make it look, whether the sweep bounds every
// slot (Full mode) or walks the root ranking, where the NaN entry was ranked
// (incremental mode).
func TestNextStepPrunedSurfacesNaNPredictions(t *testing.T) {
	train := &trainSet{
		features: [][]float64{{0, 1}, {1, 2}, {2, 4}},
		costs:    []float64{0.4, 0.9, 0.6},
		extras:   [][]float64{{10, 20, 30}},
		feasible: []bool{true, true, true},
	}
	for _, refit := range []SpeculativeRefit{SpecRefitFull, SpecRefitIncremental} {
		opts := fixtureOptions(t, 3)
		opts.ExtraConstraints = []optimizer.Constraint{{Metric: "energy", Max: 40}}
		params, err := Params{Lookahead: 1, GHOrder: 3, Model: bagging.Params{NumTrees: 5}, Workers: 1, SpeculativeRefit: refit}.withDefaults()
		if err != nil {
			t.Fatalf("withDefaults: %v", err)
		}
		p, err := newPlanner(params, fixtureEnv(t), opts, nil)
		if err != nil {
			t.Fatalf("newPlanner: %v", err)
		}
		cands := gatherAll(t, p)
		for _, at := range []int{0, len(cands) / 2, len(cands) - 1} {
			ms := fitPrefilled(t, p, 3, train)
			d := &decision{root: specState{train: train, untested: cands, budget: 1e9}, models: ms}
			state := &d.root
			inc, err := p.incumbent(state, ms)
			if err != nil {
				t.Fatalf("incumbent: %v", err)
			}
			if _, ok, err := p.nextStep(d, state, ms, inc, &sweepScratch{}, &sweepCounts{}); err != nil || !ok {
				t.Fatalf("clean state: ok=%v err=%v", ok, err)
			}
			slot := cands[at].slot
			ms.extras[0].MemoPreds()[slot] = numeric.Gaussian{Mean: math.NaN(), StdDev: 1}
			// eic reads the constraints only under a non-zero EI.
			ms.cost.MemoPreds()[slot] = numeric.Gaussian{Mean: inc + 3, StdDev: 1}
			if p.refitMode == SpecRefitIncremental {
				d.inc = inc
				p.rank(d)
			}
			if _, _, err := p.nextStepExhaustive(state, ms, inc); err == nil {
				t.Fatalf("NaN at %d: the exhaustive sweep accepted it", at)
			}
			if _, _, err := p.nextStep(d, state, ms, inc, &sweepScratch{}, &sweepCounts{}); err == nil {
				t.Errorf("refit %v, NaN at %d (ranked: %v): the pruned sweep lost the error", refit, at, d.ranking != nil)
			}
		}
	}
}

// TestNextStepBoundReuseBitwise is the differential test of the root
// ranking's reuse (see nextStep): on the speculated states of
// walkOracleStates, at lookahead 2 and 3, the sweep that walks the ranking
// picks the candidate the sweep that bounds every slot afresh picks, and
// every entry the walk may read — a slot on no path, which no pending update
// moved — holds what the walk takes it for: the slot's memo entries are
// bitwise the root's in every model (the journal lists every slot an update
// moved), its threshold is bitwise the one its prediction gives, and its
// bound is bitwise the one computed directly when the state's incumbent is
// the root's, and at least the exact EIc when the incumbent is lower. The
// servesim campaign's SLO model makes the moved slots a union over two
// models; the Scout campaign refits (Full mode), where no ranking is built.
func TestNextStepBoundReuseBitwise(t *testing.T) {
	for _, oc := range oracleCampaigns(t) {
		for _, la := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/la=%d", oc.name, la), func(t *testing.T) {
				var tally oracleTally
				entries, equal := 0, 0
				walkOracleStates(t, oc, la, &tally, func(t *testing.T, p *planner, d *decision, rootMemos [][]numeric.Gaussian, state *specState, models *modelSet, inc float64, depth int) {
					if oc.refit == SpecRefitFull && d.ranking != nil {
						t.Fatal("Full mode built a root ranking")
					}
					n, eq := checkRankingReuse(t, p, d, rootMemos, state, models, inc, depth)
					entries += n
					equal += eq
				})
				t.Logf("%d states (%d walked the ranking); %d ranking entries checked, %d of them under the root's incumbent", tally.states, tally.walked, entries, equal)
				if tally.states < 100 {
					t.Errorf("%d states sampled, want at least 100", tally.states)
				}
				if oc.refit == SpecRefitIncremental && (tally.walked < 50 || equal == 0 || entries == equal) {
					t.Errorf("%d states walked the ranking, %d of %d entries under the root's incumbent; want ≥ 50 states and both incumbent cases", tally.walked, equal, entries)
				}
			})
		}
	}
}

// checkRankingReuse compares the walked sweep of one state with the sweep
// that bounds every slot, and checks every ranking entry the walk may read;
// it returns how many entries it checked and how many of them under an
// incumbent bitwise the root's.
func checkRankingReuse(t *testing.T, p *planner, d *decision, rootMemos [][]numeric.Gaussian, state *specState, models *modelSet, inc float64, depth int) (entries, equal int) {
	t.Helper()
	want, wantOK, err := p.nextStep(&decision{}, state, models, inc, &sweepScratch{}, &sweepCounts{})
	if err != nil {
		t.Fatalf("every-slot sweep: %v", err)
	}
	w := p.sched.workers[0]
	got, gotOK, err := p.nextStep(d, state, models, inc, &w.ws.sweep, &w.counts)
	if err != nil {
		t.Fatalf("walked sweep: %v", err)
	}
	if gotOK != wantOK || got.id != want.id {
		t.Fatalf("depth %d: walking the ranking the sweep picked (%d, %v), bounding every slot (%d, %v)", depth, got.id, gotOK, want.id, wantOK)
	}
	if d.ranking == nil || !(inc <= d.inc) {
		return 0, 0
	}
	moved := make(map[int32]bool)
	for _, id := range models.cost.Moved() {
		moved[id] = true
	}
	for _, m := range models.extras {
		for _, id := range m.Moved() {
			moved[id] = true
		}
	}
	memos := memosOf(t, models)
	extraMemos := extraMemosOf(models)
	same := math.Float64bits(inc) == math.Float64bits(d.inc)
	for _, e := range d.ranking {
		if state.onPathAt(e.slot) || moved[int32(e.slot)] {
			continue
		}
		for k := range memos {
			m, r := memos[k][e.slot], rootMemos[k][e.slot]
			if math.Float64bits(m.Mean) != math.Float64bits(r.Mean) || math.Float64bits(m.StdDev) != math.Float64bits(r.StdDev) {
				t.Fatalf("depth %d: model %d's memo at slot %d is %+v, the root's %+v, and no pending update lists the slot", depth, k, e.slot, m, r)
			}
		}
		cand := &state.untested[e.slot]
		costPred := memos[0][e.slot]
		if thr := p.eligThreshold(costPred); math.Float64bits(thr) != math.Float64bits(e.threshold) {
			t.Fatalf("depth %d, slot %d: ranking threshold %v, the prediction's %v", depth, e.slot, e.threshold, thr)
		}
		entries++
		if same {
			equal++
			if b := p.eicUpperBound(inc, cand, costPred, extraMemos); math.Float64bits(b) != math.Float64bits(e.bound) {
				t.Fatalf("depth %d, slot %d: ranking bound %v, computed directly under the same incumbent %v", depth, e.slot, e.bound, b)
			}
			continue
		}
		row := make([]numeric.Gaussian, len(extraMemos))
		for k, em := range extraMemos {
			row[k] = em[e.slot]
		}
		score, err := p.eic(inc, *cand, costPred, row)
		if err != nil {
			t.Fatalf("eic: %v", err)
		}
		if e.bound < score {
			t.Fatalf("depth %d, slot %d: root bound %v (root incumbent %v) below the exact EIc %v under incumbent %v", depth, e.slot, e.bound, d.inc, score, inc)
		}
	}
	return entries, equal
}
