package core

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/acquisition"
	"repro/internal/configspace"
	"repro/internal/numeric"
)

// pathWorkspace is the model scratch of path evaluations. In Full mode each
// path gets a scratch model set of its own, which explorePaths refits from the
// extended training matrix at every speculated outcome (the exact historical
// behavior), on its worker's workspace. In Incremental mode each scheduler
// worker holds one for every path it evaluates, with one working copy of the
// decision's root models on which every speculated outcome of every depth is
// applied, swept and undone in place — nested depths are a stack of pending
// updates on the one object — so no tree is retrained and none is copied per
// outcome.
type pathWorkspace struct {
	// scratch is the Full-mode model set of the path being evaluated, set
	// for the duration of one evalPath.
	scratch *modelSet

	// work is the working copy and base the token of the root models it was
	// copied from and, every update since having been undone, still equals.
	// A nil base means work equals nothing in particular (never filled, left
	// mid-speculation by an error, or shelved in the share group's pool) and
	// must be copied afresh before use.
	work *modelSet
	base *rootToken

	// depths[d] is the combo loop's scratch at speculation depth d: the
	// extended training set, the speculated child state, and the
	// Gauss-Hermite outcome/combo buffers. Depth d's recursion returns before
	// depth d reuses its scratch for the next combo, so one set per depth
	// serves every path.
	depths []*pathDepthScratch

	// sweep is the path marks and nextStep scratch of the paths evaluated
	// on the workspace.
	sweep sweepScratch

	// owner is the worker holding the workspace (see workspacePool) and shape
	// the pool shelf it returns to; a worker's private workspace is stamped
	// once and has no shape.
	owner atomic.Pointer[specWorker]
	shape string
}

// pathDepthScratch is one speculation depth's reusable combo-loop storage.
type pathDepthScratch struct {
	train     *trainSet
	state     specState
	preds     []numeric.Gaussian
	outcomes  []numeric.WeightedValue
	marginals [][]numeric.WeightedValue
	combos    []numeric.WeightedVector
	comboVals []float64
}

// depth returns the scratch of the given speculation depth, creating it on
// first use. Contents are fully overwritten before every use.
func (ws *pathWorkspace) depth(slot int) *pathDepthScratch {
	for len(ws.depths) <= slot {
		ws.depths = append(ws.depths, &pathDepthScratch{train: &trainSet{}})
	}
	return ws.depths[slot]
}

// sweepScratch is a workspace's scratch for the paths explored on it and
// the nextStep sweeps they run, indexed by candidate slot. Between paths it
// holds no mark, and a stamp never carries a later sweep's epoch, so a
// workspace moves between planners (see workspacePool) with it.
type sweepScratch struct {
	// onPath marks the candidates of the path being explored, which
	// explorePaths sets and clears stack-wise; members counts them.
	onPath  []bool
	members int

	// stamp[slot] == epoch marks a slot the current sweep found moved, and
	// moved holds those of them that are eligible, with their fresh bounds.
	stamp []uint32
	epoch uint32
	moved []slotBound
}

// sweepCounts is one scheduler worker's useful-work counters of the nextStep
// sweeps it runs: exact EIc evaluations, and bounds computed afresh rather
// than read from the root ranking — plain ints, because a shared atomic in
// the sweep costs more than the sweep saves.
type sweepCounts struct {
	evaluated int
	fresh     int
}

// slotBound is a candidate slot with its EIc bound.
type slotBound struct {
	slot  int
	bound float64
}

// reserve sizes the slot-indexed scratch for n candidate slots, keeping the
// marks already set.
func (sw *sweepScratch) reserve(n int) {
	if len(sw.onPath) < n {
		sw.onPath = append(sw.onPath, make([]bool, n-len(sw.onPath))...)
		sw.stamp = append(sw.stamp, make([]uint32, n-len(sw.stamp))...)
		sw.moved = make([]slotBound, 0, n)
	}
}

// mark adds the candidate in slot to the path; unmark takes it back out.
func (sw *sweepScratch) mark(slot int) {
	sw.onPath[slot] = true
	sw.members++
}

func (sw *sweepScratch) unmark(slot int) {
	sw.onPath[slot] = false
	sw.members--
}

// nextEpoch starts a sweep's moved-slot stamps: no slot carries the new epoch.
func (sw *sweepScratch) nextEpoch() {
	if sw.epoch++; sw.epoch == 0 {
		clear(sw.stamp)
		sw.epoch = 1
	}
}

// working returns the workspace's working copy holding the state of parent,
// the model set the next speculated sample is to be folded into. Deeper
// speculation passes the working copy itself, which is used as it is; a
// decision's root models are copied on the workspace's first touch and
// recognised by their token from then on.
func (ws *pathWorkspace) working(p *planner, w *specWorker, parent *modelSet) (*modelSet, error) {
	if parent == ws.work || (ws.base != nil && ws.base == parent.token) {
		return ws.work, nil
	}
	if parent.token == nil {
		panic("core: speculating below a model set that is neither a decision's root models nor the working copy")
	}
	if ws.work == nil {
		// The stream only seeds the untrained placeholder models; cloneFrom
		// replaces their state entirely, so any constant works.
		ws.work = p.newModelSet(1, 0)
	}
	ws.base = nil
	if err := ws.work.cloneFrom(parent); err != nil {
		return nil, err
	}
	w.modelCopies++
	ws.base = parent.token
	return ws.work, nil
}

// evalPath scores the exploration paths rooted at one eligible candidate of
// the decision on the given scheduler worker. Full mode keeps the historical
// per-candidate scratch model set with its random stream derived from
// (decision number, candidate ID) — the derivation the golden campaign tests
// pin; the number is one-based because the decision counter used to advance
// before the fan-out — and deliberately never reuses it. Both modes speculate
// on the worker's own workspace, whose per-depth scratch holds no model state.
func (p *planner) evalPath(w *specWorker, d *decision, cand candidate) (pathScore, error) {
	// Cancellation poll: a cancelled step abandons the remaining path
	// evaluations (the error propagates through the canonical firstError
	// reduction, so the abort is deterministic).
	if err := cancelErr(d.ctx); err != nil {
		return pathScore{}, err
	}
	ws := w.ws
	ws.assertOwner(w)
	if p.refitMode != SpecRefitIncremental && p.params.Lookahead > 0 {
		// A myopic path never speculates, so it gets no scratch to refit:
		// explorePaths returns before touching the workspace.
		ws.scratch = p.newModelSet(int64(p.iteration+1)*4_000_000_007+int64(cand.id), len(d.root.untested))
	}
	reward, cost, err := p.explorePaths(d, &d.root, d.models, d.inc, cand, p.params.Lookahead, ws, 0, w)
	ws.scratch = nil
	if err != nil {
		return pathScore{}, err
	}
	return pathScore{candidateID: cand.id, reward: reward, cost: cost}, nil
}

// specState is the state Σ of one node of an exploration path: the
// (speculated) training set, the untested configurations, the remaining
// budget and the currently deployed configuration. untested is the decision's
// active candidate set, indexed by slot, in every state of the decision; a
// speculated state's untested configurations are those of them not on the
// path that reached it, which onPath marks (nil at the root).
type specState struct {
	train    *trainSet
	untested []candidate
	onPath   []bool
	budget   float64
	deployed *configspace.Config // nil when nothing is deployed (or no setup-cost function reads it)
}

// onPathAt reports whether the candidate in slot is on the state's path.
func (s *specState) onPathAt(slot int) bool {
	return slot < len(s.onPath) && s.onPath[slot]
}

// setupCost returns the setup cost of switching from the state's deployed
// configuration to the candidate, if the extension is enabled.
func (p *planner) setupCost(deployed *configspace.Config, to candidate) float64 {
	if p.opts.SetupCost == nil {
		return 0
	}
	return p.opts.SetupCost(deployed, p.candidateConfig(to))
}

// affords is the eligibility test of a speculated state's candidate with
// cost prediction costPred (see fitsBudget): with setup costs, the predicted
// cost must also fit what the budget leaves after switching to the candidate
// from the deployed configuration — the runner charges both.
func (p *planner) affords(state *specState, cand *candidate, costPred numeric.Gaussian) bool {
	if !p.fitsBudget(costPred, state.budget) {
		return false
	}
	return p.opts.SetupCost == nil || p.fitsBudget(costPred, state.budget-p.setupCost(state.deployed, *cand))
}

// feasibleSpeculation reports whether a speculated (cost, extras) outcome for
// the candidate satisfies the runtime and extra constraints: the runtime
// constraint is expressed on the cost via C(x) = T(x)·U(x). (The threshold is
// (Tmax·U)/3600 here and Tmax·(U/3600) in the EIc — cand.runtimeCostMax — as
// it always was; the two round differently, and trial sequences are pinned
// bitwise.)
func (p *planner) feasibleSpeculation(cand candidate, cost float64, extras []float64) bool {
	if cost > p.opts.MaxRuntimeSeconds*cand.unitPriceHour/3600 {
		return false
	}
	for k, max := range p.extraMax {
		if extras[k] > max {
			return false
		}
	}
	return true
}

// incumbent returns the EIc incumbent of a state: the cheapest feasible entry
// of the (speculated) training set, or, when no entry is feasible, the
// fallback "most expensive profiled cost plus three times the largest
// predictive standard deviation over untested configurations" (path members
// excluded). It depends
// only on (state, fitted models), so callers compute it once per state and
// share it across every candidate scored under that state.
func (p *planner) incumbent(state *specState, ms *modelSet) (float64, error) {
	if inc, ok := state.train.bestFeasibleCost(); ok {
		return inc, nil
	}
	memo := ms.cost.MemoPreds()
	if memo == nil {
		return 0, errNotPrefilled
	}
	maxStd := 0.0
	for _, u := range state.untested {
		if state.onPathAt(u.slot) {
			continue
		}
		if s := memo[u.slot].StdDev; s > maxStd {
			maxStd = s
		}
	}
	return acquisition.IncumbentFallback(state.train.maxCost(), maxStd), nil
}

// eic computes the constrained expected improvement of a candidate under the
// given incumbent and model predictions (paper §3). The incumbent comes from
// incumbent(), computed once per speculation state.
func (p *planner) eic(incumbent float64, cand candidate, costPred numeric.Gaussian, extraPreds []numeric.Gaussian) (float64, error) {
	ei := acquisition.ExpectedImprovement(costPred, incumbent)
	if ei == 0 {
		// The constraint probabilities only scale the expected improvement
		// down, so a zero EI needs no erfc evaluations. This is the common
		// case deep in speculation, where the ensemble's trees agree on
		// configurations predicted clearly above the incumbent.
		return 0, nil
	}
	// acquisition.Constrained only reads the variadic slice, so a small
	// stack array covers the runtime constraint plus the handful of extra
	// metric constraints without allocating on every candidate scored.
	var probsArr [4]float64
	probs := probsArr[:0]
	if 1+len(extraPreds) > cap(probs) {
		probs = make([]float64, 0, 1+len(extraPreds))
	}
	probs = append(probs, costPred.ProbLE(cand.runtimeCostMax))
	for k, pred := range extraPreds {
		probs = append(probs, clampProb(pred.ProbLE(p.extraMax[k])))
	}
	return acquisition.Constrained(ei, probs...)
}

// eicUpperBound returns a transcendental-free upper bound on eic for the same
// inputs (extras read from the memo arrays by slot): the product, in eic's
// own multiplication order, of acquisition's upper bounds on each of its
// factors. Floating-point multiplication by a non-negative factor is
// monotone, so factor-wise bounds multiplied in the same order bound the
// computed product; a NaN factor makes the bound NaN, which never prunes.
func (p *planner) eicUpperBound(incumbent float64, cand *candidate, costPred numeric.Gaussian, extraMemos [][]numeric.Gaussian) float64 {
	bound := acquisition.ExpectedImprovementUpperBound(costPred, incumbent)
	if bound == 0 {
		return 0
	}
	bound *= acquisition.ProbLEUpperBound(costPred, cand.runtimeCostMax)
	for k, em := range extraMemos {
		bound *= acquisition.ProbLEUpperBound(em[cand.slot], p.extraMax[k])
	}
	return bound
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// fitsBudget is the eligibility test of Algorithm 1, line 23 and Algorithm 2,
// line 22: the predicted cost fits within the budget with the configured
// confidence. With setup costs, the sweeps also test affordability (see
// affords).
func (p *planner) fitsBudget(costPred numeric.Gaussian, budget float64) bool {
	if !p.eligUseZ {
		return costPred.ProbLE(budget) >= p.params.EligibilityProb
	}
	return budget >= p.eligThreshold(costPred)
}

// eligThreshold is the budget fitsBudget's incremental-mode test requires of
// a cost prediction: mean + z·σ, or the mean at σ = 0.
func (p *planner) eligThreshold(costPred numeric.Gaussian) float64 {
	if costPred.StdDev == 0 {
		return costPred.Mean
	}
	return costPred.Mean + p.eligZ*costPred.StdDev
}

// nextStep selects the configuration explored at depth ≥ 2 of a path: the
// eligible untested configuration with the highest EIc under the speculated
// state, ties to the lower configuration ID (Algorithm 2, NextStep). inc is
// the state's incumbent, computed once by the caller and shared with the
// recursive path evaluation; d is the state's decision, whose root ranking
// (see rank) the sweep walks.
//
// Only the argmax is used, so the sweep is an exact branch and bound: the
// exact EIc is computed only for candidates whose EIc upper bound
// (eicUpperBound, no erfc or exp) is not strictly below the best exact value
// so far. A skipped candidate could neither win nor tie, and the argmax of
// (EIc, −ID) does not depend on visiting order, so the choice is the
// exhaustive sweep's, bit for bit. NaN compares false: a NaN bound is never
// skipped and a NaN EIc never wins, and since eic rejects nothing but a NaN
// probability, whose bound is NaN, a state the exhaustive sweep fails on
// fails here too.
//
// The slots some pending update of ms moved (model.Cached.Moved, over every
// model) are bounded afresh and the best of them evaluated. Every other slot
// holds the root models' predictions, so its ranking entry bounds its EIc
// here while inc is at most the root incumbent — EI only grows with the
// incumbent, and the bound's margin covers the rounding (FuzzEIcUpperBound)
// — and is the fresh bound bit for bit when the incumbents are equal. The
// sweep walks the ranking from the top, skipping moved slots, path members
// and ineligible entries, until a root bound falls below the best exact EIc,
// where no later entry (NaN bounds lead) can reach it; then it evaluates the
// moved slots whose bounds reach the best. A state without a ranking
// (Full-mode refits move every slot) or with an incumbent above the root's
// takes the same path with every slot moved.
func (p *planner) nextStep(d *decision, state *specState, ms *modelSet, inc float64, sw *sweepScratch, counts *sweepCounts) (candidate, bool, error) {
	costMemo := ms.cost.MemoPreds()
	extraMemos := extraMemosOf(ms)
	if costMemo == nil || extraMemos == nil {
		return candidate{}, false, errNotPrefilled
	}
	sw.reserve(len(costMemo))
	walk := d.ranking != nil && inc <= d.inc

	// Bound the moved slots, or every slot when the ranking does not apply.
	sw.moved = sw.moved[:0]
	bound := func(slot int) {
		if state.onPathAt(slot) {
			return
		}
		cand := &state.untested[slot]
		if costPred := costMemo[slot]; p.affords(state, cand, costPred) {
			sw.moved = append(sw.moved, slotBound{slot, p.eicUpperBound(inc, cand, costPred, extraMemos)})
		}
	}
	if walk {
		sw.nextEpoch()
		boundMoved := func(ids []int32) {
			for _, id := range ids {
				if sw.stamp[id] != sw.epoch {
					sw.stamp[id] = sw.epoch
					bound(int(id))
				}
			}
		}
		boundMoved(ms.cost.Moved())
		for _, m := range ms.extras {
			boundMoved(m.Moved())
		}
	} else {
		for slot := range state.untested {
			bound(slot)
		}
	}
	counts.fresh += len(sw.moved)

	best := candidate{}
	bestEIc := -1.0
	evaluated := 0
	exact := func(cand *candidate) error {
		var rowArr [3]numeric.Gaussian
		row := rowArr[:0]
		for _, em := range extraMemos {
			row = append(row, em[cand.slot])
		}
		score, err := p.eic(inc, *cand, costMemo[cand.slot], row)
		if err != nil {
			return err
		}
		evaluated++
		if score > bestEIc || (score == bestEIc && cand.id < best.id) {
			best = *cand
			bestEIc = score
		}
		return nil
	}
	// The moved list's order is the repair's, which depends on the working
	// copy's history; ties to the lower slot and the fixed cut of the last
	// pass keep the evaluations (and counters) independent of it.
	seed, seedBound := -1, math.Inf(-1)
	for i, m := range sw.moved {
		if m.bound > seedBound || (seed >= 0 && m.bound == seedBound && m.slot < sw.moved[seed].slot) {
			seed, seedBound = i, m.bound
		}
	}
	if seed >= 0 {
		if err := exact(&state.untested[sw.moved[seed].slot]); err != nil {
			return candidate{}, false, err
		}
	}
	if walk {
		same := math.Float64bits(inc) == math.Float64bits(d.inc)
		for i := range d.ranking {
			e := &d.ranking[i]
			if e.bound < bestEIc {
				break
			}
			slot := e.slot
			if sw.stamp[slot] == sw.epoch || state.onPathAt(slot) || !(state.budget >= e.threshold) {
				continue
			}
			cand := &state.untested[slot]
			if p.opts.SetupCost != nil && !(state.budget-p.setupCost(state.deployed, *cand) >= e.threshold) {
				continue
			}
			if !same {
				counts.fresh++
				if p.eicUpperBound(inc, cand, costMemo[slot], extraMemos) < bestEIc {
					continue
				}
			}
			if err := exact(cand); err != nil {
				return candidate{}, false, err
			}
		}
	}
	cut := bestEIc
	for i, m := range sw.moved {
		if i == seed || m.bound < cut {
			continue
		}
		if err := exact(&state.untested[m.slot]); err != nil {
			return candidate{}, false, err
		}
	}
	counts.evaluated += evaluated
	return best, evaluated > 0, nil
}

// explorePaths implements Algorithm 2: it returns the expected reward and
// expected cost of the exploration path that starts by profiling cand from
// the given state, speculating on the remaining lookahead steps.
//
// models must be trained on state.train and inc must be the incumbent of
// (state, models); ws is the model workspace that keeps path evaluations
// independent across goroutines — in Full mode a scratch set
// explorePaths refits freely (random stream split deterministically from the
// candidate ID), in Incremental mode the one working copy every speculated
// outcome below is applied to and undone on. slot is the speculation depth
// within the path (0 at its root call): it indexes the per-depth scratch and
// equals the number of updates pending on the working copy, which from depth
// 1 on is models itself; cand is on ws's path marks while the states below
// it are explored. w is the scheduler worker executing this evaluation,
// whose counters the path's sweeps update. d is the decision.
func (p *planner) explorePaths(d *decision, state *specState, models *modelSet, inc float64, cand candidate, lookahead int, ws *pathWorkspace, slot int, w *specWorker) (reward, cost float64, err error) {
	ds := ws.depth(slot)
	ds.preds, err = models.predictCand(ds.preds[:0], cand)
	if err != nil {
		return 0, 0, err
	}
	costPred, extraPreds := ds.preds[0], ds.preds[1:]
	reward, err = p.eic(inc, cand, costPred, extraPreds)
	if err != nil {
		return 0, 0, err
	}
	setup := p.setupCost(state.deployed, cand)
	cost = costPred.Mean + setup

	if lookahead == 0 {
		return reward, cost, nil
	}

	// Discretize the speculated outcomes: the cost and every constraint
	// metric each contribute a Gauss-Hermite marginal; the joint outcomes are
	// their Cartesian product (paper §4.4 for the multi-constraint case; with
	// no extra constraint, the cost marginal itself). Marginals and combos
	// live in this depth's recycled scratch — one Gauss-Hermite batch of
	// speculated outcomes per step, allocated never.
	ds.outcomes = slices.Grow(ds.outcomes[:0], len(ds.preds)*p.params.GHOrder)
	ds.marginals = ds.marginals[:0]
	for _, pred := range ds.preds {
		start := len(ds.outcomes)
		if ds.outcomes, err = numeric.AppendDiscretizedGaussian(ds.outcomes, pred, p.params.GHOrder); err != nil {
			return 0, 0, err
		}
		ds.marginals = append(ds.marginals, ds.outcomes[start:])
	}
	ds.combos, ds.comboVals, err = numeric.AppendCartesianWeighted(ds.combos[:0], ds.comboVals[:0], ds.marginals)
	if err != nil {
		return 0, 0, err
	}

	sw := &ws.sweep
	sw.reserve(len(state.untested))
	if sw.members+1 >= len(state.untested) {
		// The path holds every candidate: nothing is left to explore.
		return reward, cost, nil
	}
	sw.mark(cand.slot)
	defer sw.unmark(cand.slot)
	var childDeployed *configspace.Config
	if p.opts.SetupCost != nil {
		cfg := p.candidateConfig(cand)
		childDeployed = &cfg
	}

	// The speculated child states differ only in the outcome of the last
	// (speculated) training entry, so one extended training set is built
	// per candidate and the entry is rewritten per combo. Deeper recursion
	// copies the training set before extending it, so the mutation never
	// escapes this loop.
	childTrain := state.train.withEntryInto(ds.train, cand.features, 0, nil, false)
	last := len(childTrain.costs) - 1
	for _, combo := range ds.combos {
		specCost := combo.Values[0]
		specExtras := combo.Values[1:]
		feasible := p.feasibleSpeculation(cand, specCost, specExtras)

		childTrain.costs[last] = specCost
		childTrain.feasible[last] = feasible
		for k := range childTrain.extras {
			childTrain.extras[k][last] = specExtras[k]
		}
		ds.state = specState{
			train:    childTrain,
			untested: state.untested,
			onPath:   sw.onPath,
			budget:   state.budget - specCost - setup,
			deployed: childDeployed,
		}
		subReward, subCost, ok, err := p.speculate(d, w, ws, slot, &ds.state, models, cand, specCost, specExtras, lookahead)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			// The speculated budget cannot accommodate any further step: the
			// path terminates here (Algorithm 2, lines 15-16).
			continue
		}
		cost += combo.Weight * subCost
		reward += p.params.Discount * combo.Weight * subReward
	}
	return reward, cost, nil
}

// speculate evaluates the subtree below one speculated outcome of profiling
// cand: derive the child models from the parent's, compute the child state's
// incumbent, select the next step under it, and recurse with the remaining
// lookahead; ok is false when the speculated budget admits no further step.
func (p *planner) speculate(d *decision, w *specWorker, ws *pathWorkspace, slot int, child *specState, parent *modelSet, cand candidate, specCost float64, specExtras []float64, lookahead int) (reward, cost float64, ok bool, err error) {
	if p.refitMode != SpecRefitIncremental {
		if err := p.refit(ws.scratch, child.train); err != nil {
			return 0, 0, false, err
		}
		return p.sweepChild(d, w, ws, slot, child, ws.scratch, lookahead)
	}
	// Incremental fast path: fold the one speculated sample into the
	// workspace's working copy, which holds the parent's models and memos;
	// the update repairs only the memo entries its touched tree regions
	// moved, so the incumbent and next-step sweeps cost O(changed) model
	// evaluations instead of a full refit + sweep; then take the sample back
	// out, leaving the copy bitwise as the next outcome expects it.
	models, err := ws.working(p, w, parent)
	if err != nil {
		return 0, 0, false, err
	}
	defer func() {
		if err != nil {
			// Whatever failed between apply and undo, the copy may be left
			// mid-speculation: its next user copies afresh.
			ws.base = nil
		}
	}()
	if err := models.update(cand.features, specCost, specExtras); err != nil {
		return 0, 0, false, err
	}
	if models.pending() != slot+1 {
		panic("core: working copy swept with a number of pending updates other than its speculation depth")
	}
	reward, cost, ok, err = p.sweepChild(d, w, ws, slot, child, models, lookahead)
	if err != nil {
		return 0, 0, false, err
	}
	if err := models.undo(); err != nil {
		return 0, 0, false, err
	}
	return reward, cost, ok, nil
}

// sweepChild scores a speculated child state under its models: incumbent,
// next step, and the path below it.
func (p *planner) sweepChild(d *decision, w *specWorker, ws *pathWorkspace, slot int, child *specState, models *modelSet, lookahead int) (reward, cost float64, ok bool, err error) {
	inc, err := p.incumbent(child, models)
	if err != nil {
		return 0, 0, false, err
	}
	next, found, err := p.nextStep(d, child, models, inc, &ws.sweep, &w.counts)
	if err != nil || !found {
		return 0, 0, false, err
	}
	reward, cost, err = p.explorePaths(d, child, models, inc, next, lookahead-1, ws, slot+1, w)
	return reward, cost, err == nil, err
}
