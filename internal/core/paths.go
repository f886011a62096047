package core

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/acquisition"
	"repro/internal/configspace"
	"repro/internal/model"
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
	// extended training set, the reduced untested slice, the speculated child
	// state with its EIc bound table, and the Gauss-Hermite outcome/combo
	// buffers. Depth d's recursion returns before depth d reuses its scratch
	// for the next combo, so one set per depth serves every path; and the
	// bound table of depth d stays valid for every child of its state, whose
	// sweeps at depth d+1 start from it (see boundTable). The root state's
	// table, which depth 0's sweeps start from, is the planner's and is only
	// ever passed down, never stored here, so a shelved workspace pins no
	// decision's table.
	depths []*pathDepthScratch

	// owner is the worker holding the workspace (see workspacePool) and shape
	// the pool shelf it returns to; a worker's private workspace is stamped
	// once and has no shape.
	owner atomic.Pointer[specWorker]
	shape string
}

// pathDepthScratch is one speculation depth's reusable combo-loop storage.
// bounds is the bound table of state, filled by the sweep that chooses the
// state's next step.
type pathDepthScratch struct {
	train     *trainSet
	untested  []candidate
	state     specState
	bounds    boundTable
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

// eligibleBuf holds one scheduler worker's useful-work counters of the
// nextStep sweeps it runs (specWorker.elig): eligible candidates dismissed on
// their bound alone vs. scored with the exact EIc, and the bounds computed
// afresh rather than taken over from the parent state's table — plain ints,
// because a shared atomic in the sweep costs more than the sweep saves.
//
// affordable is the worker's scratch for the candidates a setup-cost
// campaign's sweep visits (see planner.affordable).
type eligibleBuf struct {
	bounded    int
	evaluated  int
	fresh      int
	affordable []candidate
}

// boundTable is the EIc upper bounds of one state's candidates by slot,
// computed under the incumbent inc and the state's models; an entry no sweep
// of the state needed (a candidate the budget rules out) is boundUnknown.
//
// A speculated state's models are its parent's plus one update, and the
// bound is a pure function of the incumbent, the candidate's memo entries and
// its fixed thresholds. So when the state's incumbent is bitwise its
// parent's, every slot the update did not move has its parent's bound bit for
// bit: the sweep copies the parent's table and forgets only the moved slots
// (model.Cached.LastMoved, over the cost model and every constraint model;
// every update is repaired, so a set with an update pending knows them). Any
// other state — a changed incumbent, a Full-mode refit, the root — starts
// from a table with every slot forgotten.
type boundTable struct {
	inc    float64
	bounds []float64
}

// boundUnknown marks a table entry that has not been computed. Real bounds
// are non-negative or NaN.
var boundUnknown = math.Inf(-1)

// inherit readies t as the table of a state with n candidate slots, swept
// under incumbent inc with models ms: parent's entries minus the slots ms's
// last update moved when parent is reusable (see boundTable), no entry
// otherwise.
func (t *boundTable) inherit(parent *boundTable, ms *modelSet, inc float64, n int) {
	if cap(t.bounds) < n {
		t.bounds = make([]float64, n)
	}
	t.bounds, t.inc = t.bounds[:n], inc
	if parent == nil || len(parent.bounds) != n || math.Float64bits(parent.inc) != math.Float64bits(inc) || ms.pending() == 0 {
		for i := range t.bounds {
			t.bounds[i] = boundUnknown
		}
		return
	}
	copy(t.bounds, parent.bounds)
	t.forget(ms.cost)
	for _, m := range ms.extras {
		t.forget(m)
	}
}

// forget drops the entries of the slots m's last update moved.
func (t *boundTable) forget(m *model.Cached) {
	for _, id := range m.LastMoved() {
		t.bounds[id] = boundUnknown
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
	reward, cost, err := p.explorePaths(&d.root, d.models, d.inc, cand, p.params.Lookahead, ws, 0, w)
	ws.scratch = nil
	if err != nil {
		return pathScore{}, err
	}
	return pathScore{candidateID: cand.id, reward: reward, cost: cost}, nil
}

// specState is the state Σ of one node of an exploration path: the
// (speculated) training set, the untested configurations, the remaining
// budget, the currently deployed configuration, and the table the sweep
// choosing the state's next step fills with its EIc bounds (the root's only
// when it has speculated children, Lookahead ≥ 1).
type specState struct {
	train    *trainSet
	untested []candidate
	budget   float64
	deployed *configspace.Config // nil when nothing is deployed (or no setup-cost function reads it)
	bounds   *boundTable
}

// appendWithout appends the untested set minus the given candidate to dst
// and returns the extended slice; the speculation loop passes its per-depth
// scratch as dst.
func appendWithout(dst []candidate, untested []candidate, id int) []candidate {
	for _, c := range untested {
		if c.id != id {
			dst = append(dst, c)
		}
	}
	return dst
}

// setupCost returns the setup cost of switching from the state's deployed
// configuration to the candidate, if the extension is enabled.
func (p *planner) setupCost(deployed *configspace.Config, to candidate) float64 {
	if p.opts.SetupCost == nil {
		return 0
	}
	return p.opts.SetupCost(deployed, p.candidateConfig(to))
}

// affordable appends to dst the candidates of untested whose predicted cost
// fits what the budget leaves after the setup cost of switching to them from
// deployed — the runner charges both. Only setup-cost campaigns call it, once
// per sweep, and sweep its result instead of untested: campaigns without
// setup costs run the sweeps unchanged.
func (p *planner) affordable(dst, untested []candidate, costMemo []numeric.Gaussian, deployed *configspace.Config, budget float64) []candidate {
	for _, u := range untested {
		if p.fitsBudget(costMemo[u.slot], budget-p.setupCost(deployed, u)) {
			dst = append(dst, u)
		}
	}
	return dst
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
// predictive standard deviation over untested configurations". It depends
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
// confidence. With setup costs, the sweeps first narrow the candidates to the
// affordable ones.
func (p *planner) fitsBudget(costPred numeric.Gaussian, budget float64) bool {
	if !p.eligUseZ {
		return costPred.ProbLE(budget) >= p.params.EligibilityProb
	}
	if costPred.StdDev == 0 {
		return budget >= costPred.Mean
	}
	return budget >= costPred.Mean+p.eligZ*costPred.StdDev
}

// nextStep selects the configuration explored at depth ≥ 2 of a path: the
// eligible untested configuration with the highest EIc under the speculated
// state, ties to the lower configuration ID (Algorithm 2, NextStep). inc is
// the state's incumbent, computed once by the caller and shared with the
// recursive path evaluation; parent is the bound table of the state's parent
// (nil when there is none to start from).
//
// Only the argmax is used, so the sweep is an exact branch and bound. One
// fused pass applies the eligibility test and bounds every eligible
// candidate's EIc from above without erfc or exp (eicUpperBound), writing
// the bounds into the state's table — or reading them there, for the slots
// the table took over from parent (see boundTable), bitwise the values it
// would compute. The exact EIc is then computed for the candidate with the
// largest bound and, in candidate order, for every eligible candidate whose
// bound is not strictly below the best exact value so far; a skipped
// candidate's EIc lies strictly below an exactly computed one, so it could
// neither win nor tie. Exactly evaluated candidates compete under the
// exhaustive sweep's own rule, and the argmax of (EIc, −ID) does not depend
// on visiting order, so the choice is the one the exhaustive sweep makes, bit
// for bit. NaN compares false: a NaN bound is never skipped and a NaN EIc
// never wins, as in the exhaustive sweep; and since eic rejects nothing but a
// NaN probability, whose bound is NaN, a state on which the exhaustive sweep
// fails fails here too.
func (p *planner) nextStep(state *specState, ms *modelSet, inc float64, parent *boundTable, buf *eligibleBuf) (candidate, bool, error) {
	costMemo := ms.cost.MemoPreds()
	extraMemos := extraMemosOf(ms)
	if costMemo == nil || extraMemos == nil {
		return candidate{}, false, errNotPrefilled
	}
	state.bounds.inherit(parent, ms, inc, len(costMemo))
	bounds := state.bounds.bounds
	untested := state.untested
	if p.opts.SetupCost != nil {
		buf.affordable = p.affordable(buf.affordable[:0], untested, costMemo, state.deployed, state.budget)
		untested = buf.affordable
	}
	nEligible, fresh := 0, 0
	seed, seedBound := -1, math.Inf(-1)
	for i := range untested {
		u := &untested[i]
		costPred := costMemo[u.slot]
		if !p.fitsBudget(costPred, state.budget) {
			continue
		}
		nEligible++
		b := bounds[u.slot]
		if b == boundUnknown {
			b = p.eicUpperBound(inc, u, costPred, extraMemos)
			bounds[u.slot] = b
			fresh++
		}
		if b > seedBound {
			seed, seedBound = i, b
		}
	}
	buf.fresh += fresh
	if nEligible == 0 {
		return candidate{}, false, nil
	}

	best := candidate{}
	bestEIc := -1.0
	evaluated := 0
	exact := func(cand candidate) error {
		var rowArr [3]numeric.Gaussian
		row := rowArr[:0]
		for _, em := range extraMemos {
			row = append(row, em[cand.slot])
		}
		score, err := p.eic(inc, cand, costMemo[cand.slot], row)
		if err != nil {
			return err
		}
		evaluated++
		if score > bestEIc || (score == bestEIc && cand.id < best.id) {
			best = cand
			bestEIc = score
		}
		return nil
	}
	if seed >= 0 {
		if err := exact(untested[seed]); err != nil {
			return candidate{}, false, err
		}
	}
	for i := range untested {
		// The table also holds entries of candidates the budget rules out
		// (unknown, or taken over from parent), so a bound that survives
		// the cut is re-tested for eligibility.
		slot := untested[i].slot
		if i == seed || bounds[slot] < bestEIc || !p.fitsBudget(costMemo[slot], state.budget) {
			continue
		}
		if err := exact(untested[i]); err != nil {
			return candidate{}, false, err
		}
	}
	buf.evaluated += evaluated
	buf.bounded += nEligible - evaluated
	return best, true, nil
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
// 1 on is models itself. w is the scheduler worker executing this
// evaluation, whose sweep scratch and counters the path uses.
func (p *planner) explorePaths(state *specState, models *modelSet, inc float64, cand candidate, lookahead int, ws *pathWorkspace, slot int, w *specWorker) (reward, cost float64, err error) {
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

	childUntested := appendWithout(ds.untested[:0], state.untested, cand.id)
	ds.untested = childUntested[:0]
	if len(childUntested) == 0 {
		return reward, cost, nil
	}
	var childDeployed *configspace.Config
	if p.opts.SetupCost != nil {
		cfg := p.candidateConfig(cand)
		childDeployed = &cfg
	}

	// The speculated child states differ only in the outcome of the last
	// (speculated) training entry, so one extended training set and one
	// reduced untested slice are built per candidate and the entry is
	// rewritten per combo. Deeper recursion copies the training set before
	// extending it, so the mutation never escapes this loop.
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
			untested: childUntested,
			budget:   state.budget - specCost - setup,
			deployed: childDeployed,
			bounds:   &ds.bounds,
		}
		subReward, subCost, ok, err := p.speculate(w, ws, slot, &ds.state, state.bounds, models, cand, specCost, specExtras, lookahead)
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
// incumbent, select the next step under it (starting from the parent state's
// bound table parentBounds), and recurse with the remaining lookahead; ok is
// false when the speculated budget admits no further step.
func (p *planner) speculate(w *specWorker, ws *pathWorkspace, slot int, child *specState, parentBounds *boundTable, parent *modelSet, cand candidate, specCost float64, specExtras []float64, lookahead int) (reward, cost float64, ok bool, err error) {
	if p.refitMode != SpecRefitIncremental {
		if err := p.refit(ws.scratch, child.train); err != nil {
			return 0, 0, false, err
		}
		return p.sweepChild(w, ws, slot, child, parentBounds, ws.scratch, lookahead)
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
	reward, cost, ok, err = p.sweepChild(w, ws, slot, child, parentBounds, models, lookahead)
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
func (p *planner) sweepChild(w *specWorker, ws *pathWorkspace, slot int, child *specState, parentBounds *boundTable, models *modelSet, lookahead int) (reward, cost float64, ok bool, err error) {
	inc, err := p.incumbent(child, models)
	if err != nil {
		return 0, 0, false, err
	}
	next, found, err := p.nextStep(child, models, inc, parentBounds, &w.elig)
	if err != nil || !found {
		return 0, 0, false, err
	}
	reward, cost, err = p.explorePaths(child, models, inc, next, lookahead-1, ws, slot+1, w)
	return reward, cost, err == nil, err
}
