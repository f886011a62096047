package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/acquisition"
	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
	"repro/internal/share"
)

// decision is the per-decision value one planning decision's phases fill in
// turn; each field group is written by the phase named above it and read-only
// afterwards (in particular during scorePaths' parallel fan-out).
type decision struct {
	// selectCandidates: the inputs. ctx is the step's context, polled at the
	// pipeline's boundaries and once per path evaluation; polling a live
	// context returns nil everywhere, so cancellation support never perturbs
	// decisions. root is the real (unspeculated) state: the history as a
	// training set, the active candidate set, the remaining budget.
	ctx  context.Context
	root specState

	// rootModels: fitted on root.train and prefilled over every candidate.
	models *modelSet

	// eligibility: the candidates that fit the budget, index-aligned with
	// their root cost predictions and root EIc, the root incumbent, and the
	// root ranking the speculated states' sweeps walk (see rank).
	eligible  []candidate
	costPreds []numeric.Gaussian
	rootEIc   []float64
	inc       float64
	ranking   []rankEntry

	// scorePaths: one score per exactly evaluated eligible candidate.
	scores []pathScore

	// choose: the outcome, in the form the share group publishes.
	out sharedDecision
}

// nextConfig implements Algorithm 1's NextConfig: it asks Params.Search for
// the candidate IDs considered at this decision, scores the exploration
// paths rooted at every eligible candidate, and returns the configuration
// starting the path with the best reward-to-cost ratio.
//
// Cross-campaign sharing wraps the pipeline instead of branching inside it:
// when every planning input is captured by the decision key (see sharable and
// decisionKey), an identical campaign's published decision is adopted
// outright, and concurrent identical campaigns single-flight the computation
// — one leader plans and publishes, the replicas block briefly and adopt.
// Equal keys imply bitwise-equal outcomes, so adoption preserves the
// isolated-run trial sequence. The decision counter advances only once a
// decision is made, so a failed or cancelled call leaves the planner where
// it was.
func (p *planner) nextConfig(ctx context.Context, h *optimizer.History, remainingBudget float64) (configspace.Config, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d, err := p.selectCandidates(ctx, h, remainingBudget)
	if err != nil || d == nil {
		return configspace.Config{}, false, err
	}
	// Polled before the claim, so a cancelled campaign never becomes a
	// decision leader its replicas would block on.
	if err := cancelErr(ctx); err != nil {
		return configspace.Config{}, false, err
	}
	var claim *share.Claim[sharedDecision]
	if p.sharable() {
		var out sharedDecision
		if out, claim = p.shared.decisions.GetOrClaim(p.decisionKey(h, d)); claim == nil {
			return p.conclude(out)
		}
		// Every error exit below abandons the claim (a no-op after Publish),
		// waking blocked followers to re-elect instead of deadlocking them.
		defer claim.Abandon()
	}
	out, err := p.plan(d)
	if err != nil {
		return configspace.Config{}, false, err
	}
	if claim != nil {
		// "No eligible candidate" is published like any other decision:
		// replicas of this campaign end the same way.
		claim.Publish(out)
	}
	return p.conclude(out)
}

// conclude closes a planned or adopted decision: it advances the decision
// counter and resolves the chosen configuration.
func (p *planner) conclude(out sharedDecision) (configspace.Config, bool, error) {
	p.iteration++
	if !out.ok {
		return configspace.Config{}, false, nil
	}
	best, err := p.space.Config(out.id)
	return best, err == nil, err
}

// planPhases are the phases of one planned decision, in execution order.
var planPhases = [...]func(*planner, *decision) error{
	(*planner).rootModels,
	(*planner).eligibility,
	(*planner).scorePaths,
	(*planner).choose,
}

// plan runs the phases over the decision value. The loop owns the pipeline's
// single cancellation boundary: every phase starts from a polled context, so a
// cancelled or deadline-exceeded step stops between planner phases — not only
// between trials — with an error wrapping optimizer.ErrCampaignCancelled, and
// a phase added to the table is covered without a call site of its own.
// (scorePaths, the long phase, additionally polls once per path in evalPath.)
func (p *planner) plan(d *decision) (sharedDecision, error) {
	for _, phase := range planPhases {
		if err := cancelErr(d.ctx); err != nil {
			return sharedDecision{}, err
		}
		if err := phase(p, d); err != nil {
			return sharedDecision{}, err
		}
	}
	return d.out, nil
}

// selectCandidates opens a decision: it asks Params.Search for the
// candidate IDs to consider and gathers them into the active candidate set.
// A nil decision means there is nothing left to select from.
func (p *planner) selectCandidates(ctx context.Context, h *optimizer.History, remainingBudget float64) (*decision, error) {
	train := newTrainSetFromHistory(h, p.opts, p.extraNames)
	if len(train.costs) == 0 {
		return nil, fmt.Errorf("core: nextConfig called with an empty history")
	}

	// Quarantined configurations are excluded alongside tested ones; with an
	// empty quarantine set this degenerates to the historical tested-only
	// filter (ExcludedCount == h.Len()), which the golden campaigns pin.
	untestedCount := p.space.Size() - h.ExcludedCount()
	if untestedCount <= 0 {
		return nil, nil
	}
	ids := p.params.Search.candidates(p.space, h.Excluded, untestedCount, p.iteration, p.opts.Seed)
	if len(ids) == 0 {
		return nil, nil
	}
	untested, err := p.gather(ids)
	if err != nil {
		return nil, err
	}
	// The setup-cost extension's inputs — the deployed configuration (a
	// clone) and the candidates' full configurations — are gathered only for
	// campaigns that use it; nothing else reads them.
	var deployed *configspace.Config
	p.activeCfgs = p.activeCfgs[:0]
	if p.opts.SetupCost != nil {
		deployed = h.Deployed()
		for _, id := range ids {
			cfg, err := p.space.Config(id)
			if err != nil {
				return nil, err
			}
			p.activeCfgs = append(p.activeCfgs, cfg)
		}
	}
	return &decision{
		ctx:  ctx,
		root: specState{train: train, untested: untested, budget: remainingBudget, deployed: deployed},
	}, nil
}

// gather builds the active candidate set of one decision: the selected
// configuration IDs with dense slot indices, unit prices, and feature vectors
// decoded into an arena reused across decisions (no per-candidate copies).
func (p *planner) gather(ids []int) ([]candidate, error) {
	cands := make([]candidate, len(ids))
	if need := len(ids) * p.space.NumDimensions(); cap(p.featArena) < need {
		p.featArena = make([]float64, 0, need)
	}
	arena := p.featArena[:0]
	for i, id := range ids {
		price, err := p.prices.UnitPrice(id)
		if err != nil {
			return nil, err
		}
		start := len(arena)
		if arena, err = p.space.AppendFeatures(arena, id); err != nil {
			return nil, err
		}
		costMax, err := acquisition.RuntimeCostThreshold(p.opts.MaxRuntimeSeconds, price/3600)
		if err != nil {
			return nil, err
		}
		cands[i] = candidate{id: id, slot: i, features: arena[start:len(arena):len(arena)], unitPriceHour: price, runtimeCostMax: costMax}
	}
	p.featArena = arena
	return cands, nil
}

// gatherCols builds the slot-major column matrix of the active candidates
// (cols[d][slot]) that prefills sweep, backed by the planner's colsBuf and
// so valid until the next decision.
func (p *planner) gatherCols(cands []candidate) [][]float64 {
	d := p.space.NumDimensions()
	n := len(cands)
	if cap(p.colsBuf) < d*n {
		p.colsBuf = make([]float64, d*n)
	}
	buf := p.colsBuf[:d*n]
	cols := make([][]float64, d)
	for k := range cols {
		cols[k] = buf[k*n : (k+1)*n]
	}
	for i, c := range cands {
		for k := 0; k < d; k++ {
			cols[k][i] = c.features[k]
		}
	}
	return cols
}

// rootModels fits the decision's root model set and populates its prediction
// memos up front, one batch sweep per model: every later root-model
// prediction (eligibility, incumbent fallback, per-path root EIc) becomes a
// read-only lookup, which keeps the set race-free while the parallel fan-out
// shares it.
func (p *planner) rootModels(d *decision) error {
	d.models = p.newModelSet(int64(p.iteration)*2_000_000_011, len(d.root.untested))
	d.models.token = &rootToken{}
	p.activeCols = p.gatherCols(d.root.untested)
	return p.refit(d.models, d.root.train)
}

// eligibility keeps the candidates whose predicted cost fits the remaining
// budget, scores each one's root EIc under the root incumbent and, for
// incremental-mode lookahead, ranks every active candidate (see rank). With
// no eligible candidate the later phases run over an empty set and choose
// reports "no decision".
func (p *planner) eligibility(d *decision) error {
	eligible, costPreds, extraPreds, err := p.eligible(d.root.untested, d.models, d.root.budget, d.root.deployed)
	if err != nil || len(eligible) == 0 {
		return err
	}
	d.eligible, d.costPreds = eligible, costPreds
	if d.inc, err = p.incumbent(&d.root, d.models); err != nil {
		return err
	}
	d.rootEIc = make([]float64, len(eligible))
	for i, cand := range eligible {
		if d.rootEIc[i], err = p.eic(d.inc, cand, costPreds[i], extraPreds[i]); err != nil {
			return err
		}
	}
	if p.params.Lookahead >= 1 && p.refitMode == SpecRefitIncremental && p.eligUseZ {
		p.rank(d)
	}
	return nil
}

// rankEntry is one active candidate of a decision's root ranking: its slot,
// its EIc bound under the root incumbent and the root models, and the budget
// its root cost prediction needs to be eligible (eligThreshold).
type rankEntry struct {
	slot      int
	bound     float64
	threshold float64
}

// rank builds the decision's root ranking: every active candidate, eligible
// at the root or not (a speculated budget can exceed the root's), by
// descending bound, NaN bounds first and ties by slot. The speculated states'
// sweeps walk it (see nextStep), which is sound only while their models are
// the root models plus journaled updates: incremental mode, whose eligibility
// test is the threshold test. The entries live in the planner's buffer and
// are read-only during the fan-out.
func (p *planner) rank(d *decision) {
	costMemo := d.models.cost.MemoPreds()
	extraMemos := extraMemosOf(d.models)
	if cap(p.ranking) < len(d.root.untested) {
		p.ranking = make([]rankEntry, 0, len(d.root.untested))
	}
	r := p.ranking[:0]
	for i := range d.root.untested {
		u := &d.root.untested[i]
		costPred := costMemo[u.slot]
		r = append(r, rankEntry{slot: u.slot, bound: p.eicUpperBound(d.inc, u, costPred, extraMemos), threshold: p.eligThreshold(costPred)})
	}
	slices.SortFunc(r, compareRank)
	p.ranking, d.ranking = r, r
}

// compareRank orders root ranking entries: NaN bounds first, then by
// descending bound, ties by slot.
func compareRank(a, b rankEntry) int {
	if an, bn := math.IsNaN(a.bound), math.IsNaN(b.bound); an != bn {
		if an {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(b.bound, a.bound); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// eligible returns the candidates that fit the budget (see affords:
// deployed is the configuration they switch from) with their cost and
// per-constraint predictions, read from the memo arrays — every swept set is
// prefilled or an eagerly repaired clone of a prefilled one. The root
// decision uses it, where prunedScores needs every candidate's exact EIc;
// speculated states go through nextStep's sweep instead.
func (p *planner) eligible(untested []candidate, ms *modelSet, budget float64, deployed *configspace.Config) ([]candidate, []numeric.Gaussian, [][]numeric.Gaussian, error) {
	costMemo := ms.cost.MemoPreds()
	extraMemos := extraMemosOf(ms)
	if costMemo == nil || extraMemos == nil {
		return nil, nil, nil, errNotPrefilled
	}
	state := specState{budget: budget, deployed: deployed}
	out := make([]candidate, 0, len(untested))
	costPreds := make([]numeric.Gaussian, 0, len(untested))
	extraPreds := make([][]numeric.Gaussian, 0, len(untested))
	for _, u := range untested {
		costPred := costMemo[u.slot]
		if !p.affords(&state, &u, costPred) {
			continue
		}
		out = append(out, u)
		costPreds = append(costPreds, costPred)
		row := make([]numeric.Gaussian, len(extraMemos))
		for k, em := range extraMemos {
			row[k] = em[u.slot]
		}
		extraPreds = append(extraPreds, row)
	}
	return out, costPreds, extraPreds, nil
}

// scorePaths simulates the exploration paths rooted at the eligible
// candidates, concurrently on the speculation scheduler (Params.Workers
// wide). Each path evaluation owns its scratch models — in Full mode on a
// random stream derived from the candidate's configuration ID — so the scores
// are identical for every worker count. Deep searches over enough candidates
// prune (see prunedScores); shallow or narrow ones fan out over every
// eligible candidate.
func (p *planner) scorePaths(d *decision) (err error) {
	if p.params.Lookahead >= 2 && len(d.eligible) > 2*pruneMinSeeds {
		d.scores, err = p.prunedScores(d)
		return err
	}
	d.scores = make([]pathScore, len(d.eligible))
	errs := make([]error, len(d.eligible))
	p.sched.run(len(d.eligible), func(w *specWorker, i int) {
		d.scores[i], errs[i] = p.evalPath(w, d, d.eligible[i])
	})
	return firstError(errs)
}

// choose picks the candidate starting the path with the best reward-to-cost
// ratio (none when no path was scored).
func (p *planner) choose(d *decision) error {
	d.out.id, d.out.ok = selectBestRatio(d.scores)
	return nil
}

// firstError returns the lowest-indexed non-nil error of a result slice, so
// error reporting is deterministic regardless of scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
