package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/acquisition"
	"repro/internal/configspace"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/optimizer"
	"repro/internal/share"
)

// planner implements the configuration-selection logic of Algorithms 1 and 2:
// it turns the optimizer's history into speculation states and simulates
// exploration paths to score every eligible candidate.
//
// The planner never materializes the configuration space. Each decision asks
// the SearchStrategy for the candidate IDs to consider, gathers them into an
// active candidate set (features aliasing the space's shared storage on
// materialized spaces, or decoded into a reusable arena on streaming spaces),
// and keys every model memo by the candidate's dense slot within that set —
// so memory and sweep cost scale with the candidate set, not the space.
type planner struct {
	params    Params
	opts      optimizer.Options
	space     *configspace.Space
	strategy  SearchStrategy
	factory   model.Factory
	refitMode SpeculativeRefit
	iteration int

	// extraNames lists the extra-constraint metric names in sorted order —
	// the order of every per-constraint slice in the planner (trainSet.extras,
	// modelSet.extras, speculated outcome vectors) — and extraMax[k] is the
	// threshold of extraNames[k]. Both are resolved once here so the
	// per-candidate loops index instead of scanning Options.ExtraConstraints.
	extraNames []string
	extraMax   []float64

	// prices lazily memoizes unit prices per candidate, so huge spaces never
	// pay a full-space price sweep at planner creation.
	prices *optimizer.PriceCache

	// eligZ caches Φ⁻¹(EligibilityProb) for the incremental mode's
	// eligibility test: "P(cost ≤ budget) ≥ prob" becomes the algebraically
	// equivalent "budget ≥ mean + z·σ", which costs one multiply instead of
	// one erfc per candidate per speculated state. Full mode keeps the
	// historical CDF comparison bit for bit (eligUseZ false there, and also
	// when the quantile is unavailable, e.g. EligibilityProb = 1).
	eligZ    float64
	eligUseZ bool

	// sched is the persistent speculation scheduler (Params.Workers wide).
	// Its per-worker arenas recycle the incremental-mode path workspaces
	// (clone slots plus their arenas, eligibility buffers) across candidates,
	// subtrees and decisions without a shared pool: each worker owns its
	// freelist outright. Recycled state is fully overwritten by cloneFrom
	// before every use, so reuse never leaks model state between paths and
	// the recommendation stays scheduling-free.
	sched *specScheduler

	// forkDepth is the number of leading speculation layers whose outcome
	// subtrees are forked into scheduler tasks (0 disables forking). Only the
	// incremental refit mode forks — the Full mode's scratch refits consume a
	// per-candidate random stream sequentially, which the golden campaign
	// tests pin bitwise — and only the shallow layers are worth the task
	// overhead: deeper subtrees shrink geometrically.
	forkDepth int

	// shared is the campaign's share-group binding (nil outside a group).
	// When set, prices comes from the group's per-environment cache, the
	// scheduler draws arenas from the group pool (incremental mode), and —
	// for key-capturable configurations, see sharable — nextConfig adopts
	// and publishes fitted root models and whole decisions through the
	// group caches. keyBuf is the reusable cache-key assembly buffer.
	shared *sharedCtx
	keyBuf []byte

	// stepCtx is the context of the in-flight nextConfig call (set at entry,
	// cleared at exit; context.Background() when the caller supplied none).
	// It is read-only during the parallel fan-out: phase boundaries and each
	// path evaluation poll it, so a cancelled or deadline-exceeded step stops
	// between planner phases — not only between trials — with an error
	// wrapping optimizer.ErrCampaignCancelled. Polling a live context returns
	// nil everywhere, so cancellation support never perturbs decisions.
	stepCtx context.Context

	// Per-decision scratch rebuilt by nextConfig; read-only during the
	// parallel path-evaluation fan-out.
	featArena  []float64            // backing store of streaming-space candidate features
	colsBuf    []float64            // backing store of the slot-major feature matrix
	activeCols [][]float64          // activeCols[d][slot]: feature d of the active candidate in that slot
	activeCfgs []configspace.Config // decoded configs of active candidates (built only when SetupCost is set)
}

// resolveRefitMode turns SpecRefitAuto into a concrete mode from the
// lookahead window and the per-decision candidate bound of the strategy.
func resolveRefitMode(mode SpeculativeRefit, lookahead, candidateBound int) SpeculativeRefit {
	if mode != SpecRefitAuto {
		return mode
	}
	if lookahead >= 3 || lookahead*candidateBound >= AutoIncrementalWork {
		return SpecRefitIncremental
	}
	return SpecRefitFull
}

func newPlanner(params Params, env optimizer.Environment, opts optimizer.Options) (*planner, error) {
	return newPlannerShared(params, env, opts, nil)
}

// newPlannerShared is newPlanner bound to a share group: the planner reads
// unit prices through the group's shared per-environment cache and, in
// incremental mode, checks its workspace arenas out of the group pool per
// scheduler run instead of holding private ones.
func newPlannerShared(params Params, env optimizer.Environment, opts optimizer.Options, sh *sharedCtx) (*planner, error) {
	space := env.Space()
	strategy := resolveStrategy(params.Search, space.Size())
	mode := resolveRefitMode(params.SpeculativeRefit, params.Lookahead, strategyCandidateBound(strategy, space.Size()))
	factory := params.ModelFactory
	if factory == nil {
		// The default bagging factory retains incremental state only when the
		// speculative path needs it: Full-mode fits stay byte-for-byte the
		// historical ones with no retention overhead.
		m := params.Model
		m.Incremental = mode == SpecRefitIncremental
		factory = model.NewBaggingFactory(m, opts.Seed)
	} else if mode == SpecRefitIncremental {
		if !model.SupportsIncremental(factory.New(-1)) {
			if params.SpeculativeRefit == SpecRefitIncremental {
				return nil, fmt.Errorf("core: SpeculativeRefit Incremental requires incremental-update support (model.IncrementalRegressor, with retention enabled — e.g. bagging.Params.Incremental), which the %q factory's models lack", factory.Name())
			}
			mode = SpecRefitFull
		}
	}
	p := &planner{
		params:    params,
		opts:      opts,
		space:     space,
		strategy:  strategy,
		factory:   factory,
		refitMode: mode,
		prices:    optimizer.NewPriceCache(env),
		sched:     newSpecScheduler(params.Workers),
		shared:    sh,
	}
	p.extraNames, p.extraMax = resolveExtraConstraints(opts.ExtraConstraints)
	if sh != nil {
		p.prices = sh.prices
	}
	if mode == SpecRefitIncremental {
		if sh != nil {
			p.sched.pool = sh.group.arenas
			p.sched.shape = p.arenaShape()
		}
		if z, err := numeric.NormalQuantile(params.EligibilityProb); err == nil {
			p.eligZ, p.eligUseZ = z, true
		}
		// Fork the outcome subtrees of the first LA-1 speculation layers; the
		// deepest layer's subtrees are leaves (one clone plus one sweep) and
		// would only pay task overhead. Two layers already yield
		// combos²-per-candidate tasks, so the cap keeps the task count
		// bounded on very deep lookaheads.
		p.forkDepth = params.Lookahead - 1
		if p.forkDepth > 2 {
			p.forkDepth = 2
		}
		// With forking possible, spawn every worker even for runs with
		// fewer root candidates than workers: the spare workers steal the
		// forked subtrees of the few expensive paths.
		p.sched.wide = p.forkDepth > 0
	}
	return p, nil
}

// gather materializes the active candidate set of one decision: the selected
// configuration IDs with dense slot indices, feature vectors, and unit
// prices. On materialized spaces the features alias the space's shared
// storage (no per-candidate copies); on streaming spaces they are decoded
// into an arena reused across decisions.
func (p *planner) gather(ids []int) ([]candidate, error) {
	cands := make([]candidate, len(ids))
	streaming := p.space.Streaming()
	var arena []float64
	if streaming {
		need := len(ids) * p.space.NumDimensions()
		if cap(p.featArena) < need {
			p.featArena = make([]float64, 0, need)
		}
		arena = p.featArena[:0]
	}
	for i, id := range ids {
		price, err := p.prices.UnitPrice(id)
		if err != nil {
			return nil, err
		}
		var feats []float64
		if streaming {
			start := len(arena)
			arena, err = p.space.AppendFeatures(arena, id)
			if err != nil {
				return nil, err
			}
			feats = arena[start:len(arena):len(arena)]
		} else {
			feats, err = p.space.RowFeatures(id)
			if err != nil {
				return nil, err
			}
		}
		costMax, err := acquisition.RuntimeCostThreshold(p.opts.MaxRuntimeSeconds, price/3600)
		if err != nil {
			return nil, err
		}
		cands[i] = candidate{id: id, slot: i, features: feats, unitPriceHour: price, runtimeCostMax: costMax}
	}
	if streaming {
		p.featArena = arena
	}
	return cands, nil
}

// gatherCols builds the slot-major column matrix of the active candidates
// (cols[d][slot]) that prefills sweep. own selects the backing store: the
// planner's colsBuf, reused across decisions, or — for a matrix that may be
// published to the share group's model cache, whose prediction memos alias
// it — a fresh slice that this planner's later decisions cannot overwrite.
func (p *planner) gatherCols(cands []candidate, own bool) [][]float64 {
	d := p.space.NumDimensions()
	n := len(cands)
	var buf []float64
	if own {
		buf = make([]float64, d*n)
	} else {
		if cap(p.colsBuf) < d*n {
			p.colsBuf = make([]float64, d*n)
		}
		buf = p.colsBuf[:d*n]
	}
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

// candidateConfig returns the full configuration of an active candidate,
// preferring the per-decision view set over a fresh space lookup. The
// returned Config may alias the space's shared storage (read-only).
func (p *planner) candidateConfig(c candidate) configspace.Config {
	if c.slot >= 0 && c.slot < len(p.activeCfgs) && p.activeCfgs[c.slot].ID == c.id {
		return p.activeCfgs[c.slot]
	}
	cfg, err := p.space.ConfigView(c.id)
	if err != nil {
		return configspace.Config{ID: c.id, Features: append([]float64(nil), c.features...)}
	}
	return cfg
}

// resolveExtraConstraints returns the extra-constraint metric names in sorted
// order with the threshold of each (of a name's first entry, should the
// options repeat one).
func resolveExtraConstraints(constraints []optimizer.Constraint) (names []string, maxima []float64) {
	names = make([]string, 0, len(constraints))
	for _, c := range constraints {
		names = append(names, c.Metric)
	}
	sort.Strings(names)
	maxima = make([]float64, len(names))
	for k, name := range names {
		for _, c := range constraints {
			if c.Metric == name {
				maxima[k] = c.Max
				break
			}
		}
	}
	return names, maxima
}

// trainSet is the (possibly speculated) training set S of one state: the cost
// and extra-metric targets of every profiled-or-speculated configuration.
type trainSet struct {
	features [][]float64
	costs    []float64
	extras   [][]float64 // extras[k][i]: value of the k-th constraint metric for entry i
	feasible []bool
}

func newTrainSetFromHistory(h *optimizer.History, opts optimizer.Options, extraNames []string) *trainSet {
	trials := h.Trials()
	ts := &trainSet{
		features: make([][]float64, 0, len(trials)),
		costs:    make([]float64, 0, len(trials)),
		extras:   make([][]float64, len(extraNames)),
		feasible: make([]bool, 0, len(trials)),
	}
	for k := range extraNames {
		ts.extras[k] = make([]float64, 0, len(trials))
	}
	for _, tr := range trials {
		ts.features = append(ts.features, append([]float64(nil), tr.Config.Features...))
		ts.costs = append(ts.costs, tr.Cost)
		ts.feasible = append(ts.feasible, tr.Feasible(opts.MaxRuntimeSeconds, opts.ExtraConstraints))
		for k, name := range extraNames {
			ts.extras[k] = append(ts.extras[k], tr.Extra[name])
		}
	}
	return ts
}

// withEntry returns a new training set extended with one speculated entry.
// The receiver is not modified.
func (ts *trainSet) withEntry(features []float64, cost float64, extras []float64, feasible bool) *trainSet {
	return ts.withEntryInto(&trainSet{}, features, cost, extras, feasible)
}

// withEntryInto is withEntry into reusable storage: dst's slices are
// overwritten with the receiver's entries plus one speculated entry and dst
// is returned. A nil extras appends a zero for every constraint metric. The
// speculation loop extends the same parent set once per depth, so recycling
// dst removes the per-outcome training-set copies from the planner's hot
// path; the receiver is never modified.
func (ts *trainSet) withEntryInto(dst *trainSet, features []float64, cost float64, extras []float64, feasible bool) *trainSet {
	dst.features = append(dst.features[:0], ts.features...)
	dst.features = append(dst.features, features)
	dst.costs = append(dst.costs[:0], ts.costs...)
	dst.costs = append(dst.costs, cost)
	dst.feasible = append(dst.feasible[:0], ts.feasible...)
	dst.feasible = append(dst.feasible, feasible)
	if cap(dst.extras) < len(ts.extras) {
		dst.extras = make([][]float64, len(ts.extras))
	}
	dst.extras = dst.extras[:len(ts.extras)]
	for k := range ts.extras {
		dst.extras[k] = append(dst.extras[k][:0], ts.extras[k]...)
		if extras == nil {
			dst.extras[k] = append(dst.extras[k], 0)
		} else {
			dst.extras[k] = append(dst.extras[k], extras[k])
		}
	}
	return dst
}

// bestFeasibleCost returns the lowest cost among feasible entries.
func (ts *trainSet) bestFeasibleCost() (float64, bool) {
	best := 0.0
	found := false
	for i, c := range ts.costs {
		if !ts.feasible[i] {
			continue
		}
		if !found || c < best {
			best = c
			found = true
		}
	}
	return best, found
}

// maxCost returns the highest cost in the training set.
func (ts *trainSet) maxCost() float64 {
	maxC := 0.0
	for _, c := range ts.costs {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// modelSet bundles the cost model with one model per extra constraint metric.
// Every model is wrapped in a prediction memo keyed by candidate slot, so
// repeated predictions of the same candidate between refits — the planner
// re-predicts the whole candidate set once per speculation layer — cost one
// array read instead of one model evaluation. Memos are sized by the
// decision's active candidate count, never by the space.
type modelSet struct {
	cost   *model.Cached
	extras []*model.Cached

	// extraMemos is scratch for extraMemosOf: one slot per extra model,
	// rewritten on every fast-path eligibility sweep.
	extraMemos [][]numeric.Gaussian
}

// newModelSet creates untrained models on a deterministic random stream, with
// prediction memos covering size candidate slots.
func (p *planner) newModelSet(stream int64, size int) *modelSet {
	ms := &modelSet{cost: model.NewCached(p.factory.New(stream), size)}
	ms.extras = make([]*model.Cached, len(p.extraNames))
	for k := range ms.extras {
		ms.extras[k] = model.NewCached(p.factory.New(stream+int64(k+1)*1_000_003), size)
	}
	return ms
}

// fit trains every model of the set on the given training set, switching
// the prediction memos off until the next prefill.
func (ms *modelSet) fit(ts *trainSet) error {
	if err := ms.cost.Fit(ts.features, ts.costs); err != nil {
		return fmt.Errorf("core: fitting cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Fit(ts.features, ts.extras[k]); err != nil {
			return fmt.Errorf("core: fitting constraint model %d: %w", k, err)
		}
	}
	return nil
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

// predictCand returns the memoized predictive distributions of a candidate,
// keyed by its slot in the decision's active set.
func (ms *modelSet) predictCand(c candidate) (numeric.Gaussian, []numeric.Gaussian, error) {
	costPred, err := ms.cost.PredictID(c.slot, c.features)
	if err != nil {
		return numeric.Gaussian{}, nil, err
	}
	extraPreds := make([]numeric.Gaussian, len(ms.extras))
	for k, m := range ms.extras {
		extraPreds[k], err = m.PredictID(c.slot, c.features)
		if err != nil {
			return numeric.Gaussian{}, nil, err
		}
	}
	return costPred, extraPreds, nil
}

// prefill computes the memoized predictions of every active candidate in one
// batch sweep per model over the decision's slot-major feature matrix. After
// it returns every memo is valid, so predictCand and the memo-array sweeps
// of eligible and incumbent are read-only lookups — which makes the modelSet
// safe to share across the parallel path-evaluation fan-out.
func (ms *modelSet) prefill(cols [][]float64) error {
	if err := ms.cost.Prefill(cols); err != nil {
		return fmt.Errorf("core: prefilling cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Prefill(cols); err != nil {
			return fmt.Errorf("core: prefilling constraint model %d: %w", k, err)
		}
	}
	return nil
}

// refit trains the model set on the training set and immediately prefills the
// candidate-set prediction memo over the decision's slot-major matrix — every
// subsequent sweep of the refitted models (eligibility, incumbent fallback,
// EIc) then reads the memo instead of predicting candidates one at a time.
func (p *planner) refit(ms *modelSet, ts *trainSet) error {
	if err := ms.fit(ts); err != nil {
		return err
	}
	return ms.prefill(p.activeCols)
}

// update folds one speculated sample into every model of the set (the cost
// target into the cost model, each constraint metric into its model),
// repairing the prediction memos in place.
func (ms *modelSet) update(x []float64, cost float64, extras []float64) error {
	if err := ms.cost.Update(x, cost); err != nil {
		return fmt.Errorf("core: updating cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Update(x, extras[k]); err != nil {
			return fmt.Errorf("core: updating constraint model %d: %w", k, err)
		}
	}
	return nil
}

// cloneFrom snapshots src's fitted models and prediction memos into the set,
// reusing its storage. cloneFrom only reads src, so concurrent clones from
// one parent set (the shared root models) are safe.
func (ms *modelSet) cloneFrom(src *modelSet) error {
	if err := ms.cost.CloneFrom(src.cost); err != nil {
		return fmt.Errorf("core: cloning cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.CloneFrom(src.extras[k]); err != nil {
			return fmt.Errorf("core: cloning constraint model %d: %w", k, err)
		}
	}
	return nil
}

// pathWorkspace is the per-path-evaluation model scratch. In Full mode it
// holds one model set that explorePaths refits from the extended training
// matrix at every speculated outcome (the exact historical behavior). In
// Incremental mode it holds one clone slot per speculation depth: each
// speculated outcome re-clones the parent set into its depth's slot and
// folds the single speculated sample in, never retraining a tree.
type pathWorkspace struct {
	scratch *modelSet
	clones  []*modelSet

	// depths[d] is the serial combo loop's scratch at speculation depth d:
	// the extended training set, the reduced untested slice, the speculated
	// child state, and the Gauss-Hermite outcome/combo buffers. Depth d's
	// recursion returns before depth d reuses its scratch for the next combo,
	// so one set per depth serves the whole path; forked combo loops
	// deliberately allocate instead, since their child states outlive the
	// spawning frame (see explorePathsForked).
	depths []*pathDepthScratch
}

// pathDepthScratch is one speculation depth's reusable combo-loop storage.
type pathDepthScratch struct {
	train     *trainSet
	untested  []candidate
	state     specState
	outcomes  []numeric.WeightedValue
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

// eligibleBuf is the reusable scratch of nextStep's sweeps: bounds[i] is the
// EIc upper bound of the i-th untested candidate of the swept state (−Inf
// when the candidate is not eligible). It is only live within one nextStep
// call, so each scheduler worker owns one (specWorker.elig) for every state it
// sweeps. bounded and evaluated are that worker's running useful-work
// counters — eligible candidates dismissed on their bound alone vs. scored
// with the exact EIc — plain ints, because a shared atomic in the sweep costs
// more than the sweep saves.
type eligibleBuf struct {
	bounds    []float64
	bounded   int
	evaluated int
}

// cloneSlot returns the model-set slot of the given speculation depth,
// creating it on first use. Slot contents are fully overwritten by cloneFrom
// before every use, so recycled slots never leak state between paths.
func (ws *pathWorkspace) cloneSlot(p *planner, depth int) *modelSet {
	for len(ws.clones) <= depth {
		// The stream only seeds the untrained placeholder models; cloneFrom
		// replaces their state entirely, so any constant works.
		ws.clones = append(ws.clones, p.newModelSet(int64(len(ws.clones))+1, 0))
	}
	return ws.clones[depth]
}

// evalPath scores the exploration paths rooted at one candidate on the given
// scheduler worker. Full mode keeps the historical per-candidate scratch
// model set with its random stream derived from (iteration, candidate ID) —
// the derivation the golden campaign tests pin — and deliberately never
// reuses it. Incremental mode draws a recycled workspace from the worker's
// private arena and returns it there once the whole path (including every
// forked subtree) has joined.
func (p *planner) evalPath(w *specWorker, iteration, activeSize int, rootState *specState, rootModels *modelSet, rootInc float64, cand candidate) (pathScore, error) {
	// Cancellation poll: a cancelled step abandons the remaining path
	// evaluations (the error propagates through the canonical firstError
	// reduction, so the abort is deterministic). stepCtx may be nil when a
	// test drives evalPath outside nextConfig.
	if p.stepCtx != nil {
		if err := cancelErr(p.stepCtx); err != nil {
			return pathScore{}, err
		}
	}
	var ws *pathWorkspace
	if p.refitMode == SpecRefitIncremental {
		ws = w.acquireWorkspace()
		defer w.releaseWorkspace(ws)
	} else {
		ws = &pathWorkspace{scratch: p.newModelSet(int64(iteration)*4_000_000_007+int64(cand.id), activeSize)}
	}
	reward, cost, err := p.explorePaths(rootState, rootModels, rootInc, cand, p.params.Lookahead, ws, 0, w)
	if err != nil {
		return pathScore{}, err
	}
	return pathScore{candidateID: cand.id, reward: reward, cost: cost}, nil
}

// specState is the state Σ of one node of an exploration path: the
// (speculated) training set, the untested configurations, the remaining
// budget, and the currently deployed configuration.
type specState struct {
	train    *trainSet
	untested []candidate
	budget   float64
	deployed *configspace.Config // nil when nothing is deployed
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

// errNotPrefilled reports a candidate sweep over a model set whose memos are
// off. Every set the planner sweeps was prefilled (root fits and Full-mode
// refits) or cloned from a prefilled one, so this is a planner bug, never a
// mode.
var errNotPrefilled = errors.New("core: candidate sweep over a model set that was not prefilled")

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
// confidence.
func (p *planner) fitsBudget(costPred numeric.Gaussian, budget float64) bool {
	if !p.eligUseZ {
		return costPred.ProbLE(budget) >= p.params.EligibilityProb
	}
	if costPred.StdDev == 0 {
		return budget >= costPred.Mean
	}
	return budget >= costPred.Mean+p.eligZ*costPred.StdDev
}

// eligible returns the candidates that fit the budget (see fitsBudget) with
// their cost and per-constraint predictions, read from the memo arrays —
// every swept set is prefilled or an eagerly repaired clone of a prefilled
// one. The root decision uses it, where prunedScores needs every candidate's
// exact EIc; speculated states go through nextStep's fused sweep instead.
func (p *planner) eligible(untested []candidate, ms *modelSet, budget float64) ([]candidate, []numeric.Gaussian, [][]numeric.Gaussian, error) {
	costMemo := ms.cost.MemoPreds()
	extraMemos := extraMemosOf(ms)
	if costMemo == nil || extraMemos == nil {
		return nil, nil, nil, errNotPrefilled
	}
	out := make([]candidate, 0, len(untested))
	costPreds := make([]numeric.Gaussian, 0, len(untested))
	extraPreds := make([][]numeric.Gaussian, 0, len(untested))
	for _, u := range untested {
		costPred := costMemo[u.slot]
		if !p.fitsBudget(costPred, budget) {
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

// extraMemosEmpty is the shared zero-extras result of extraMemosOf: non-nil
// (nil means "not prefilled") but empty.
var extraMemosEmpty = [][]numeric.Gaussian{}

// extraMemosOf collects the memo arrays of the set's extra models, or nil when
// any extra model's memo is off. The zero-extras case — Lynceus'
// single-constraint formulation — returns a shared empty slice without
// touching the heap.
func extraMemosOf(ms *modelSet) [][]numeric.Gaussian {
	if len(ms.extras) == 0 {
		return extraMemosEmpty
	}
	if ms.extraMemos == nil {
		ms.extraMemos = make([][]numeric.Gaussian, len(ms.extras))
	}
	for k, m := range ms.extras {
		em := m.MemoPreds()
		if em == nil {
			return nil
		}
		// Skip the write when the memo array has not moved: a published
		// model set's extraMemos are prewarmed by its publisher, and every
		// later (possibly concurrent) caller re-derives the identical view —
		// writing it back would be a data race between adopters.
		if !sameGaussians(ms.extraMemos[k], em) {
			ms.extraMemos[k] = em
		}
	}
	return ms.extraMemos
}

// nextStep selects the configuration explored at depth ≥ 2 of a path: the
// eligible untested configuration with the highest EIc under the speculated
// state, ties to the lower configuration ID (Algorithm 2, NextStep). inc is
// the state's incumbent, computed once by the caller and shared with the
// recursive path evaluation.
//
// Only the argmax is used, so the sweep is an exact branch and bound. One
// fused pass applies the eligibility test and bounds every eligible
// candidate's EIc from above without erfc or exp (eicUpperBound). The exact
// EIc is then computed for the candidate with the largest bound and, in
// candidate order, for every candidate whose bound is not strictly below the
// best exact value so far; a skipped candidate's EIc lies strictly below an
// exactly computed one, so it could neither win nor tie. Exactly evaluated
// candidates compete under the exhaustive sweep's own rule, and the argmax
// of (EIc, −ID) does not depend on visiting order, so the choice is the one
// the exhaustive sweep makes, bit for bit. NaN compares false: a NaN bound is
// never skipped and a NaN EIc never wins, as in the exhaustive sweep; and
// since eic rejects nothing but a NaN probability, whose bound is NaN, a state
// on which the exhaustive sweep fails fails here too.
func (p *planner) nextStep(state *specState, ms *modelSet, inc float64, buf *eligibleBuf) (candidate, bool, error) {
	costMemo := ms.cost.MemoPreds()
	extraMemos := extraMemosOf(ms)
	if costMemo == nil || extraMemos == nil {
		return candidate{}, false, errNotPrefilled
	}
	untested := state.untested
	if cap(buf.bounds) < len(untested) {
		buf.bounds = make([]float64, len(untested))
	}
	bounds := buf.bounds[:len(untested)]
	nEligible := 0
	seed, seedBound := -1, math.Inf(-1)
	for i := range untested {
		u := &untested[i]
		costPred := costMemo[u.slot]
		if !p.fitsBudget(costPred, state.budget) {
			bounds[i] = math.Inf(-1)
			continue
		}
		nEligible++
		b := p.eicUpperBound(inc, u, costPred, extraMemos)
		bounds[i] = b
		if b > seedBound {
			seed, seedBound = i, b
		}
	}
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
		if i == seed || bounds[i] < bestEIc {
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
// (state, models); ws is the per-task model workspace that keeps path
// evaluations independent across goroutines — in Full mode a scratch set
// explorePaths refits freely (random stream split deterministically from the
// candidate ID), in Incremental mode a stack of clone slots indexed by slot
// (0 at the task's root call). w is the scheduler worker executing this
// evaluation; in Incremental mode the shallow speculation layers fork their
// outcome subtrees onto it as stealable tasks (see explorePathsForked), so a
// few expensive candidates can occupy the whole pool.
func (p *planner) explorePaths(state *specState, models *modelSet, inc float64, cand candidate, lookahead int, ws *pathWorkspace, slot int, w *specWorker) (reward, cost float64, err error) {
	costPred, extraPreds, err := models.predictCand(cand)
	if err != nil {
		return 0, 0, err
	}
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
	// their Cartesian product (paper §4.4 for the multi-constraint case). In
	// the common single-constraint case (no extras) the cost marginal is the
	// joint distribution, so the product machinery is skipped and both the
	// outcomes and the combo headers live in this depth's recycled scratch —
	// one Gauss-Hermite batch of speculated outcomes per step, allocated
	// never.
	ds := ws.depth(slot)
	var combos []numeric.WeightedVector
	if len(extraPreds) == 0 {
		ds.outcomes, err = numeric.AppendDiscretizedGaussian(ds.outcomes[:0], costPred, p.params.GHOrder)
		if err != nil {
			return 0, 0, err
		}
		nOut := len(ds.outcomes)
		if cap(ds.combos) < nOut {
			ds.combos = make([]numeric.WeightedVector, nOut)
			ds.comboVals = make([]float64, nOut)
		}
		combos = ds.combos[:nOut]
		values := ds.comboVals[:nOut]
		for i, o := range ds.outcomes {
			values[i] = o.Value
			combos[i] = numeric.WeightedVector{Values: values[i : i+1 : i+1], Weight: o.Weight}
		}
	} else {
		costOutcomes, err := numeric.DiscretizeGaussian(costPred, p.params.GHOrder)
		if err != nil {
			return 0, 0, err
		}
		dims := make([][]numeric.WeightedValue, 0, 1+len(extraPreds))
		dims = append(dims, costOutcomes)
		for _, pred := range extraPreds {
			outcomes, err := numeric.DiscretizeGaussian(pred, p.params.GHOrder)
			if err != nil {
				return 0, 0, err
			}
			dims = append(dims, outcomes)
		}
		combos, err = numeric.CartesianWeighted(dims)
		if err != nil {
			return 0, 0, err
		}
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

	if p.shouldFork(w, lookahead, len(combos)) {
		return p.explorePathsForked(state, models, cand, lookahead, w,
			combos, childUntested, childDeployed, setup, reward, cost)
	}

	// Serial evaluation: the speculated child states differ only in the
	// outcome of the last (speculated) training entry, so one extended
	// training set and one reduced untested slice are built per candidate
	// and the entry is rewritten per combo. Deeper recursion copies the
	// training set before extending it, so the mutation never escapes this
	// loop.
	childTrain := state.train.withEntryInto(ds.train, cand.features, 0, nil, false)
	last := len(childTrain.costs) - 1
	for _, combo := range combos {
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
		}
		childState := &ds.state
		var childModels *modelSet
		if p.refitMode == SpecRefitIncremental {
			// Incremental fast path: snapshot the parent models into this
			// slot's clone and fold the one speculated sample in. The
			// clone inherits the parent's prediction memo, and the update
			// repairs only the entries its touched tree regions moved —
			// the following incumbent/eligibility sweeps then cost
			// O(changed) model evaluations instead of a full refit + sweep.
			childModels = ws.cloneSlot(p, slot)
			if err := childModels.cloneFrom(models); err != nil {
				return 0, 0, err
			}
			if err := childModels.update(cand.features, specCost, specExtras); err != nil {
				return 0, 0, err
			}
		} else {
			if err := p.refit(ws.scratch, childState.train); err != nil {
				return 0, 0, err
			}
			childModels = ws.scratch
		}
		childInc, err := p.incumbent(childState, childModels)
		if err != nil {
			return 0, 0, err
		}
		next, ok, err := p.nextStep(childState, childModels, childInc, &w.elig)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			// The speculated budget cannot accommodate any further step: the
			// path terminates here (Algorithm 2, lines 15-16).
			continue
		}
		subReward, subCost, err := p.explorePaths(childState, childModels, childInc, next, lookahead-1, ws, slot+1, w)
		if err != nil {
			return 0, 0, err
		}
		cost += combo.Weight * subCost
		reward += p.params.Discount * combo.Weight * subReward
	}
	return reward, cost, nil
}

// shouldFork decides whether the outcome subtrees of the current speculation
// layer become scheduler tasks. Only the incremental refit mode forks (Full
// mode's scratch refits consume a per-candidate random stream sequentially,
// pinned bitwise by the golden campaign tests), only with a parallel
// scheduler, and only within the first forkDepth layers — the depth-aware
// bound that keeps tasks coarse enough to amortize scheduling. The layer
// index is derived from the remaining lookahead, so forked subtrees fork
// their own children too while still within the bound.
func (p *planner) shouldFork(w *specWorker, lookahead, combos int) bool {
	if w == nil || combos < 2 || p.refitMode != SpecRefitIncremental || !p.sched.parallel() {
		return false
	}
	if p.params.Lookahead-lookahead >= p.forkDepth {
		return false
	}
	// Supply-aware: while the injector still queues more root candidates
	// than there are workers, root-level parallelism alone saturates the
	// pool and serial subtree evaluation is cheaper (one shared child
	// training set instead of per-outcome copies). Forked and serial
	// evaluation compute bitwise-identical results, so this heuristic is
	// free to depend on scheduling state.
	return p.sched.scarceRoots()
}

// comboOutcome is the result slot of one forked speculated-outcome task.
// Slots are fixed at spawn time and reduced in combo order after the join,
// which keeps the floating-point reduction identical to the serial loop
// regardless of completion order.
type comboOutcome struct {
	reward, cost float64
	ok           bool
	err          error
}

// explorePathsForked is the parallel variant of explorePaths' combo loop:
// every speculated outcome of the current layer is spawned as a task on the
// executing worker's deque, idle workers steal them, and the parent helps
// drain subtree tasks until its children joined. Each child task evaluates
// exactly the operations of the serial loop body — clone parent models, fold
// the speculated sample in, pick the next step, recurse — on its own
// workspace, so forked and serial evaluations produce bitwise-identical
// rewards and costs (the worker-count independence tests pin this).
func (p *planner) explorePathsForked(state *specState, models *modelSet, cand candidate, lookahead int, w *specWorker, combos []numeric.WeightedVector, childUntested []candidate, childDeployed *configspace.Config, setup, reward, cost float64) (float64, float64, error) {
	outcomes := make([]comboOutcome, len(combos))
	var pending atomic.Int64
	pending.Store(int64(len(combos)))
	for ci := range combos {
		specCost := combos[ci].Values[0]
		specExtras := combos[ci].Values[1:]
		feasible := p.feasibleSpeculation(cand, specCost, specExtras)
		childState := &specState{
			train:    state.train.withEntry(cand.features, specCost, specExtras, feasible),
			untested: childUntested,
			budget:   state.budget - specCost - setup,
			deployed: childDeployed,
		}
		out := &outcomes[ci]
		w.spawn(func(cw *specWorker) {
			out.reward, out.cost, out.ok, out.err = p.evalSpeculated(cw, childState, models, cand, specCost, specExtras, lookahead)
			pending.Add(-1)
		})
	}
	w.help(&pending)
	for ci := range outcomes {
		o := &outcomes[ci]
		if o.err != nil {
			return 0, 0, o.err
		}
		if !o.ok {
			// The speculated budget cannot accommodate any further step: the
			// path terminates here (Algorithm 2, lines 15-16).
			continue
		}
		cost += combos[ci].Weight * o.cost
		reward += p.params.Discount * combos[ci].Weight * o.reward
	}
	return reward, cost, nil
}

// evalSpeculated evaluates one speculated-outcome subtree on the worker that
// picked the task up: clone the parent models, fold the speculated sample
// in, select the next step under the speculated state, and recurse with the
// remaining lookahead. The workspace comes from the executing worker's arena
// and is released only after the recursion — including any further forked
// layer — has fully joined, so clone slots referenced by grandchild tasks
// stay untouched until they finished.
func (p *planner) evalSpeculated(cw *specWorker, childState *specState, parent *modelSet, cand candidate, specCost float64, specExtras []float64, lookahead int) (reward, cost float64, ok bool, err error) {
	ws := cw.acquireWorkspace()
	defer cw.releaseWorkspace(ws)
	childModels := ws.cloneSlot(p, 0)
	if err := childModels.cloneFrom(parent); err != nil {
		return 0, 0, false, err
	}
	if err := childModels.update(cand.features, specCost, specExtras); err != nil {
		return 0, 0, false, err
	}
	childInc, err := p.incumbent(childState, childModels)
	if err != nil {
		return 0, 0, false, err
	}
	next, found, err := p.nextStep(childState, childModels, childInc, &cw.elig)
	if err != nil || !found {
		return 0, 0, false, err
	}
	subReward, subCost, err := p.explorePaths(childState, childModels, childInc, next, lookahead-1, ws, 1, cw)
	if err != nil {
		return 0, 0, false, err
	}
	return subReward, subCost, true, nil
}

// Pruning constants (see prunedScores).
const (
	// pruneOptimism inflates the optimistic future-reward bound to keep the
	// pruning rule conservative: the speculated EIc of a future step may
	// exceed the largest root-model EIc when the speculated outcome lowers
	// the incumbent or inflates the predictive spread.
	pruneOptimism = 1.25
	// pruneMinSeeds is the minimum number of top-ranked candidates whose
	// paths are always evaluated exactly; below 2x this count pruning is not
	// worth the bookkeeping.
	pruneMinSeeds = 8
	// pruneSeedDivisor sizes the exactly-evaluated seed set relative to the
	// eligible-candidate count.
	pruneSeedDivisor = 8
)

// nextConfig implements Algorithm 1's NextConfig: it asks the search strategy
// for the candidate IDs considered at this decision, scores the exploration
// paths rooted at every eligible candidate, and returns the configuration
// starting the path with the best reward-to-cost ratio.
//
// The paths are scored concurrently on a worker pool (Params.Workers wide);
// the root model set is fitted once, its predictions for every candidate are
// precomputed, and each path evaluation owns a scratch model set on a random
// stream derived from the candidate's configuration ID — so the selected
// configuration is identical for every worker count.
func (p *planner) nextConfig(ctx context.Context, h *optimizer.History, remainingBudget float64) (configspace.Config, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.stepCtx = ctx
	defer func() { p.stepCtx = nil }()
	train := newTrainSetFromHistory(h, p.opts, p.extraNames)
	if len(train.costs) == 0 {
		return configspace.Config{}, false, fmt.Errorf("core: nextConfig called with an empty history")
	}

	// Quarantined configurations are excluded alongside tested ones; with an
	// empty quarantine set this degenerates to the historical tested-only
	// filter (ExcludedCount == h.Len()), which the golden campaigns pin.
	untestedCount := p.space.Size() - h.ExcludedCount()
	if untestedCount <= 0 {
		return configspace.Config{}, false, nil
	}
	ids, err := p.strategy.Select(p.space, h.Excluded, untestedCount, p.iteration, p.opts.Seed)
	if err != nil {
		return configspace.Config{}, false, fmt.Errorf("core: search strategy %q: %w", p.strategy.Name(), err)
	}
	if len(ids) == 0 {
		return configspace.Config{}, false, nil
	}
	untested, err := p.gather(ids)
	if err != nil {
		return configspace.Config{}, false, err
	}
	// Phase boundary: candidate selection done, model fit next. Checked
	// before the sharing claim so a cancelled campaign never becomes a
	// decision leader its replicas would block on.
	if err := cancelErr(ctx); err != nil {
		return configspace.Config{}, false, err
	}

	// Cross-campaign sharing: when every planning input is captured by the
	// cache keys (see sharable and shareKeys), an identical campaign's
	// published decision is adopted outright, and concurrent identical
	// campaigns single-flight the computation — one leader plans, the
	// replicas block briefly and adopt. Equal keys imply bitwise-equal
	// outcomes, so adoption preserves the isolated-run trial sequence.
	var modelKey string
	var claim *share.Claim[sharedDecision]
	if p.sharable() {
		var decisionKey string
		modelKey, decisionKey = p.shareKeys(h, remainingBudget, untested)
		dec, cl := p.shared.group.decisions.GetOrClaim(decisionKey)
		if cl == nil {
			p.iteration++
			if !dec.ok {
				return configspace.Config{}, false, nil
			}
			best, err := p.space.Config(dec.id)
			if err != nil {
				return configspace.Config{}, false, err
			}
			return best, true, nil
		}
		claim = cl
		// The leader publishes at every definitive exit below; on error
		// paths the deferred Abandon (a no-op after Publish) wakes blocked
		// followers to re-elect instead of deadlocking them.
		defer claim.Abandon()
	}

	p.activeCfgs = p.activeCfgs[:0]
	if p.opts.SetupCost != nil {
		// Config views, not clones: on materialized spaces the active set
		// aliases the space's shared Indices/Features rows, matching the
		// no-copy contract of the candidates themselves.
		for _, id := range ids {
			cfg, err := p.space.ConfigView(id)
			if err != nil {
				return configspace.Config{}, false, err
			}
			p.activeCfgs = append(p.activeCfgs, cfg)
		}
	}

	// An identical campaign may have published this decision's fitted,
	// fully-prefilled root model set; adopting it (read-only, with the
	// publisher's owned column matrix) skips the fit and prefill entirely.
	var rootModels *modelSet
	adoptedModels := false
	if modelKey != "" {
		if sm, ok := p.shared.group.models.Get(modelKey); ok {
			rootModels = sm.ms
			p.activeCols = sm.cols
			adoptedModels = true
		}
	}
	if !adoptedModels {
		rootModels = p.newModelSet(int64(p.iteration)*2_000_000_011, len(untested))
	}
	p.iteration++
	if !adoptedModels {
		// Fit, then populate the root prediction memo up front, one batch
		// sweep per model: every later root-model prediction (eligibility,
		// incumbent fallback, per-path root EIc) becomes a read-only lookup,
		// which keeps the shared root model set race-free during the parallel
		// fan-out. A set that will be published gets freshly-backed columns.
		p.activeCols = p.gatherCols(untested, modelKey != "")
		if err := p.refit(rootModels, train); err != nil {
			return configspace.Config{}, false, err
		}
		if modelKey != "" {
			// Prewarm the extras view, so adopters never write to the
			// published set.
			extraMemosOf(rootModels)
			p.shared.group.models.Put(modelKey, sharedModels{ms: rootModels, cols: p.activeCols})
		}
	}

	// Phase boundary: root models fitted and prefilled, eligibility next.
	if err := cancelErr(ctx); err != nil {
		return configspace.Config{}, false, err
	}

	rootState := &specState{
		train:    train,
		untested: untested,
		budget:   remainingBudget,
		deployed: h.Deployed(),
	}

	eligible, costPreds, extraPreds, err := p.eligible(untested, rootModels, remainingBudget)
	if err != nil {
		return configspace.Config{}, false, err
	}
	if len(eligible) == 0 {
		if claim != nil {
			// "No eligible candidate" is itself the decision: replicas of
			// this campaign end the same way, so cache it.
			claim.Publish(sharedDecision{})
		}
		return configspace.Config{}, false, nil
	}
	rootInc, err := p.incumbent(rootState, rootModels)
	if err != nil {
		return configspace.Config{}, false, err
	}
	rootEIc := make([]float64, len(eligible))
	for i, cand := range eligible {
		if rootEIc[i], err = p.eic(rootInc, cand, costPreds[i], extraPreds[i]); err != nil {
			return configspace.Config{}, false, err
		}
	}

	// Phase boundary: eligibility and root EIc done, path scoring next (the
	// long phase; each path evaluation additionally polls stepCtx itself).
	if err := cancelErr(ctx); err != nil {
		return configspace.Config{}, false, err
	}

	deepSearch := p.params.Lookahead >= 2 && !p.params.DisablePruning
	iteration := p.iteration
	active := len(untested)

	var scores []pathScore
	if deepSearch && len(eligible) > 2*pruneMinSeeds {
		scores, err = p.prunedScores(eligible, costPreds, rootEIc, rootState, rootModels, rootInc, iteration, active)
	} else {
		results := make([]pathScore, len(eligible))
		errs := make([]error, len(eligible))
		p.sched.run(len(eligible), func(w *specWorker, i int) {
			results[i], errs[i] = p.evalPath(w, iteration, active, rootState, rootModels, rootInc, eligible[i])
		})
		scores, err = results, firstError(errs)
	}
	if err != nil {
		return configspace.Config{}, false, err
	}

	bestID, ok := selectBestRatio(scores)
	if !ok {
		if claim != nil {
			claim.Publish(sharedDecision{})
		}
		return configspace.Config{}, false, nil
	}
	best, err := p.space.Config(bestID)
	if err != nil {
		return configspace.Config{}, false, err
	}
	if claim != nil {
		claim.Publish(sharedDecision{id: bestID, ok: true})
	}
	return best, true, nil
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

// prunedScores evaluates the exploration paths of the eligible candidates
// with optimistic-bound pruning, cutting the branching factor of the
// lookahead ≥ 2 search:
//
//  1. Every candidate gets an optimistic ratio bound from root-model
//     quantities alone: its own root EIc plus a discounted, optimism-inflated
//     multiple of the best root EIc (future steps cannot plausibly beat the
//     best currently known reward by more), divided by its root expected cost
//     (a lower bound on the true path cost, since speculated future costs are
//     non-negative).
//  2. The top seeds by that bound are evaluated exactly, with no
//     synchronization between them: each seed task publishes its ratio and
//     observed future reward through lock-free monotone atomics as it
//     completes (forked subtrees steal freely throughout).
//  3. At the seed join the pruning threshold is fixed from the seed
//     results; remaining candidates whose bound cannot beat it are dropped
//     without simulating their paths, and the survivors are evaluated
//     exactly.
//
// This replaces the former fixed-size chunk barriers (one pool-wide
// synchronization per 16 candidates) with a single join per decision, and
// keeps the pruned set deterministic BY CONSTRUCTION: the threshold depends
// only on the seed results, which are evaluated unconditionally, never on
// which worker read the threshold when. Scores land in slots fixed by
// candidate rank and are collected in canonical order, so the
// recommendation is bitwise identical for every Params.Workers value
// (pinned by the worker-count determinism tests and the golden campaign
// tests).
func (p *planner) prunedScores(eligible []candidate, costPreds []numeric.Gaussian, rootEIc []float64, rootState *specState, rootModels *modelSet, rootInc float64, iteration, active int) ([]pathScore, error) {
	const eps = 1e-12

	maxEIc := 0.0
	for _, score := range rootEIc {
		if score > maxEIc {
			maxEIc = score
		}
	}

	// Discounted horizon weight: sum of discount^d for d = 1..Lookahead.
	horizon := 0.0
	pow := 1.0
	for d := 0; d < p.params.Lookahead; d++ {
		pow *= p.params.Discount
		horizon += pow
	}

	costLBs := make([]float64, len(eligible))
	bounds := make([]float64, len(eligible))
	for i, cand := range eligible {
		costLB := costPreds[i].Mean + p.setupCost(rootState.deployed, cand)
		if costLB < eps {
			costLB = eps
		}
		costLBs[i] = costLB
		bounds[i] = (rootEIc[i] + horizon*maxEIc) / costLB
	}

	order := make([]int, len(eligible))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if bounds[order[a]] != bounds[order[b]] {
			return bounds[order[a]] > bounds[order[b]]
		}
		return eligible[order[a]].id < eligible[order[b]].id
	})

	seedCount := len(eligible) / pruneSeedDivisor
	if seedCount < pruneMinSeeds {
		seedCount = pruneMinSeeds
	}

	// Phase 1: evaluate every seed exactly. Seed tasks publish the pruning
	// calibration through the lock-free monotone atomics as they complete
	// (no synchronization between seeds, forked subtrees steal freely); the
	// single join at the end of the run is the only synchronization point of
	// the whole decision — versus one barrier per 16-candidate chunk before.
	var bestRatio, maxFuture atomicMaxFloat
	results := make([]pathScore, len(order))
	errs := make([]error, len(order))
	evalRank := func(w *specWorker, rank int) {
		i := order[rank]
		s, err := p.evalPath(w, iteration, active, rootState, rootModels, rootInc, eligible[i])
		if err != nil {
			errs[rank] = err
			return
		}
		results[rank] = s
		den := s.cost
		if den < eps {
			den = eps
		}
		bestRatio.Max(s.reward / den)
		maxFuture.Max(s.reward - rootEIc[i])
	}
	p.sched.run(seedCount, evalRank)
	if err := firstError(errs[:seedCount]); err != nil {
		return nil, err
	}

	// Phase 2: fix the threshold from the (deterministic) seed results and
	// prune the remaining candidates against it up front. The discounted
	// future reward of a path varies far less across root candidates than
	// the root EIc does, so the largest future reward observed across the
	// seeds, inflated by the safety factor, bounds the rest; the
	// discounted-horizon multiple of the best root EIc floors the term, so a
	// degenerate seed sample (every seed's speculation adding nothing) can
	// never tighten the bound below the static ranking optimism.
	//
	// Fixing the threshold at the seed join — rather than letting survivor
	// evaluations keep tightening it — is what makes the pruned set
	// deterministic BY CONSTRUCTION: it depends only on seed results, which
	// are evaluated unconditionally. A threshold that kept moving while
	// survivors completed in scheduling order would still pick the same
	// winner whenever the optimistic bound truly bounds (a skipped
	// candidate's ratio would sit strictly below an exactly-computed one),
	// but the bound is a calibrated heuristic, and the repository's
	// reproducibility contract must not be conditional on it.
	future := pruneOptimism * maxFuture.Load()
	if floor := horizon * maxEIc; future < floor {
		future = floor
	}
	threshold := bestRatio.Load()
	survivors := make([]int, 0, len(order)-seedCount)
	for rank := seedCount; rank < len(order); rank++ {
		if i := order[rank]; (rootEIc[i]+future)/costLBs[i] >= threshold {
			survivors = append(survivors, rank)
		}
	}
	p.sched.run(len(survivors), func(w *specWorker, k int) {
		evalRank(w, survivors[k])
	})
	if err := firstError(errs[seedCount:]); err != nil {
		return nil, err
	}

	scores := make([]pathScore, 0, seedCount+len(survivors))
	for rank := 0; rank < seedCount; rank++ {
		scores = append(scores, results[rank])
	}
	for _, rank := range survivors {
		scores = append(scores, results[rank])
	}
	return scores, nil
}
