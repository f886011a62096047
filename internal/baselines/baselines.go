package baselines

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/acquisition"
	"repro/internal/bagging"
	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// DefaultEligibilityProb is the confidence with which a configuration's
// predicted cost must fit the remaining budget to stay selectable. It matches
// Lynceus' budget filter so that every optimizer stops under the same
// condition and differences in the results come from the selection policy
// alone.
const DefaultEligibilityProb = 0.99

// BOParams configures the BO baseline.
type BOParams struct {
	// Model configures the bagging ensemble used as the cost model; the
	// evaluation uses the same 10-tree ensemble as Lynceus (§5.2).
	Model bagging.Params
}

// BO is the traditional greedy constrained-EI Bayesian optimizer used by
// CherryPick and Arrow: at every iteration it profiles the untested
// configuration that maximizes EIc, with no lookahead and no cost awareness
// in the acquisition function.
type BO struct {
	params BOParams
}

// NewBO creates a BO baseline optimizer.
func NewBO(params BOParams) *BO { return &BO{params: params} }

// Name implements optimizer.Optimizer.
func (b *BO) Name() string { return "bo" }

// boModels bundles the cost model with one model per extra constraint metric,
// plus the per-block scratch of the candidate sweep: after each fit, every
// model predicts the space block by block (configspace.Block views), so no
// full-space prediction array or monolithic feature matrix is ever
// allocated, whatever the space's size.
type boModels struct {
	cost       *bagging.Ensemble
	extraNames []string
	extras     []*bagging.Ensemble
	extraMax   []float64

	// Per-block prediction buffers, reused across blocks and refits.
	costBuf  []numeric.Gaussian
	extraBuf [][]numeric.Gaussian
}

func newBOModels(params bagging.Params, opts optimizer.Options) *boModels {
	names, maxima := optimizer.SortedConstraints(opts.ExtraConstraints)
	m := &boModels{
		cost:       bagging.New(params, opts.Seed),
		extraNames: names,
		extraMax:   maxima,
	}
	m.extras = make([]*bagging.Ensemble, len(names))
	m.extraBuf = make([][]numeric.Gaussian, len(names))
	for i := range names {
		m.extras[i] = bagging.New(params, opts.Seed+int64(i+1)*1_000_003)
	}
	return m
}

// fit trains every model on the history.
func (m *boModels) fit(h *optimizer.History) error {
	features := h.Features()
	if err := m.cost.Fit(features, h.Costs()); err != nil {
		return fmt.Errorf("baselines: fitting cost model: %w", err)
	}
	for i, name := range m.extraNames {
		if err := m.extras[i].Fit(features, h.ExtraMetric(name)); err != nil {
			return fmt.Errorf("baselines: fitting constraint model %q: %w", name, err)
		}
	}
	return nil
}

// boCandidate is one untested configuration surviving the budget-eligibility
// filter of a sweep, with its per-model predictive distributions.
type boCandidate struct {
	id       int
	costPred numeric.Gaussian
	extras   []numeric.Gaussian
}

// sweep predicts the whole space block by block and returns the eligible
// untested candidates (in increasing ID order) together with the largest
// predictive standard deviation over all untested configurations (the
// incumbent-fallback input). Gaussians from the block path are bitwise
// identical to full-matrix and scalar sweeps, so the selection matches the
// pre-block-sweep baseline exactly.
func (m *boModels) sweep(space *configspace.Space, h *optimizer.History, remainingBudget float64) ([]boCandidate, float64, error) {
	eligible := make([]boCandidate, 0, 64)
	maxStd := 0.0
	err := space.ForEachBlock(0, func(blk configspace.Block) error {
		n := blk.Len()
		if cap(m.costBuf) < n {
			m.costBuf = make([]numeric.Gaussian, n)
		}
		costs := m.costBuf[:n]
		if err := m.cost.PredictBatch(blk.Cols, costs); err != nil {
			return fmt.Errorf("baselines: sweeping cost model: %w", err)
		}
		for k := range m.extras {
			if cap(m.extraBuf[k]) < n {
				m.extraBuf[k] = make([]numeric.Gaussian, n)
			}
			if err := m.extras[k].PredictBatch(blk.Cols, m.extraBuf[k][:n]); err != nil {
				return fmt.Errorf("baselines: sweeping constraint model %q: %w", m.extraNames[k], err)
			}
		}
		for i := 0; i < n; i++ {
			id := blk.Start + i
			if h.Excluded(id) {
				continue
			}
			costPred := costs[i]
			if costPred.StdDev > maxStd {
				maxStd = costPred.StdDev
			}
			if costPred.ProbLE(remainingBudget) < DefaultEligibilityProb {
				continue
			}
			cand := boCandidate{id: id, costPred: costPred}
			if len(m.extras) > 0 {
				cand.extras = make([]numeric.Gaussian, len(m.extras))
				for k := range m.extras {
					cand.extras[k] = m.extraBuf[k][i]
				}
			}
			eligible = append(eligible, cand)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return eligible, maxStd, nil
}

// Optimize implements optimizer.Optimizer.
func (b *BO) Optimize(env optimizer.Environment, opts optimizer.Options) (optimizer.Result, error) {
	if env == nil {
		return optimizer.Result{}, errors.New("baselines: nil environment")
	}
	if err := opts.Validate(); err != nil {
		return optimizer.Result{}, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	budget, err := optimizer.NewBudget(opts.Budget)
	if err != nil {
		return optimizer.Result{}, err
	}
	history := optimizer.NewHistory()
	bootstrapSize, err := optimizer.ResolveBootstrapSize(env.Space(), opts)
	if err != nil {
		return optimizer.Result{}, err
	}
	if err := optimizer.Bootstrap(env, bootstrapSize, rng, history, budget, opts); err != nil {
		return optimizer.Result{}, err
	}

	space := env.Space()
	prices := optimizer.NewPriceCache(env)
	models := newBOModels(b.params.Model, opts)

	for {
		nextID, ok, err := b.nextConfig(space, history, models, prices, budget.Remaining(), opts)
		if err != nil {
			return optimizer.Result{}, err
		}
		if !ok {
			break
		}
		cfg, err := space.Config(nextID)
		if err != nil {
			return optimizer.Result{}, err
		}
		if _, _, err := optimizer.RunTrialWithRetry(env, cfg, history, budget, opts); err != nil {
			return optimizer.Result{}, err
		}
	}
	return optimizer.BuildResult(b.Name(), history, budget, opts)
}

// nextConfig selects the untested configuration with the highest acquisition
// value among those whose predicted cost fits the remaining budget. The
// candidate predictions come from a block-wise sweep of the space, so the
// baseline's memory does not grow with the space.
func (b *BO) nextConfig(space *configspace.Space, h *optimizer.History, models *boModels, prices *optimizer.PriceCache, remainingBudget float64, opts optimizer.Options) (int, bool, error) {
	if space.Size()-h.ExcludedCount() <= 0 {
		return 0, false, nil
	}
	if err := models.fit(h); err != nil {
		return 0, false, err
	}

	eligible, maxStd, err := models.sweep(space, h, remainingBudget)
	if err != nil {
		return 0, false, err
	}
	if len(eligible) == 0 {
		return 0, false, nil
	}

	best := incumbent(h, opts, maxStd)
	scores := make([]acquisition.Score, 0, len(eligible))
	for _, cand := range eligible {
		costPred := cand.costPred
		ei := acquisition.ExpectedImprovement(costPred, best)
		probs := make([]float64, 0, 1+len(models.extras))
		price, err := prices.UnitPrice(cand.id)
		if err != nil {
			return 0, false, err
		}
		runtimeProb, err := acquisition.ConstraintProbability(costPred, opts.MaxRuntimeSeconds, price/3600)
		if err != nil {
			return 0, false, err
		}
		probs = append(probs, runtimeProb)
		for i := range models.extras {
			probs = append(probs, clampProb(cand.extras[i].ProbLE(models.extraMax[i])))
		}
		eic, err := acquisition.Constrained(ei, probs...)
		if err != nil {
			return 0, false, err
		}
		scores = append(scores, acquisition.Score{ConfigID: cand.id, EIc: eic})
	}

	idx, err := acquisition.ArgMaxEIc(scores)
	if err != nil {
		return 0, false, err
	}
	return scores[idx].ConfigID, true, nil
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

// incumbent returns the EI reference value y*: the cheapest feasible profiled
// cost, or the paper's fallback when no profiled configuration is feasible.
func incumbent(h *optimizer.History, opts optimizer.Options, maxPredStd float64) float64 {
	best, ok := h.BestFeasible(opts.MaxRuntimeSeconds, opts.ExtraConstraints)
	if ok {
		return best.Cost
	}
	return acquisition.IncumbentFallback(h.MaxCost(), maxPredStd)
}
