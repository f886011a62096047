package core

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/bagging"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// Defaults used by the paper's prototype (§4.3, §5.2).
const (
	// DefaultLookahead is the lookahead window LA.
	DefaultLookahead = 2
	// DefaultDiscount is the discount factor γ applied to future rewards.
	DefaultDiscount = 0.9
	// DefaultGHOrder is the number K of Gauss-Hermite points used to
	// discretize speculated outcomes.
	DefaultGHOrder = 3
	// DefaultEligibilityProb is the confidence with which a configuration's
	// predicted cost must fit in the remaining budget to stay eligible
	// (Algorithm 1, line 23).
	DefaultEligibilityProb = 0.99
)

// SpeculativeRefit selects how the planner retrains its models along
// speculative exploration paths (see Params.SpeculativeRefit).
type SpeculativeRefit int

const (
	// SpecRefitAuto resolves per planner: Full on paper-scale searches,
	// Incremental once lookahead × candidate bound crosses
	// AutoIncrementalWork (or lookahead reaches 3, where full refits stop
	// being interactive regardless of the candidate count).
	SpecRefitAuto SpeculativeRefit = iota
	// SpecRefitFull refits the whole model set from the extended training
	// matrix at every speculated outcome — the exact historical behavior,
	// bitwise-pinned by the golden campaign tests.
	SpecRefitFull
	// SpecRefitIncremental keeps one working copy of the decision's model
	// set per workspace and folds each speculated sample in with a
	// one-sample update, undone after the outcome's subtree is scored
	// (model.IncrementalRegressor), an order of magnitude cheaper per
	// speculation. The resulting trees differ from freshly refitted ones, so
	// recommendations match the Full path statistically, not bitwise
	// (enforced by the recommendation-parity campaign tests).
	SpecRefitIncremental
)

// AutoIncrementalWork is the lookahead × candidate-bound product above which
// SpecRefitAuto switches the speculative path to incremental refits. The
// paper-scale campaigns (384-point Tensorflow, 72-point Scout, LA ≤ 2) stay
// below it and keep the exact Full path by default.
const AutoIncrementalWork = 2048

// Params configures the Lynceus optimizer.
type Params struct {
	// Lookahead is the lookahead window LA; 0 yields the cost-normalized
	// myopic variant evaluated as "LA=0" in §6.2. Negative values are
	// rejected.
	Lookahead int
	// Discount is the discount factor γ in [0,1]; 0 falls back to
	// DefaultDiscount. Set NoDiscount to force γ = 0.
	Discount float64
	// NoDiscount forces γ = 0, which makes Lynceus ignore future rewards.
	NoDiscount bool
	// GHOrder is the Gauss-Hermite order K; 0 falls back to DefaultGHOrder.
	GHOrder int
	// EligibilityProb is the budget-eligibility confidence; 0 falls back to
	// DefaultEligibilityProb.
	EligibilityProb float64
	// Model configures the bagging ensemble used as the default cost model.
	Model bagging.Params
	// ModelFactory overrides the cost-model family; nil uses a bagging
	// ensemble built from Model (the paper's default). A Gaussian-Process
	// factory can be supplied to reproduce the footnote-1 variant.
	ModelFactory model.Factory
	// Search selects which untested configurations the planner considers at
	// each decision. The zero value resolves per space: exhaustive search
	// (the paper's behavior) for spaces up to DefaultAutoSampleThreshold
	// configurations, sampled search (deterministic seeded subsampling,
	// bounded per-decision cost) above it.
	Search Search
	// Workers sizes the planner's speculation scheduler: the number of
	// worker goroutines that concurrently evaluate the exploration paths of
	// a decision's root candidates (everything below a root candidate runs
	// serially on its worker); 0 uses GOMAXPROCS. The recommendation is
	// independent of the worker count: every path evaluation owns scratch
	// models whose random streams derive from the candidate ID, scores land
	// in rank-fixed slots, and the pruning threshold is fixed from the
	// unconditionally evaluated seed candidates, so the pruned set never
	// depends on scheduling.
	Workers int
	// SpeculativeRefit selects the refit mode of the speculative path: Full
	// retrains the whole model set per speculated outcome (the exact paper
	// behavior), Incremental applies (and undoes) one-sample updates on a
	// working copy of the models, and Auto (the zero value) resolves by lookahead × candidate
	// count — paper-scale searches keep Full, deep or wide searches switch
	// to Incremental. Explicitly requesting Incremental with a ModelFactory
	// whose regressors are not model.IncrementalRegressor (e.g. "gp") is an
	// error; under Auto such factories silently keep Full. A custom bagging
	// factory must set bagging.Params.Incremental to speculate incrementally.
	SpeculativeRefit SpeculativeRefit
}

func (p Params) withDefaults() (Params, error) {
	if p.Lookahead < 0 {
		return Params{}, fmt.Errorf("core: negative lookahead %d", p.Lookahead)
	}
	if p.Discount < 0 || p.Discount > 1 {
		return Params{}, fmt.Errorf("core: discount %v outside [0,1]", p.Discount)
	}
	if p.Discount == 0 && !p.NoDiscount {
		p.Discount = DefaultDiscount
	}
	if p.GHOrder == 0 {
		p.GHOrder = DefaultGHOrder
	}
	if p.GHOrder < 1 {
		return Params{}, fmt.Errorf("core: gauss-hermite order %d below 1", p.GHOrder)
	}
	if p.EligibilityProb == 0 {
		p.EligibilityProb = DefaultEligibilityProb
	}
	if p.EligibilityProb <= 0 || p.EligibilityProb > 1 {
		return Params{}, fmt.Errorf("core: eligibility probability %v outside (0,1]", p.EligibilityProb)
	}
	if p.Workers < 0 {
		return Params{}, fmt.Errorf("core: negative worker count %d", p.Workers)
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	switch p.SpeculativeRefit {
	case SpecRefitAuto, SpecRefitFull, SpecRefitIncremental:
	default:
		return Params{}, fmt.Errorf("core: unknown speculative-refit mode %d", p.SpeculativeRefit)
	}
	switch p.Search.Strategy {
	case "", "exhaustive", "sampled":
	default:
		return Params{}, fmt.Errorf("core: unknown search strategy %q (want \"\", %q or %q)", p.Search.Strategy, "exhaustive", "sampled")
	}
	return p, nil
}

// Lynceus is the budget-aware, long-sighted optimizer.
type Lynceus struct {
	params Params
}

// New creates a Lynceus optimizer. The zero Params value yields the paper's
// default configuration (LA=2, γ=0.9, 10-tree bagging ensemble).
func New(params Params) (*Lynceus, error) {
	normalized, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Lynceus{params: normalized}, nil
}

// Name implements optimizer.Optimizer.
func (l *Lynceus) Name() string {
	return fmt.Sprintf("lynceus-la%d", l.params.Lookahead)
}

// Params returns the normalized parameters of the optimizer.
func (l *Lynceus) Params() Params { return l.params }

// Optimize implements optimizer.Optimizer by running Algorithm 1 against the
// environment: it creates a Campaign and steps it to completion. Use
// NewCampaign directly to drive the run trial by trial (checkpointing,
// progress reporting).
func (l *Lynceus) Optimize(env optimizer.Environment, opts optimizer.Options) (optimizer.Result, error) {
	c, err := l.NewCampaign(env, opts, nil)
	if err != nil {
		return optimizer.Result{}, err
	}
	return c.Run()
}

// candidate is one untested configuration together with the a-priori known
// information needed to score it. id is the configuration's ID within the
// space; slot is its dense index within the decision's active candidate set,
// which keys the prediction memos (so memo size tracks the candidate set, not
// the space). features alias the planner's decode arena and are read-only.
// runtimeCostMax is the runtime constraint expressed on the cost,
// Tmax·U(x) (acquisition.RuntimeCostThreshold): the threshold of the EIc
// constraint probability.
type candidate struct {
	id             int
	slot           int
	features       []float64
	unitPriceHour  float64
	runtimeCostMax float64
}

// pathScore is the outcome of simulating the exploration paths rooted at one
// candidate: the aggregate expected reward and the expected monetary cost of
// the path.
type pathScore struct {
	candidateID int
	reward      float64
	cost        float64
}

// selectBestRatio returns the candidate with the highest reward-to-cost
// ratio, breaking ties by lower configuration ID.
func selectBestRatio(scores []pathScore) (int, bool) {
	if len(scores) == 0 {
		return 0, false
	}
	sorted := make([]pathScore, len(scores))
	copy(sorted, scores)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].candidateID < sorted[j].candidateID })

	const eps = 1e-12
	ratio := func(s pathScore) float64 {
		den := s.cost
		if den < eps {
			den = eps
		}
		return s.reward / den
	}
	best := sorted[0]
	for _, s := range sorted[1:] {
		if ratio(s) > ratio(best) {
			best = s
		}
	}
	return best.candidateID, true
}
