package baselines

import (
	"errors"
	"math/rand"

	"repro/internal/optimizer"
)

// Random is the RND baseline of the evaluation (§5.2): it profiles as many
// configurations as possible given the budget, picking them uniformly at
// random, and finally recommends the best configuration it tried. It
// establishes a floor on the complexity of the optimization task.
type Random struct{}

// NewRandom creates the RND baseline.
func NewRandom() *Random { return &Random{} }

// Name implements optimizer.Optimizer.
func (r *Random) Name() string { return "rnd" }

// Optimize implements optimizer.Optimizer. While budget remains, RND draws an
// untested configuration uniformly at random and profiles it; it stops when
// the budget is depleted or the whole space has been profiled. The last run
// may overshoot the budget slightly, since a black-box optimizer only learns
// the cost of a configuration by running it.
func (r *Random) Optimize(env optimizer.Environment, opts optimizer.Options) (optimizer.Result, error) {
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
	for budget.Remaining() > 0 {
		untested := history.UntestedIDs(space)
		if len(untested) == 0 {
			break
		}
		cfg, err := space.Config(untested[rng.Intn(len(untested))])
		if err != nil {
			return optimizer.Result{}, err
		}
		if _, _, err := optimizer.RunTrialWithRetry(env, cfg, history, budget, opts); err != nil {
			return optimizer.Result{}, err
		}
	}
	return optimizer.BuildResult(r.Name(), history, budget, opts)
}
