package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/optimizer"
)

// Campaign is one Lynceus optimization run, driven one trial at a time.
// Optimize is a Step loop over a Campaign; stepping it explicitly is what
// enables checkpointing — Snapshot between any two steps captures the full
// campaign state, and ResumeCampaign continues the bitwise-identical trial
// sequence in a fresh process.
//
// A Campaign is not safe for concurrent use. A Step that returns an error
// leaves the in-memory campaign in an undefined intermediate state (the probe
// cursor may have advanced past the failed trial); recover by resuming from
// the last snapshot, not by stepping again.
type Campaign struct {
	l       *Lynceus
	env     optimizer.Environment
	opts    optimizer.Options
	budget  *optimizer.Budget
	history *optimizer.History
	boot    *optimizer.Bootstrapper
	planner *planner
	done    bool
	finish  error
}

// NewCampaign validates the options and prepares a campaign: budget and
// history trackers, the LHS bootstrap plan, and the planner. No trial runs
// until the first Step.
//
// g is the share group the campaign joins; nil runs it isolated. A grouped
// campaign draws planner scratch from the group's workspace pool and, when
// its configuration is fully key-capturable (see planner.sharable), adopts
// planning decisions published by identical campaigns in the group. Its trial
// sequence and recommendation are bitwise identical to the same campaign run
// isolated.
func (l *Lynceus) NewCampaign(env optimizer.Environment, opts optimizer.Options, g *ShareGroup) (*Campaign, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	budget, err := optimizer.NewBudget(opts.Budget)
	if err != nil {
		return nil, err
	}
	bootstrapSize, err := optimizer.ResolveBootstrapSize(env.Space(), opts)
	if err != nil {
		return nil, err
	}
	// The run rng is consumed exclusively by the LHS bootstrap plan, exactly
	// as in the historical Optimize; every later stream derives from
	// (seed, iteration, candidate) hashes.
	rng := rand.New(rand.NewSource(opts.Seed))
	boot, err := optimizer.NewBootstrapper(env, bootstrapSize, rng, opts)
	if err != nil {
		return nil, err
	}
	planner, err := newPlanner(l.params, env, opts, g)
	if err != nil {
		return nil, err
	}
	return &Campaign{
		l:       l,
		env:     env,
		opts:    opts,
		budget:  budget,
		history: optimizer.NewHistory(),
		boot:    boot,
		planner: planner,
	}, nil
}

// Step advances the campaign by one trial: a bootstrap probe while the LHS
// phase is incomplete, then one planning decision plus its profiling run. A
// step that quarantines a failing configuration (opts.Retry.Quarantine)
// counts as progress and returns done=false with no error. Step returns
// done=true once no further trial can run; FinishReason then tells why.
func (c *Campaign) Step() (done bool, err error) {
	return c.StepContext(context.Background())
}

// cancelErr converts a cancelled context into the campaign error family:
// the returned error wraps both optimizer.ErrCampaignCancelled and the
// context's own error (context.Canceled / context.DeadlineExceeded), and is
// nil while the context is live.
func cancelErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", optimizer.ErrCampaignCancelled, err)
	}
	return nil
}

// StepContext is Step under a context: a cancelled or deadline-exceeded
// context stops the step between trials and between planner phases (see
// planner.plan) with an error wrapping optimizer.ErrCampaignCancelled.
// Cancellation never records a partial trial; like any other Step error,
// recover from it by resuming from the last snapshot.
// The context does not interrupt a blocking Environment.Run (use
// RetryPolicy.Timeout for that); it is checked again when the run returns.
func (c *Campaign) StepContext(ctx context.Context) (done bool, err error) {
	if c.done {
		return true, nil
	}
	if err := cancelErr(ctx); err != nil {
		return false, err
	}
	if !c.boot.Done() {
		bootDone, err := c.boot.Step(c.history, c.budget, c.opts)
		if err != nil {
			return false, err
		}
		if bootDone && c.history.Len() == 0 {
			// Unreachable in practice (Step errors first), kept as a guard.
			c.finishWith(optimizer.ErrSpaceExhausted)
			return true, nil
		}
		return false, nil
	}
	if c.env.Space().Size()-c.history.ExcludedCount() <= 0 {
		c.finishWith(optimizer.ErrSpaceExhausted)
		return true, nil
	}
	next, ok, err := c.planner.nextConfig(ctx, c.history, c.budget.Remaining())
	if err != nil {
		return false, err
	}
	if !ok {
		// No candidate's predicted cost fits the remaining budget with the
		// required confidence: the campaign ends having spent its budget.
		c.finishWith(optimizer.ErrBudgetExhausted)
		return true, nil
	}
	if err := cancelErr(ctx); err != nil {
		return false, err
	}
	if _, _, err := optimizer.RunTrialWithRetry(c.env, next, c.history, c.budget, c.opts); err != nil {
		return false, err
	}
	return false, nil
}

func (c *Campaign) finishWith(reason error) {
	c.done = true
	c.finish = reason
}

// Done reports whether the campaign has finished.
func (c *Campaign) Done() bool { return c.done }

// FinishReason returns why the campaign finished — a sentinel matching
// errors.Is(reason, optimizer.ErrBudgetExhausted) or
// optimizer.ErrSpaceExhausted — and nil while it is still running. A finished
// campaign is a normal outcome: the reason is reporting, not a failure.
func (c *Campaign) FinishReason() error { return c.finish }

// Trials returns the profiling runs recorded so far, in execution order.
func (c *Campaign) Trials() []optimizer.TrialResult { return c.history.Trials() }

// QuarantinedIDs returns the configurations excluded after exhausting their
// retry attempts, in increasing ID order.
func (c *Campaign) QuarantinedIDs() []int { return c.history.QuarantinedIDs() }

// RemainingBudget returns the remaining profiling budget in USD (negative
// when the last run overshot).
func (c *Campaign) RemainingBudget() float64 { return c.budget.Remaining() }

// Result assembles the recommendation from the trials recorded so far. It
// works on running campaigns too (the recommendation simply reflects the
// partial history); it errors only when no trial has completed yet.
func (c *Campaign) Result() (optimizer.Result, error) {
	return optimizer.BuildResult(c.l.Name(), c.history, c.budget, c.opts)
}

// Run steps the campaign to completion and returns the recommendation.
func (c *Campaign) Run() (optimizer.Result, error) {
	for {
		done, err := c.Step()
		if err != nil {
			return optimizer.Result{}, err
		}
		if done {
			return c.Result()
		}
	}
}
