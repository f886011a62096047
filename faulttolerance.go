package lynceus

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/optimizer"
)

// Campaign-control sentinels and failure types, re-exported so users can
// branch with errors.Is / errors.As without importing internal packages.
var (
	// ErrBudgetExhausted is the finish reason of a campaign that spent its
	// profiling budget (the normal way a tuning run ends).
	ErrBudgetExhausted = optimizer.ErrBudgetExhausted
	// ErrSpaceExhausted is the finish reason of a campaign that ran out of
	// profilable configurations before running out of budget.
	ErrSpaceExhausted = optimizer.ErrSpaceExhausted
	// ErrRunFailed wraps terminal profiling failures: a configuration
	// exhausted its retry attempts and the policy did not quarantine it.
	ErrRunFailed = optimizer.ErrRunFailed
	// ErrTrialTimeout marks attempts killed by RetryPolicy.Timeout.
	ErrTrialTimeout = optimizer.ErrTrialTimeout
	// ErrEnvironmentFatal marks environment failures that no retry policy
	// retries (e.g. an injected crash); the campaign aborts and should be
	// resumed from its last snapshot.
	ErrEnvironmentFatal = optimizer.ErrEnvironmentFatal
	// ErrCampaignCancelled marks campaign steps stopped by their context
	// (Tuner.StepContext): the error also wraps the context's own cause, so
	// errors.Is matches context.Canceled and context.DeadlineExceeded too.
	// Cancellation records no partial trial; resume the campaign from its
	// last snapshot.
	ErrCampaignCancelled = optimizer.ErrCampaignCancelled
)

type (
	// RetryPolicy governs per-trial timeouts, retries with deterministic
	// backoff, and quarantine-based graceful degradation (Options.Retry).
	RetryPolicy = optimizer.RetryPolicy
	// RunError is the structured failure environments return for one
	// profiling attempt: the money it burned and whether retrying can help.
	RunError = optimizer.RunError
	// StatefulEnvironment is an Environment whose internal state travels
	// inside campaign snapshots (EnvState / RestoreEnvState).
	StatefulEnvironment = optimizer.StatefulEnvironment

	// Tuner is a stepwise Lynceus tuning campaign: Step runs one trial,
	// Snapshot serializes the full campaign state between steps, and Result
	// assembles the recommendation. StartTuner begins one, ResumeTuner
	// continues one from a snapshot with the bitwise-identical remaining
	// trial sequence.
	Tuner = core.Campaign
	// ResumeFuncs re-supplies the process-local function a snapshot cannot
	// carry (the setup-cost model) to ResumeTunerShared.
	ResumeFuncs = core.ResumeFuncs

	// FaultParams configures deterministic fault injection
	// (NewFaultyEnvironment).
	FaultParams = faults.Params
	// FaultyEnvironment wraps an Environment with a deterministic fault
	// stream: transient failures, stragglers, permanently broken
	// configurations and repeatable crash points, all pure functions of
	// (seed, configID, attempt).
	FaultyEnvironment = faults.Env
)

// Injected-fault sentinels, matched with errors.Is against campaign errors.
var (
	// ErrInjectedCrash is the fatal failure NewFaultyEnvironment injects at
	// FaultParams.CrashAtRun; it wraps ErrEnvironmentFatal.
	ErrInjectedCrash = faults.ErrInjectedCrash
	// ErrInjectedTransient marks injected retryable failures.
	ErrInjectedTransient = faults.ErrInjectedTransient
	// ErrInjectedPermanent marks injected non-retryable failures.
	ErrInjectedPermanent = faults.ErrInjectedPermanent
)

// NewFaultyEnvironment wraps an environment with deterministic fault
// injection for robustness testing: the same (seed, configID, attempt) always
// yields the same fault, so failure scenarios replay bitwise across reruns,
// worker counts, and snapshot/resume cycles.
func NewFaultyEnvironment(inner Environment, params FaultParams) (*FaultyEnvironment, error) {
	return faults.New(inner, params)
}

// StartTuner begins a stepwise Lynceus campaign against the environment.
// Unlike Optimize — which is exactly a Step loop over this campaign — the
// caller controls the pace: run Step until done, and call Snapshot between
// any two steps to capture a durable checkpoint.
func StartTuner(cfg TunerConfig, env Environment, opts Options) (*Tuner, error) {
	return StartTunerShared(cfg, env, opts, nil)
}

// ResumeTuner reconstructs a campaign from a Tuner.Snapshot and continues it.
// cfg must describe the same tuner that took the snapshot (the snapshot
// carries a parameter fingerprint and fails loudly on mismatch); the resumed
// campaign reproduces the bitwise-identical remaining trial sequence and
// recommendation of the uninterrupted run.
func ResumeTuner(cfg TunerConfig, env Environment, snapshot []byte) (*Tuner, error) {
	return ResumeTunerShared(cfg, env, snapshot, ResumeFuncs{}, nil)
}
