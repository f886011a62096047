package lynceus

import (
	"fmt"

	"repro/internal/core"
)

// Multi-campaign throughput tier: run N tuning campaigns concurrently over one
// share group.
//
// Campaigns added to one MultiRunner draw planner scratch from a bounded
// shared workspace pool and — when two campaigns' planning inputs are
// identical (content-equal space, tuner parameters, seed, observed history,
// budget and unit prices) — adopt each other's planning decisions outright.
// Nothing else is shared: every campaign keeps its own environment, space
// instance and unit-price cache. Every campaign's trial sequence and
// recommendation remain bitwise identical to the same campaign run in
// isolation; sharing changes throughput, never results.

type (
	// ShareGroup is the shared state of a batch of campaigns: the
	// cross-campaign decision cache and the workspace pool. It references no
	// campaign, environment or space, so a dropped campaign is garbage. One
	// group per co-scheduled batch.
	ShareGroup = core.ShareGroup
	// MultiResult is the outcome of one campaign of a batch.
	MultiResult = core.MultiResult
	// MultiSummary is the outcome of a whole batch, with its campaigns/sec
	// throughput.
	MultiSummary = core.MultiSummary
	// CampaignFailure is the structured failure record of one campaign of a
	// batch (MultiSummary.Failures): campaign name and index, the
	// errors.Is-matchable cause, and whether re-running the campaign can
	// plausibly succeed.
	CampaignFailure = core.CampaignFailure
)

// NewShareGroup creates an empty share group, for wiring shared campaigns
// manually (StartTunerShared / ResumeTunerShared) outside a MultiRunner.
func NewShareGroup() *ShareGroup { return core.NewShareGroup() }

// MultiRunnerConfig configures a MultiRunner.
type MultiRunnerConfig struct {
	// Concurrency bounds how many campaigns step at once; 0 means
	// GOMAXPROCS. Each campaign still plans with its own TunerConfig.Workers
	// inside its step.
	Concurrency int
	// DisableSharing runs the batch share-nothing: same fair scheduler, but
	// every campaign plans every decision on private workspaces (the baseline
	// the throughput benchmark compares against; results are identical
	// either way).
	DisableSharing bool
}

// MultiRunner drives N campaigns concurrently over one ShareGroup with fair
// round-robin scheduling: every campaign advances one trial per turn, so
// identical campaigns stay in lockstep and share almost all planning work.
type MultiRunner struct {
	inner *core.MultiRunner
}

// NewMultiRunner creates a runner with a fresh share group (none under
// MultiRunnerConfig.DisableSharing).
func NewMultiRunner(cfg MultiRunnerConfig) *MultiRunner {
	g := core.NewShareGroup()
	if cfg.DisableSharing {
		g = nil
	}
	return &MultiRunner{inner: core.NewMultiRunner(cfg.Concurrency, g)}
}

// Group returns the runner's share group, nil under
// MultiRunnerConfig.DisableSharing.
func (r *MultiRunner) Group() *ShareGroup { return r.inner.Group() }

// Add creates a campaign with the given tuner configuration into the
// runner's share group and queues it under name. Names label results; they
// need not be unique.
func (r *MultiRunner) Add(name string, cfg TunerConfig, env Environment, opts Options) error {
	c, err := StartTunerShared(cfg, env, opts, r.inner.Group())
	if err != nil {
		return fmt.Errorf("lynceus: campaign %q: %w", name, err)
	}
	r.inner.Attach(name, c)
	return nil
}

// AddResumed resumes a snapshotted campaign into the runner's share group
// and queues it: the resumed campaign continues its bitwise-identical trial
// sequence while sharing decisions and workspaces with the batch.
func (r *MultiRunner) AddResumed(name string, cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs) error {
	c, err := ResumeTunerShared(cfg, env, snapshot, fns, r.inner.Group())
	if err != nil {
		return fmt.Errorf("lynceus: campaign %q: %w", name, err)
	}
	r.inner.Attach(name, c)
	return nil
}

// Run steps every queued campaign to completion and returns the batch
// summary. One campaign failing is recorded in its MultiResult.Err — and as
// a structured record in MultiSummary.Failures — and does not abort the
// batch. Run can only be called once per runner.
func (r *MultiRunner) Run() (MultiSummary, error) {
	return r.inner.Run()
}

// StartTunerShared is StartTuner into a share group: use it to wire shared
// campaigns to a custom driver instead of a MultiRunner. A nil group is
// plain StartTuner.
func StartTunerShared(cfg TunerConfig, env Environment, opts Options, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.NewCampaign(env, opts, g)
}

// ResumeTunerShared is ResumeTuner with re-supplied process-local functions
// (fns: required when the snapshotted campaign used Options.SetupCost), into
// a share group. A nil group resumes the campaign on its own.
func ResumeTunerShared(cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.ResumeCampaign(env, snapshot, fns, g)
}
