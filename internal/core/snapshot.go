package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/optimizer"
)

// SnapshotVersion is the current snapshot format version. Snapshots carry it
// so that a future format change fails loudly on old readers instead of
// resuming a campaign from misinterpreted state.
const SnapshotVersion = 1

// snapshotRetry is the serializable subset of optimizer.RetryPolicy
// (durations as nanoseconds; the Sleep hook is process-local and dropped).
type snapshotRetry struct {
	MaxAttempts   int   `json:"max_attempts,omitempty"`
	TimeoutNS     int64 `json:"timeout_ns,omitempty"`
	BackoffBaseNS int64 `json:"backoff_base_ns,omitempty"`
	BackoffMaxNS  int64 `json:"backoff_max_ns,omitempty"`
	Quarantine    bool  `json:"quarantine,omitempty"`
}

// snapshotOptions is the serializable subset of optimizer.Options.
// BootstrapSize always holds the resolved probe count, so a resume does not
// depend on the default-sizing rule staying unchanged. SetupCost functions
// cannot be serialized; HasSetupCost records that one was in use, and
// a resume must re-supply it (ResumeFuncs.SetupCost).
type snapshotOptions struct {
	Budget            float64                `json:"budget"`
	MaxRuntimeSeconds float64                `json:"max_runtime_seconds"`
	BootstrapSize     int                    `json:"bootstrap_size"`
	Seed              int64                  `json:"seed"`
	ExtraConstraints  []optimizer.Constraint `json:"extra_constraints,omitempty"`
	HasSetupCost      bool                   `json:"has_setup_cost,omitempty"`
	Retry             snapshotRetry          `json:"retry"`
}

// snapshotTrial is one recorded profiling run. Only the configuration ID is
// stored: features are re-derived from the space on resume, which also
// validates that the snapshot matches the environment.
type snapshotTrial struct {
	ConfigID         int                `json:"config_id"`
	RuntimeSeconds   float64            `json:"runtime_seconds"`
	UnitPricePerHour float64            `json:"unit_price_per_hour"`
	Cost             float64            `json:"cost"`
	TimedOut         bool               `json:"timed_out,omitempty"`
	Extra            map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the versioned durable state of a Campaign. Everything a resume
// needs to continue the bitwise-identical trial sequence is here: options,
// budget spent, the full trial history and quarantine set, the bootstrap
// cursor, and the planner's decision counter (the planner's only cross-
// decision state — price caches, memos and scratch arenas are rebuilt
// lazily). No model is stored: resume refits from the history. Version-1
// snapshots written by older builds also carry a fitted-ensemble field that
// no reader used; decoding skips it like any unknown field.
type Snapshot struct {
	Version       int             `json:"version"`
	Optimizer     string          `json:"optimizer"`
	ParamsDigest  string          `json:"params_digest"`
	SpaceSize     int             `json:"space_size"`
	SpaceDims     int             `json:"space_dims"`
	Options       snapshotOptions `json:"options"`
	SpentBudget   float64         `json:"spent_budget"`
	Trials        []snapshotTrial `json:"trials"`
	Quarantined   []int           `json:"quarantined,omitempty"`
	BootProbeIdx  int             `json:"boot_probe_idx"`
	BootDraws     int             `json:"boot_draws"`
	BootSuccesses int             `json:"boot_successes"`
	BootFinished  bool            `json:"boot_finished,omitempty"`
	Iteration     int             `json:"iteration"`
	Done          bool            `json:"done,omitempty"`
	FinishReason  string          `json:"finish_reason,omitempty"`
	EnvState      json.RawMessage `json:"env_state,omitempty"`
}

// Finish-reason wire values.
const (
	finishReasonBudget = "budget-exhausted"
	finishReasonSpace  = "space-exhausted"
)

// paramsDigest fingerprints every parameter that influences the decision
// sequence, so a snapshot cannot silently resume under a different
// configuration. Workers is deliberately absent: recommendations are
// worker-count independent, and resuming on a different machine width is a
// supported (and tested) scenario.
func paramsDigest(p Params) string {
	factory := "bagging"
	if p.ModelFactory != nil {
		factory = p.ModelFactory.Name()
	}
	// "prune=true batch=true" and the zeros inside model={...} are the frozen
	// rendering of removed knobs (two planner switches; the bootstrap, tree
	// and σ-floor settings of the cost model): dropping them would orphan
	// every snapshot already on disk.
	return fmt.Sprintf("la=%d gamma=%v nodisc=%v gh=%d elig=%v "+
		"model={NumTrees:%d SampleFraction:0 Tree:{MaxDepth:0 MinLeafSize:0 MinSamplesSplit:0 FeatureFraction:0} MinStdDevFraction:0 Incremental:%v} "+
		"factory=%s search=%s prune=true batch=true refit=%d",
		p.Lookahead, p.Discount, p.NoDiscount, p.GHOrder, p.EligibilityProb,
		p.Model.NumTrees, p.Model.Incremental, factory, p.Search.digest(), p.SpeculativeRefit)
}

// Snapshot serializes the campaign's durable state. Call it between Steps —
// typically after every trial — and persist the bytes; ResumeCampaign
// continues from them in a fresh process with the bitwise-identical trial
// sequence. Environments implementing optimizer.StatefulEnvironment get
// their state embedded and restored too.
func (c *Campaign) Snapshot() ([]byte, error) {
	trials := c.history.Trials()
	st := make([]snapshotTrial, len(trials))
	for i, tr := range trials {
		st[i] = snapshotTrial{
			ConfigID:         tr.Config.ID,
			RuntimeSeconds:   tr.RuntimeSeconds,
			UnitPricePerHour: tr.UnitPricePerHour,
			Cost:             tr.Cost,
			TimedOut:         tr.TimedOut,
			Extra:            tr.Extra,
		}
	}
	probeIdx, draws, successes, bootFinished := c.boot.State()
	snap := Snapshot{
		Version:      SnapshotVersion,
		Optimizer:    c.l.Name(),
		ParamsDigest: paramsDigest(c.l.params),
		SpaceSize:    c.env.Space().Size(),
		SpaceDims:    c.env.Space().NumDimensions(),
		Options: snapshotOptions{
			Budget:            c.opts.Budget,
			MaxRuntimeSeconds: c.opts.MaxRuntimeSeconds,
			BootstrapSize:     c.boot.Target(),
			Seed:              c.opts.Seed,
			ExtraConstraints:  c.opts.ExtraConstraints,
			HasSetupCost:      c.opts.SetupCost != nil,
			Retry: snapshotRetry{
				MaxAttempts:   c.opts.Retry.MaxAttempts,
				TimeoutNS:     int64(c.opts.Retry.Timeout),
				BackoffBaseNS: int64(c.opts.Retry.BackoffBase),
				BackoffMaxNS:  int64(c.opts.Retry.BackoffMax),
				Quarantine:    c.opts.Retry.Quarantine,
			},
		},
		SpentBudget:   c.budget.Spent(),
		Trials:        st,
		Quarantined:   c.history.QuarantinedIDs(),
		BootProbeIdx:  probeIdx,
		BootDraws:     draws,
		BootSuccesses: successes,
		BootFinished:  bootFinished,
		Iteration:     c.planner.iteration,
		Done:          c.done,
	}
	switch {
	case errors.Is(c.finish, optimizer.ErrBudgetExhausted):
		snap.FinishReason = finishReasonBudget
	case errors.Is(c.finish, optimizer.ErrSpaceExhausted):
		snap.FinishReason = finishReasonSpace
	}
	if se, ok := c.env.(optimizer.StatefulEnvironment); ok {
		raw, err := se.EnvState()
		if err != nil {
			return nil, fmt.Errorf("core: serializing environment state: %w", err)
		}
		snap.EnvState = raw
	}
	return json.MarshalIndent(snap, "", " ")
}

// ResumeFuncs re-supplies the process-local function a snapshot cannot
// carry: the setup-cost model.
type ResumeFuncs struct {
	// SetupCost must be provided when the snapshotted campaign used one.
	SetupCost optimizer.SetupCostFunc
}

// ResumeCampaign reconstructs a campaign from a snapshot and continues it
// against the environment. The resumed campaign produces the
// bitwise-identical remaining trial sequence and recommendation as the
// original uninterrupted run (given the same deterministic environment — for
// stateful environments the embedded state is restored, and the environment
// must implement optimizer.StatefulEnvironment). fns re-supplies the
// setup-cost model; g is the share group the resumed campaign joins, nil for
// an isolated one (see NewCampaign).
//
// The campaign is assembled by NewCampaign from the snapshot's options — the
// same path a fresh start takes — and the snapshot's progress is then
// restored onto it.
func (l *Lynceus) ResumeCampaign(env optimizer.Environment, data []byte, fns ResumeFuncs, g *ShareGroup) (*Campaign, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d (this build reads version %d)", snap.Version, SnapshotVersion)
	}
	if snap.Optimizer != l.Name() {
		return nil, fmt.Errorf("core: snapshot was taken by %q, resuming with %q", snap.Optimizer, l.Name())
	}
	if digest := paramsDigest(l.params); snap.ParamsDigest != digest {
		return nil, fmt.Errorf("core: snapshot parameters %q do not match this optimizer's %q", snap.ParamsDigest, digest)
	}
	if space := env.Space(); space.Size() != snap.SpaceSize || space.NumDimensions() != snap.SpaceDims {
		return nil, fmt.Errorf("core: snapshot space (%d configs, %d dims) does not match the environment (%d configs, %d dims)",
			snap.SpaceSize, snap.SpaceDims, space.Size(), space.NumDimensions())
	}
	if snap.Options.HasSetupCost && fns.SetupCost == nil {
		return nil, errors.New("core: the snapshotted campaign used a setup-cost function; re-supply it in ResumeFuncs.SetupCost")
	}
	// Snapshots record the resolved probe count; anything else would make
	// NewCampaign re-derive (or clamp) it and replan the bootstrap.
	if n := snap.Options.BootstrapSize; n < 1 || n > snap.SpaceSize {
		return nil, fmt.Errorf("core: snapshot bootstrap size %d outside [1, %d]", n, snap.SpaceSize)
	}
	if snap.Iteration < 0 {
		return nil, fmt.Errorf("core: snapshot iteration %d is negative", snap.Iteration)
	}

	// NewCampaign re-derives the LHS plan from the seed (it consumes the run
	// rng exactly like the original campaign did); the cursor is restored
	// below.
	c, err := l.NewCampaign(env, optimizer.Options{
		Budget:            snap.Options.Budget,
		MaxRuntimeSeconds: snap.Options.MaxRuntimeSeconds,
		BootstrapSize:     snap.Options.BootstrapSize,
		Seed:              snap.Options.Seed,
		ExtraConstraints:  snap.Options.ExtraConstraints,
		SetupCost:         fns.SetupCost,
		Retry: optimizer.RetryPolicy{
			MaxAttempts: snap.Options.Retry.MaxAttempts,
			Timeout:     time.Duration(snap.Options.Retry.TimeoutNS),
			BackoffBase: time.Duration(snap.Options.Retry.BackoffBaseNS),
			BackoffMax:  time.Duration(snap.Options.Retry.BackoffMaxNS),
			Quarantine:  snap.Options.Retry.Quarantine,
		},
	}, g)
	if err != nil {
		return nil, fmt.Errorf("core: resuming snapshot: %w", err)
	}

	if err := c.budget.Spend(snap.SpentBudget); err != nil {
		return nil, fmt.Errorf("core: snapshot spent budget: %w", err)
	}
	space := c.env.Space()
	for i, tr := range snap.Trials {
		cfg, err := space.Config(tr.ConfigID)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot trial %d references config %d: %w", i, tr.ConfigID, err)
		}
		c.history.Add(optimizer.TrialResult{
			Config:           cfg,
			RuntimeSeconds:   tr.RuntimeSeconds,
			UnitPricePerHour: tr.UnitPricePerHour,
			Cost:             tr.Cost,
			TimedOut:         tr.TimedOut,
			Extra:            tr.Extra,
		})
	}
	for _, id := range snap.Quarantined {
		if id < 0 || id >= space.Size() {
			return nil, fmt.Errorf("core: snapshot quarantines config %d outside the space", id)
		}
		c.history.MarkQuarantined(id)
	}
	if err := c.boot.Restore(snap.BootProbeIdx, snap.BootDraws, snap.BootSuccesses, snap.BootFinished); err != nil {
		return nil, err
	}
	c.planner.iteration = snap.Iteration

	if len(snap.EnvState) > 0 {
		se, ok := c.env.(optimizer.StatefulEnvironment)
		if !ok {
			return nil, errors.New("core: snapshot carries environment state but the environment cannot restore it (optimizer.StatefulEnvironment)")
		}
		if err := se.RestoreEnvState(snap.EnvState); err != nil {
			return nil, fmt.Errorf("core: restoring environment state: %w", err)
		}
	}

	c.done = snap.Done
	switch snap.FinishReason {
	case "":
	case finishReasonBudget:
		c.finish = optimizer.ErrBudgetExhausted
	case finishReasonSpace:
		c.finish = optimizer.ErrSpaceExhausted
	default:
		return nil, fmt.Errorf("core: unknown snapshot finish reason %q", snap.FinishReason)
	}
	return c, nil
}
