// Package faults wraps an optimizer.Environment with deterministic fault
// injection: transient failures, stragglers, permanently broken
// configurations, and repeatable crash points. Every fault is a pure function
// of (seed, configID, attempt), so a failure scenario replays bitwise — the
// same probes fail on the same attempts regardless of wall-clock, worker
// count, or how often the campaign is snapshotted and resumed.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// Sentinel failures produced by the wrapper. ErrInjectedCrash wraps
// optimizer.ErrEnvironmentFatal, so the retry loop aborts the campaign
// instead of retrying — exactly what a process kill does.
var (
	ErrInjectedCrash     = fmt.Errorf("faults: injected crash: %w", optimizer.ErrEnvironmentFatal)
	ErrInjectedTransient = errors.New("faults: injected transient failure")
	ErrInjectedPermanent = errors.New("faults: injected permanent failure")
)

// DefaultStragglerFactor is the runtime inflation applied to straggler runs
// when Params.StragglerFactor is unset.
const DefaultStragglerFactor = 4.0

// Params configures the injected fault distribution.
type Params struct {
	// Seed keys every fault draw; two wrappers with the same seed inject the
	// identical fault sequence.
	Seed int64 `json:"seed"`
	// TransientRate is the per-attempt probability of a transient failure
	// (spot preemption, network partition). Transient failures are retryable.
	TransientRate float64 `json:"transient_rate"`
	// StragglerRate is the per-attempt probability that a run straggles: its
	// runtime and cost are inflated by StragglerFactor and the measurement is
	// marked TimedOut, as if a timeout-based straggler kill had fired.
	StragglerRate float64 `json:"straggler_rate"`
	// StragglerFactor inflates straggler runtimes; 0 means
	// DefaultStragglerFactor. Must be >= 1 otherwise.
	StragglerFactor float64 `json:"straggler_factor"`
	// FailedCostFraction is the fraction of the real run cost a failed
	// attempt still bills for (failed cloud runs bill for the instance-hours
	// they consumed before dying). In [0, 1].
	FailedCostFraction float64 `json:"failed_cost_fraction"`
	// PermanentIDs lists configurations that always fail permanently — e.g.
	// an instance type the job cannot boot on. Retrying them is useless; the
	// campaign quarantines them (or aborts, per the retry policy).
	PermanentIDs []int `json:"permanent_ids,omitempty"`
	// CrashAtRun injects a single fatal crash on the Nth Run call (1-based)
	// across the wrapper's lifetime; 0 disables it. The crash fires once: a
	// restored wrapper (RestoreEnvState) remembers it already happened, so a
	// resumed campaign is not killed again at the same point.
	CrashAtRun int `json:"crash_at_run,omitempty"`
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.TransientRate < 0 || p.TransientRate > 1 {
		return fmt.Errorf("faults: transient rate %v outside [0,1]", p.TransientRate)
	}
	if p.StragglerRate < 0 || p.StragglerRate > 1 {
		return fmt.Errorf("faults: straggler rate %v outside [0,1]", p.StragglerRate)
	}
	if p.StragglerFactor != 0 && p.StragglerFactor < 1 {
		return fmt.Errorf("faults: straggler factor %v below 1", p.StragglerFactor)
	}
	if p.FailedCostFraction < 0 || p.FailedCostFraction > 1 {
		return fmt.Errorf("faults: failed-cost fraction %v outside [0,1]", p.FailedCostFraction)
	}
	if p.CrashAtRun < 0 {
		return fmt.Errorf("faults: negative crash-at-run index %d", p.CrashAtRun)
	}
	return nil
}

func (p Params) stragglerFactor() float64 {
	if p.StragglerFactor == 0 {
		return DefaultStragglerFactor
	}
	return p.StragglerFactor
}

// Env is a fault-injecting Environment wrapper. It implements
// optimizer.StatefulEnvironment: its counters (global run count, per-config
// attempt counts, whether the crash already fired) and the inner environment's
// state travel inside campaign snapshots, so a resumed campaign sees both
// continue exactly where the original left off.
type Env struct {
	inner     optimizer.Environment
	params    Params
	permanent map[int]bool

	mu       sync.Mutex
	runs     int
	crashed  bool
	attempts map[int]int
}

// New wraps an environment with fault injection.
func New(inner optimizer.Environment, params Params) (*Env, error) {
	if inner == nil {
		return nil, errors.New("faults: nil inner environment")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	permanent := make(map[int]bool, len(params.PermanentIDs))
	for _, id := range params.PermanentIDs {
		permanent[id] = true
	}
	return &Env{
		inner:     inner,
		params:    params,
		permanent: permanent,
		attempts:  make(map[int]int),
	}, nil
}

// Space implements optimizer.Environment.
func (e *Env) Space() *configspace.Space { return e.inner.Space() }

// UnitPricePerHour implements optimizer.Environment. Price lookups are
// metadata, not cloud runs; they never fault.
func (e *Env) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	return e.inner.UnitPricePerHour(cfg)
}

// Runs returns how many Run calls the wrapper has served.
func (e *Env) Runs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs
}

// Crashed reports whether the injected crash already fired.
func (e *Env) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Run implements optimizer.Environment: it advances the deterministic fault
// stream for the configuration and either fails the attempt, degrades it to a
// straggler, or passes the inner measurement through.
func (e *Env) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	e.mu.Lock()
	e.runs++
	run := e.runs
	e.attempts[cfg.ID]++
	attempt := e.attempts[cfg.ID]
	crash := e.params.CrashAtRun > 0 && !e.crashed && run >= e.params.CrashAtRun
	if crash {
		e.crashed = true
	}
	e.mu.Unlock()

	if crash {
		return optimizer.TrialResult{}, fmt.Errorf("%w: run %d (config %d)", ErrInjectedCrash, run, cfg.ID)
	}

	// Faults are priced off the real measurement: a failed attempt bills a
	// fraction of what the full run would have cost.
	trial, err := e.inner.Run(cfg)
	if err != nil {
		return optimizer.TrialResult{}, err
	}

	if e.permanent[cfg.ID] {
		return optimizer.TrialResult{}, &optimizer.RunError{
			Err:       fmt.Errorf("%w: config %d (attempt %d)", ErrInjectedPermanent, cfg.ID, attempt),
			CostUSD:   e.params.FailedCostFraction * trial.Cost,
			Transient: false,
		}
	}
	if draw(e.params.Seed, cfg.ID, attempt, saltTransient) < e.params.TransientRate {
		return optimizer.TrialResult{}, &optimizer.RunError{
			Err:       fmt.Errorf("%w: config %d (attempt %d)", ErrInjectedTransient, cfg.ID, attempt),
			CostUSD:   e.params.FailedCostFraction * trial.Cost,
			Transient: true,
		}
	}
	if draw(e.params.Seed, cfg.ID, attempt, saltStraggler) < e.params.StragglerRate {
		factor := e.params.stragglerFactor()
		trial.RuntimeSeconds *= factor
		trial.Cost *= factor
		trial.TimedOut = true
	}
	return trial, nil
}

// envState is the serialized counter state, plus the inner environment's.
type envState struct {
	Runs     int             `json:"runs"`
	Crashed  bool            `json:"crashed,omitempty"`
	Attempts map[int]int     `json:"attempts,omitempty"`
	Inner    json.RawMessage `json:"inner,omitempty"`
}

// EnvState implements optimizer.StatefulEnvironment.
func (e *Env) EnvState() ([]byte, error) {
	var inner []byte
	if se, ok := e.inner.(optimizer.StatefulEnvironment); ok {
		var err error
		if inner, err = se.EnvState(); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return json.Marshal(envState{Runs: e.runs, Crashed: e.crashed, Attempts: e.attempts, Inner: inner})
}

// RestoreEnvState implements optimizer.StatefulEnvironment.
func (e *Env) RestoreEnvState(data []byte) error {
	var s envState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("faults: decoding environment state: %w", err)
	}
	if s.Runs < 0 {
		return fmt.Errorf("faults: negative run count %d in environment state", s.Runs)
	}
	attempts := make(map[int]int, len(s.Attempts))
	for id, n := range s.Attempts {
		if n < 0 {
			return fmt.Errorf("faults: negative attempt count %d for config %d in environment state", n, id)
		}
		attempts[id] = n
	}
	if se, ok := e.inner.(optimizer.StatefulEnvironment); ok && len(s.Inner) > 0 {
		if err := se.RestoreEnvState(s.Inner); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runs = s.Runs
	e.crashed = s.Crashed
	e.attempts = attempts
	return nil
}

// Stream salts decouple the transient and straggler draws of one attempt.
const (
	saltTransient uint64 = 0xA0761D6478BD642F
	saltStraggler uint64 = 0xE7037ED1A0B428DB
)

// draw hashes (seed, configID, attempt, salt) into a uniform float64 in [0,1).
func draw(seed int64, configID, attempt int, salt uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 +
		uint64(configID)*0xD1B54A32D192ED03 +
		uint64(attempt)*0x94D049BB133111EB + salt
	return float64(numeric.SplitMix64(x)>>11) / (1 << 53)
}
