package optimizer

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/configspace"
	"repro/internal/numeric"
)

// DefaultBackoffMax caps the exponential backoff when RetryPolicy.BackoffMax
// is unset.
const DefaultBackoffMax = 30 * time.Second

// RunError is the structured failure of one profiling attempt. Environments
// (and the fault-injection wrapper) return it to tell the retry loop two
// things a bare error cannot: how much money the failed run burned — failed
// cloud runs still bill for the instance-hours they consumed — and whether
// retrying the same configuration can plausibly succeed.
type RunError struct {
	// Err is the underlying failure.
	Err error
	// CostUSD is the monetary cost of the failed attempt, charged against the
	// campaign budget even though no measurement was obtained.
	CostUSD float64
	// Transient marks failures worth retrying (spot preemption, network
	// partition, straggler kill). Non-transient failures skip the remaining
	// attempts: the configuration is quarantined or the campaign aborts,
	// per RetryPolicy.Quarantine.
	Transient bool
}

// Error implements error.
func (e *RunError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("optimizer: %s run failure (%.4f$ charged): %v", kind, e.CostUSD, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// RetryPolicy governs how RunTrialWithRetry treats profiling failures. The
// zero value reproduces the historical behavior: a single attempt, no
// timeout, and a terminal error on failure.
//
// All retry decisions are deterministic: the backoff jitter is a pure
// function of (seed, configID, attempt), so a replayed campaign waits the
// exact same durations regardless of wall-clock or worker count. The waits
// are plain time.Sleep calls; the virtual-time tests check the schedule to
// the nanosecond on a fake clock.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per configuration
	// (first try included); values below 1 mean 1.
	MaxAttempts int
	// Timeout is the per-attempt wall-clock limit; 0 disables it. A timed-out
	// attempt counts as a transient failure (ErrTrialTimeout). Note that the
	// goroutine running Environment.Run is abandoned, not killed — timeouts
	// are a safety net for real clouds, not a determinism mechanism; use the
	// fault-injection wrapper to simulate stragglers deterministically.
	Timeout time.Duration
	// BackoffBase is the delay before the first retry; it doubles per attempt
	// (capped at BackoffMax) with deterministic jitter in [50%,100%].
	// 0 disables backoff entirely.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff; 0 means DefaultBackoffMax.
	BackoffMax time.Duration
	// Quarantine selects graceful degradation: a configuration that exhausts
	// its attempts is quarantined — excluded from every future candidate set —
	// and the campaign continues. When false, exhausting the attempts aborts
	// the campaign with an error wrapping ErrRunFailed.
	Quarantine bool
}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("optimizer: negative retry attempts %d", p.MaxAttempts)
	}
	if p.Timeout < 0 || p.BackoffBase < 0 || p.BackoffMax < 0 {
		return fmt.Errorf("optimizer: negative retry durations (timeout %v, backoff base %v, backoff max %v)",
			p.Timeout, p.BackoffBase, p.BackoffMax)
	}
	return nil
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay before the given retry (attempt 1 = first retry):
// BackoffBase·2^(attempt-1), capped at BackoffMax, scaled by a deterministic
// jitter factor in [0.5,1] drawn from (seed, configID, attempt).
func (p RetryPolicy) Backoff(seed int64, configID, attempt int) time.Duration {
	if p.BackoffBase <= 0 || attempt < 1 {
		return 0
	}
	maxDelay := p.BackoffMax
	if maxDelay <= 0 {
		maxDelay = DefaultBackoffMax
	}
	d := p.BackoffBase
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	jitter := 0.5 + 0.5*unitDraw(uint64(seed), uint64(configID), uint64(attempt))
	return time.Duration(jitter * float64(d))
}

// unitDraw hashes three stream coordinates into a uniform float64 in [0,1).
func unitDraw(a, b, c uint64) float64 {
	x := a*0x9E3779B97F4A7C15 + b*0xD1B54A32D192ED03 + c*0x94D049BB133111EB + 0x8CB92BA72F3D8DD7
	return float64(numeric.SplitMix64(x)>>11) / (1 << 53)
}

// runOnce executes one profiling attempt under the optional per-trial
// timeout. On timeout the run's goroutine is abandoned (its eventual result
// is discarded) and a transient RunError wrapping ErrTrialTimeout is
// returned.
func runOnce(env Environment, cfg configspace.Config, timeout time.Duration) (TrialResult, error) {
	if timeout <= 0 {
		return env.Run(cfg)
	}
	type outcome struct {
		trial TrialResult
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		t, err := env.Run(cfg)
		ch <- outcome{trial: t, err: err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.trial, o.err
	case <-timer.C:
		return TrialResult{}, &RunError{
			Err:       fmt.Errorf("%w: config %d exceeded %v", ErrTrialTimeout, cfg.ID, timeout),
			Transient: true,
		}
	}
}

// RunTrialWithRetry profiles a configuration under opts.Retry, charging every
// attempt — failed ones included, plus opts.SetupCost on success — against
// the budget, and records a successful trial in the history (Alg. 1's Update).
//
// Return values: (trial, true, nil) on success; (zero, false, nil) when the
// configuration exhausted its attempts and was quarantined
// (opts.Retry.Quarantine); (zero, false, err) on a terminal failure — the
// error wraps both ErrRunFailed and the last underlying attempt error.
// Failures wrapping ErrEnvironmentFatal are always terminal, regardless of
// the policy.
func RunTrialWithRetry(env Environment, cfg configspace.Config, h *History, budget *Budget, opts Options) (TrialResult, bool, error) {
	policy := opts.Retry
	attempts := policy.attempts()
	var lastErr error
	made := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(policy.Backoff(opts.Seed, cfg.ID, attempt))
		}
		trial, err := runOnce(env, cfg, policy.Timeout)
		made = attempt + 1
		if err == nil {
			expense := trial.Cost
			if opts.SetupCost != nil {
				expense += opts.SetupCost(h.Deployed(), cfg)
			}
			if err := budget.Spend(expense); err != nil {
				return TrialResult{}, false, err
			}
			h.Add(trial)
			return trial, true, nil
		}
		lastErr = err
		var runErr *RunError
		if errors.As(err, &runErr) {
			if runErr.CostUSD > 0 {
				if err := budget.Spend(runErr.CostUSD); err != nil {
					return TrialResult{}, false, err
				}
			}
			if errors.Is(err, ErrEnvironmentFatal) {
				break
			}
			if !runErr.Transient {
				break
			}
			continue
		}
		// Errors without failure metadata are treated as permanent: an
		// environment that wants its failures retried signals so explicitly
		// with RunError.Transient.
		break
	}
	if errors.Is(lastErr, ErrEnvironmentFatal) {
		return TrialResult{}, false, fmt.Errorf("%w: config %d on attempt %d: %w", ErrRunFailed, cfg.ID, made, lastErr)
	}
	if policy.Quarantine {
		h.MarkQuarantined(cfg.ID)
		return TrialResult{}, false, nil
	}
	return TrialResult{}, false, fmt.Errorf("%w: config %d after %d attempt(s): %w", ErrRunFailed, cfg.ID, made, lastErr)
}
