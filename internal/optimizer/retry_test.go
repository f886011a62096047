package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/configspace"
	"repro/internal/lhs"
)

// flakyEnv wraps a JobEnvironment with scripted per-configuration failures:
// each Run call on a configuration consumes the next scripted error (nil
// means success) and falls through to the real measurement once the script
// is exhausted.
type flakyEnv struct {
	*JobEnvironment
	mu       sync.Mutex
	failures map[int][]error
	runs     []int
}

func (e *flakyEnv) Run(cfg configspace.Config) (TrialResult, error) {
	e.mu.Lock()
	e.runs = append(e.runs, cfg.ID)
	var next error
	if script := e.failures[cfg.ID]; len(script) > 0 {
		next = script[0]
		e.failures[cfg.ID] = script[1:]
	}
	e.mu.Unlock()
	if next != nil {
		return TrialResult{}, next
	}
	return e.JobEnvironment.Run(cfg)
}

func newFlakyEnv(t *testing.T, failures map[int][]error) *flakyEnv {
	t.Helper()
	return &flakyEnv{JobEnvironment: fixtureEnv(t), failures: failures}
}

func TestSentinelErrorIdentities(t *testing.T) {
	sentinels := []error{ErrBudgetExhausted, ErrRunFailed, ErrSpaceExhausted, ErrTrialTimeout, ErrEnvironmentFatal}
	for i, a := range sentinels {
		if !errors.Is(a, a) {
			t.Errorf("sentinel %d not errors.Is itself", i)
		}
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinel %d matches sentinel %d", i, j)
			}
		}
	}
	run := &RunError{Err: fmt.Errorf("wrapped: %w", ErrTrialTimeout), CostUSD: 1, Transient: true}
	if !errors.Is(run, ErrTrialTimeout) {
		t.Error("RunError does not unwrap to its underlying sentinel")
	}
	var got *RunError
	if wrapped := fmt.Errorf("outer: %w", run); !errors.As(wrapped, &got) || got.CostUSD != 1 {
		t.Error("errors.As cannot recover a wrapped RunError")
	}
}

func TestRetryPolicyValidateAndBackoff(t *testing.T) {
	if err := (RetryPolicy{MaxAttempts: -1}).Validate(); err == nil {
		t.Error("negative attempts accepted")
	}
	if err := (RetryPolicy{Timeout: -time.Second}).Validate(); err == nil {
		t.Error("negative timeout accepted")
	}
	p := RetryPolicy{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		d := p.Backoff(7, 3, attempt)
		if d != p.Backoff(7, 3, attempt) {
			t.Fatalf("backoff for attempt %d not deterministic", attempt)
		}
		uncapped := 100 * time.Millisecond << (attempt - 1)
		limit := uncapped
		if limit > time.Second {
			limit = time.Second
		}
		if d < limit/2 || d > limit {
			t.Errorf("backoff(attempt=%d) = %v outside [%v, %v]", attempt, d, limit/2, limit)
		}
	}
	if d := p.Backoff(7, 3, 1); d == p.Backoff(8, 3, 1) && d == p.Backoff(7, 4, 1) {
		t.Error("backoff jitter ignores its stream coordinates")
	}
	if (RetryPolicy{}).Backoff(7, 3, 1) != 0 {
		t.Error("zero policy should not back off")
	}
}

func TestRunTrialWithRetryRecoversFromTransientFailures(t *testing.T) {
	transient := &RunError{Err: errors.New("preempted"), CostUSD: 0.05, Transient: true}
	env := newFlakyEnv(t, map[int][]error{3: {transient, transient}})
	h := NewHistory()
	budget, err := NewBudget(100)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	var slept []time.Duration
	opts := Options{Seed: 7, Retry: RetryPolicy{
		MaxAttempts: 3,
		BackoffBase: 100 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}}
	cfg := mustConfig(t, env.Space(), 3)
	trial, profiled, err := RunTrialWithRetry(env, cfg, h, budget, opts)
	if err != nil || !profiled {
		t.Fatalf("RunTrialWithRetry = profiled %v, err %v", profiled, err)
	}
	if len(env.runs) != 3 {
		t.Errorf("environment ran %d times, want 3", len(env.runs))
	}
	if !h.Tested(3) || h.Len() != 1 {
		t.Errorf("history after recovery: len=%d tested=%v", h.Len(), h.Tested(3))
	}
	wantSpent := trial.Cost + 2*0.05
	if diff := budget.Spent() - wantSpent; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("budget spent %v, want %v (failed attempts must be charged)", budget.Spent(), wantSpent)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	want := []time.Duration{opts.Retry.Backoff(7, 3, 1), opts.Retry.Backoff(7, 3, 2)}
	for i := range slept {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want deterministic %v", i, slept[i], want[i])
		}
	}
}

func TestRunTrialWithRetryQuarantinesAfterExhaustion(t *testing.T) {
	transient := &RunError{Err: errors.New("preempted"), CostUSD: 0.02, Transient: true}
	env := newFlakyEnv(t, map[int][]error{5: {transient, transient, transient}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 3, Quarantine: true}}
	cfg := mustConfig(t, env.Space(), 5)
	_, profiled, err := RunTrialWithRetry(env, cfg, h, budget, opts)
	if err != nil || profiled {
		t.Fatalf("exhausted quarantine = profiled %v, err %v", profiled, err)
	}
	if !h.Quarantined(5) || h.Tested(5) {
		t.Errorf("config 5 quarantined=%v tested=%v, want quarantined only", h.Quarantined(5), h.Tested(5))
	}
	if !h.Excluded(5) || h.ExcludedCount() != 1 {
		t.Errorf("exclusion bookkeeping: excluded=%v count=%d", h.Excluded(5), h.ExcludedCount())
	}
	if got := budget.Spent(); got != 3*0.02 {
		t.Errorf("budget spent %v, want %v", got, 3*0.02)
	}
	for _, id := range h.UntestedIDs(env.Space()) {
		if id == 5 {
			t.Error("quarantined config still offered as untested")
		}
	}
	// A later successful profiling lifts the quarantine.
	h.Add(TrialResult{Config: cfg.Clone(), Cost: 1})
	if h.Quarantined(5) || !h.Tested(5) {
		t.Error("profiling a quarantined config should lift the quarantine")
	}
}

func TestRunTrialWithRetryTerminalWithoutQuarantine(t *testing.T) {
	transient := &RunError{Err: errors.New("preempted"), Transient: true}
	env := newFlakyEnv(t, map[int][]error{5: {transient, transient}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 2}}
	_, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 5), h, budget, opts)
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("terminal failure = %v, want ErrRunFailed", err)
	}
	if h.Quarantined(5) {
		t.Error("config quarantined despite Quarantine=false")
	}
}

func TestRunTrialWithRetryPermanentFailureSkipsRetries(t *testing.T) {
	permanent := &RunError{Err: errors.New("unbootable"), CostUSD: 0.01, Transient: false}
	env := newFlakyEnv(t, map[int][]error{2: {permanent, permanent, permanent}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 5, Quarantine: true}}
	_, profiled, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 2), h, budget, opts)
	if err != nil || profiled {
		t.Fatalf("permanent failure = profiled %v, err %v", profiled, err)
	}
	if len(env.runs) != 1 {
		t.Errorf("permanent failure retried %d times, want 1 attempt", len(env.runs))
	}
	if !h.Quarantined(2) {
		t.Error("permanently failing config not quarantined")
	}
}

func TestRunTrialWithRetryFatalAlwaysAborts(t *testing.T) {
	fatal := &RunError{Err: fmt.Errorf("injected: %w", ErrEnvironmentFatal), Transient: true}
	env := newFlakyEnv(t, map[int][]error{2: {fatal}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 5, Quarantine: true}}
	_, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 2), h, budget, opts)
	if !errors.Is(err, ErrRunFailed) || !errors.Is(err, ErrEnvironmentFatal) {
		t.Fatalf("fatal failure = %v, want ErrRunFailed wrapping ErrEnvironmentFatal", err)
	}
	if len(env.runs) != 1 || h.Quarantined(2) {
		t.Errorf("fatal failure: %d attempts, quarantined=%v, want 1 attempt and no quarantine", len(env.runs), h.Quarantined(2))
	}
}

func TestRunTrialWithRetryUnknownErrorsArePermanent(t *testing.T) {
	env := newFlakyEnv(t, map[int][]error{2: {errors.New("mystery"), errors.New("mystery")}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 3}}
	_, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 2), h, budget, opts)
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("unknown failure = %v, want ErrRunFailed", err)
	}
	if len(env.runs) != 1 {
		t.Errorf("unknown error retried %d times, want 1 attempt", len(env.runs))
	}
}

// blockingEnv blocks the first Run call until released; later calls succeed
// immediately.
type blockingEnv struct {
	*JobEnvironment
	mu      sync.Mutex
	blocked bool
	release chan struct{}
}

func (e *blockingEnv) Run(cfg configspace.Config) (TrialResult, error) {
	e.mu.Lock()
	first := !e.blocked
	e.blocked = true
	e.mu.Unlock()
	if first {
		<-e.release
	}
	return e.JobEnvironment.Run(cfg)
}

func TestRunTrialWithRetryTimesOutMidTrial(t *testing.T) {
	env := &blockingEnv{JobEnvironment: fixtureEnv(t), release: make(chan struct{})}
	defer close(env.release)
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 2, Timeout: 10 * time.Millisecond}}
	trial, profiled, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 4), h, budget, opts)
	if err != nil || !profiled {
		t.Fatalf("timeout recovery = profiled %v, err %v", profiled, err)
	}
	if trial.Config.ID != 4 || !h.Tested(4) {
		t.Errorf("retry after timeout did not profile config 4")
	}
}

func TestRunTrialWithRetryTimeoutTerminal(t *testing.T) {
	env := &blockingEnv{JobEnvironment: fixtureEnv(t), release: make(chan struct{}, 1)}
	h := NewHistory()
	budget, _ := NewBudget(100)
	opts := Options{Retry: RetryPolicy{MaxAttempts: 1, Timeout: 10 * time.Millisecond}}
	_, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 4), h, budget, opts)
	env.release <- struct{}{}
	if !errors.Is(err, ErrRunFailed) || !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("timed-out trial = %v, want ErrRunFailed wrapping ErrTrialTimeout", err)
	}
}

func TestRunTrialPropagatesEnvironmentErrors(t *testing.T) {
	bad := errors.New("broken cluster")
	env := newFlakyEnv(t, map[int][]error{1: {bad}})
	h := NewHistory()
	budget, _ := NewBudget(100)
	if _, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 1), h, budget, Options{}); !errors.Is(err, bad) || !errors.Is(err, ErrRunFailed) {
		t.Fatalf("RunTrialWithRetry error = %v, want ErrRunFailed wrapping the environment's", err)
	}
	if h.Len() != 0 || budget.Spent() != 0 {
		t.Error("failed trial mutated history or budget")
	}
}

// priceEnv overrides prices per configuration ID.
type priceEnv struct {
	*JobEnvironment
	prices map[int]float64
	errs   map[int]error
}

func (e *priceEnv) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	if err, ok := e.errs[cfg.ID]; ok {
		return 0, err
	}
	if p, ok := e.prices[cfg.ID]; ok {
		return p, nil
	}
	return e.JobEnvironment.UnitPricePerHour(cfg)
}

func TestPriceCacheRejectsBadPrices(t *testing.T) {
	boom := errors.New("price feed down")
	env := &priceEnv{
		JobEnvironment: fixtureEnv(t),
		prices:         map[int]float64{1: 0, 2: -3.5},
		errs:           map[int]error{3: boom},
	}
	cache := NewPriceCache(env)
	if _, err := cache.UnitPrice(1); err == nil {
		t.Error("zero price accepted")
	}
	if _, err := cache.UnitPrice(2); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := cache.UnitPrice(3); !errors.Is(err, boom) {
		t.Errorf("environment price error = %v, want wrapped original", err)
	}
	if _, err := cache.UnitPrice(0); err != nil {
		t.Errorf("valid price rejected: %v", err)
	}
}

// TestBootstrapSkipsAndResamplesFailedProbe pins the satellite fix: a single
// failed LHS probe no longer aborts the bootstrap — it is quarantined and a
// deterministic replacement is profiled instead.
func TestBootstrapSkipsAndResamplesFailedProbe(t *testing.T) {
	const n, seed = 3, 9
	// Recover the LHS plan to fail its second probe deliberately.
	planEnv := fixtureEnv(t)
	plan, err := lhs.Sample(planEnv.Space(), n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("lhs.Sample: %v", err)
	}
	failID := plan[1].ID

	run := func() ([]int, []int, float64) {
		t.Helper()
		env := newFlakyEnv(t, map[int][]error{
			failID: {&RunError{Err: errors.New("unbootable"), CostUSD: 0.01, Transient: false}},
		})
		h := NewHistory()
		budget, _ := NewBudget(100)
		if err := Bootstrap(env, n, rand.New(rand.NewSource(seed)), h, budget, Options{Seed: seed}); err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		ids := make([]int, 0, h.Len())
		for _, tr := range h.Trials() {
			ids = append(ids, tr.Config.ID)
		}
		return ids, h.QuarantinedIDs(), budget.Spent()
	}

	ids, quarantined, spent := run()
	if len(ids) != n {
		t.Fatalf("bootstrap yielded %d samples, want %d despite the failed probe", len(ids), n)
	}
	for _, id := range ids {
		if id == failID {
			t.Fatalf("failed probe %d present in history", failID)
		}
	}
	if len(quarantined) != 1 || quarantined[0] != failID {
		t.Fatalf("quarantined = %v, want [%d]", quarantined, failID)
	}

	ids2, quarantined2, spent2 := run()
	if fmt.Sprint(ids) != fmt.Sprint(ids2) || fmt.Sprint(quarantined) != fmt.Sprint(quarantined2) || spent != spent2 {
		t.Errorf("resampling not deterministic: %v/%v/%v vs %v/%v/%v", ids, quarantined, spent, ids2, quarantined2, spent2)
	}
}

// TestBootstrapSpaceExhaustion drives the bootstrap into a space where every
// configuration fails: the phase must end with ErrSpaceExhausted, not loop.
func TestBootstrapSpaceExhaustion(t *testing.T) {
	inner := fixtureEnv(t)
	failures := make(map[int][]error, inner.Space().Size())
	for id := 0; id < inner.Space().Size(); id++ {
		failures[id] = []error{&RunError{Err: errors.New("unbootable"), Transient: false}}
	}
	env := newFlakyEnv(t, failures)
	h := NewHistory()
	budget, _ := NewBudget(100)
	err := Bootstrap(env, 3, rand.New(rand.NewSource(1)), h, budget, Options{Seed: 1})
	if !errors.Is(err, ErrSpaceExhausted) {
		t.Fatalf("all-failing bootstrap = %v, want ErrSpaceExhausted", err)
	}
	if h.Len() != 0 || len(h.QuarantinedIDs()) != inner.Space().Size() {
		t.Errorf("history len %d, quarantined %d, want 0 and %d", h.Len(), len(h.QuarantinedIDs()), inner.Space().Size())
	}
}
