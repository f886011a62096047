package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/lhs"
	"repro/internal/numeric"
)

// JobEnvironment replays a profiled dataset.Job as an Environment: running a
// configuration returns the measurement stored in the lookup table, exactly
// as in the paper's simulation-based evaluation (§5.2).
type JobEnvironment struct {
	job *dataset.Job
}

// NewJobEnvironment wraps a dataset job.
func NewJobEnvironment(job *dataset.Job) (*JobEnvironment, error) {
	if job == nil {
		return nil, errors.New("optimizer: nil job")
	}
	return &JobEnvironment{job: job}, nil
}

// Job returns the wrapped dataset job.
func (e *JobEnvironment) Job() *dataset.Job { return e.job }

// Space implements Environment.
func (e *JobEnvironment) Space() *configspace.Space { return e.job.Space() }

// Run implements Environment by replaying the stored measurement. Every
// trial gets its own Extra map.
func (e *JobEnvironment) Run(cfg configspace.Config) (TrialResult, error) {
	m, err := e.job.Measurement(cfg.ID)
	if err != nil {
		return TrialResult{}, fmt.Errorf("optimizer: replaying config %d: %w", cfg.ID, err)
	}
	return TrialResult{
		Config:           cfg.Clone(),
		RuntimeSeconds:   m.RuntimeSeconds,
		UnitPricePerHour: m.UnitPricePerHour,
		Cost:             m.Cost,
		TimedOut:         m.TimedOut,
		Extra:            e.job.Extra(cfg.ID),
	}, nil
}

// UnitPricePerHour implements Environment: the rental price is known without
// running the job.
func (e *JobEnvironment) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	m, err := e.job.Measurement(cfg.ID)
	if err != nil {
		return 0, fmt.Errorf("optimizer: looking up unit price of config %d: %w", cfg.ID, err)
	}
	return m.UnitPricePerHour, nil
}

// PriceCache memoizes unit prices by configuration ID, fetching them from
// the environment the first time a configuration is priced. Prices are known
// a priori (cloud price lists), so optimizers fetch them lazily per
// considered candidate instead of sweeping the whole space up front — which
// is what keeps huge spaces cheap to plan over. A zero entry means
// "not fetched yet"; environments must report strictly positive prices.
//
// Safe for concurrent lazy fetches: hits take a shared read lock, and
// concurrent first fetches of one ID agree because prices are deterministic
// per ID. Under contention the environment may be queried more than once for
// the same ID, but every caller observes the same value.
type PriceCache struct {
	env    Environment
	space  *configspace.Space
	mu     sync.RWMutex
	prices []float64
}

// NewPriceCache creates a price cache over the environment's space.
func NewPriceCache(env Environment) *PriceCache {
	return &PriceCache{env: env, space: env.Space(), prices: make([]float64, env.Space().Size())}
}

// UnitPrice returns the memoized unit price of the configuration with the
// given ID, fetching and validating it on first use.
func (c *PriceCache) UnitPrice(id int) (float64, error) {
	c.mu.RLock()
	v := c.prices[id]
	c.mu.RUnlock()
	if v > 0 {
		return v, nil
	}
	cfg, err := c.space.Config(id)
	if err != nil {
		return 0, err
	}
	price, err := c.env.UnitPricePerHour(cfg)
	if err != nil {
		return 0, fmt.Errorf("optimizer: unit price of config %d: %w", id, err)
	}
	if price <= 0 {
		return 0, fmt.Errorf("optimizer: non-positive unit price %v for config %d", price, id)
	}
	c.mu.Lock()
	c.prices[id] = price
	c.mu.Unlock()
	return price, nil
}

// ResolveBootstrapSize returns the bootstrap size to use: the explicit option
// when positive, otherwise the paper default max(3%·|space|, #dimensions).
func ResolveBootstrapSize(space *configspace.Space, opts Options) (int, error) {
	if opts.BootstrapSize > 0 {
		if opts.BootstrapSize > space.Size() {
			return space.Size(), nil
		}
		return opts.BootstrapSize, nil
	}
	return lhs.DefaultBootstrapSize(space)
}

// Bootstrapper runs the LHS bootstrap phase (Algorithm 1, lines 6-8) one
// probe at a time, so campaign drivers can checkpoint between probes. It is
// resilient to failed probes: a configuration that exhausts its retry
// attempts is quarantined, its failed-attempt costs are charged, and a
// deterministic replacement is drawn so the phase still yields n training
// samples — a single flaky cloud run no longer aborts the whole campaign.
//
// Replacement draws come from a counter-indexed SplitMix64 stream seeded by
// Options.Seed, never from the shared *rand.Rand — so fault-free runs consume
// exactly the same random stream as before (only lhs.Sample draws from rng),
// and a resumed campaign replays the draws by restoring the probe and draw
// counters (State/Restore).
type Bootstrapper struct {
	env          Environment
	plan         []configspace.Config
	target       int
	resampleSeed uint64
	probeIdx     int
	draws        int
	successes    int
	finished     bool
}

// NewBootstrapper plans the bootstrap phase: n LHS probes drawn from rng.
func NewBootstrapper(env Environment, n int, rng *rand.Rand, opts Options) (*Bootstrapper, error) {
	if n <= 0 {
		return nil, fmt.Errorf("optimizer: bootstrap size must be positive, got %d", n)
	}
	samples, err := lhs.Sample(env.Space(), n, rng)
	if err != nil {
		return nil, fmt.Errorf("optimizer: bootstrap sampling: %w", err)
	}
	return &Bootstrapper{
		env:          env,
		plan:         samples,
		target:       n,
		resampleSeed: numeric.SplitMix64(uint64(opts.Seed)*0x9E3779B97F4A7C15 + 0xB5297A4D3BD6F0AD),
	}, nil
}

// Target returns the number of training samples the phase aims for.
func (b *Bootstrapper) Target() int { return b.target }

// Done reports whether the bootstrap phase is over: the target number of
// samples was gathered, or the space ran out of profilable configurations
// mid-phase.
func (b *Bootstrapper) Done() bool { return b.finished || b.successes >= b.target }

// State returns the phase's progress for checkpointing: the index of the next
// planned probe, the number of replacement draws consumed, the number of
// probes profiled successfully, and whether the phase ended early.
func (b *Bootstrapper) State() (probeIdx, draws, successes int, finished bool) {
	return b.probeIdx, b.draws, b.successes, b.finished
}

// Restore rewinds/advances the progress counters to a checkpointed state.
func (b *Bootstrapper) Restore(probeIdx, draws, successes int, finished bool) error {
	if probeIdx < 0 || probeIdx > len(b.plan) || draws < 0 || successes < 0 || successes > b.target {
		return fmt.Errorf("optimizer: invalid bootstrap state (probe %d of %d, %d draws, %d successes)",
			probeIdx, len(b.plan), draws, successes)
	}
	b.probeIdx = probeIdx
	b.draws = draws
	b.successes = successes
	b.finished = finished
	return nil
}

// nextProbe returns the next configuration to profile: the next planned probe
// that is still profilable, then deterministic replacement draws once the
// plan is consumed (quarantined probes leave a hole to fill). Returns false
// when no profilable configuration remains.
func (b *Bootstrapper) nextProbe(h *History) (configspace.Config, bool) {
	for b.probeIdx < len(b.plan) {
		cfg := b.plan[b.probeIdx]
		b.probeIdx++
		if !h.Excluded(cfg.ID) {
			return cfg, true
		}
	}
	space := b.env.Space()
	total := space.Size()
	if h.ExcludedCount() >= total {
		return configspace.Config{}, false
	}
	// Rejection-sample replacements from the counter-indexed stream; the
	// excluded fraction is tiny in practice, so a handful of draws suffice.
	// The dense endgame falls back to the smallest non-excluded ID, which is
	// equally deterministic.
	for k := 0; k < 64; k++ {
		b.draws++
		id := int(numeric.SplitMix64(b.resampleSeed+uint64(b.draws)*0x9E3779B97F4A7C15) % uint64(total))
		if h.Excluded(id) {
			continue
		}
		if cfg, err := space.Config(id); err == nil {
			return cfg, true
		}
	}
	for id := 0; id < total; id++ {
		if !h.Excluded(id) {
			if cfg, err := space.Config(id); err == nil {
				return cfg, true
			}
		}
	}
	return configspace.Config{}, false
}

// Step profiles one bootstrap probe (including its retries) and reports
// whether the phase is over. Probes that exhaust their retry attempts are
// always quarantined and replaced — the campaign aborts only on fatal
// environment failures (ErrEnvironmentFatal) or bookkeeping errors. When the
// space runs out of profilable configurations the phase ends with the partial
// sample, or with an error wrapping ErrSpaceExhausted if not even one probe
// succeeded.
func (b *Bootstrapper) Step(h *History, budget *Budget, opts Options) (bool, error) {
	if b.Done() {
		return true, nil
	}
	cfg, ok := b.nextProbe(h)
	if !ok {
		b.finished = true
		if b.successes == 0 && h.Len() == 0 {
			return true, fmt.Errorf("optimizer: bootstrap could not profile any configuration: %w", ErrSpaceExhausted)
		}
		return true, nil
	}
	popts := opts
	popts.Retry.Quarantine = true
	_, profiled, err := RunTrialWithRetry(b.env, cfg, h, budget, popts)
	if err != nil {
		return false, fmt.Errorf("optimizer: bootstrap trial on config %d: %w", cfg.ID, err)
	}
	if profiled {
		b.successes++
	}
	return b.Done(), nil
}

// Bootstrap profiles n configurations chosen by Latin Hypercube Sampling and
// records them in the history (Algorithm 1, lines 6-8). Probes that fail
// terminally are quarantined and deterministically resampled instead of
// aborting the campaign; see Bootstrapper.
func Bootstrap(env Environment, n int, rng *rand.Rand, h *History, budget *Budget, opts Options) error {
	b, err := NewBootstrapper(env, n, rng, opts)
	if err != nil {
		return err
	}
	for {
		done, err := b.Step(h, budget, opts)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
