package servesim

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// SLOViolationMetric is the extra-metric name under which Env reports the
// fraction of requests that missed their latency SLO; constrain it with
// optimizer.Constraint{Metric: SLOViolationMetric, Max: ...}.
const SLOViolationMetric = "slo_violation"

// trueStatsSalt seeds the replication streams of TrueStats/Optimum. It is
// deliberately independent of the Env seed: ground truth is a property of
// (scenario, deployment) alone, so optima are comparable across campaigns.
const trueStatsSalt = 0x7B07

// Catalog is the default accelerator-instance catalog: price roughly doubles
// per tier while decode speed slightly more than doubles, so big instances
// win on throughput per dollar but lose when the workload cannot fill them.
var Catalog = []InstanceType{
	{Name: "g4-small", PricePerHour: 0.74, Speed: 1.0, KVTokens: 4096},
	{Name: "g5-medium", PricePerHour: 1.60, Speed: 2.1, KVTokens: 8192},
	{Name: "g6-large", PricePerHour: 3.90, Speed: 4.6, KVTokens: 16384},
	{Name: "g6-xl", PricePerHour: 7.80, Speed: 8.4, KVTokens: 32768},
}

// SpaceParams describes the configuration space of an Env: the candidate
// replica counts and max-batch sizes. Every space spans the full Catalog and
// every policy. Zero-value fields select the defaults (replicas 1..8,
// max-batch {2,4,8,16}), a 384-point space at paper scale.
type SpaceParams struct {
	Replicas   []int
	MaxBatches []int
}

func (p SpaceParams) withDefaults() SpaceParams {
	if len(p.Replicas) == 0 {
		p.Replicas = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if len(p.MaxBatches) == 0 {
		p.MaxBatches = []int{2, 4, 8, 16}
	}
	return p
}

// Space builds the configuration space replicas x instance type x max-batch x
// scheduler policy.
func (p SpaceParams) Space() (*configspace.Space, error) {
	p = p.withDefaults()
	repVals := make([]float64, len(p.Replicas))
	for i, r := range p.Replicas {
		repVals[i] = float64(r)
	}
	typeVals := make([]float64, len(Catalog))
	typeLabels := make([]string, len(Catalog))
	for i, it := range Catalog {
		typeVals[i] = float64(i)
		typeLabels[i] = it.Name
	}
	batchVals := make([]float64, len(p.MaxBatches))
	for i, b := range p.MaxBatches {
		batchVals[i] = float64(b)
	}
	policies := Policies()
	polVals := make([]float64, len(policies))
	polLabels := make([]string, len(policies))
	for i, pol := range policies {
		polVals[i] = float64(pol)
		polLabels[i] = pol.String()
	}
	dims := []configspace.Dimension{
		{Name: "replicas", Values: repVals},
		{Name: "instance_type", Values: typeVals, Labels: typeLabels},
		{Name: "max_batch", Values: batchVals},
		{Name: "scheduler", Values: polVals, Labels: polLabels},
	}
	return configspace.New(dims, nil)
}

// Env wraps one simulated serving scenario as an optimizer.Environment.
//
// Unlike every lookup-table workload, Run is stochastic: the i-th run of a
// configuration draws its service times from the stream derived from (env
// seed, config ID, i), so repeated runs of one configuration return different
// costs while any fixed call sequence stays bitwise reproducible. Create one
// Env per campaign (construction is cheap) — campaigns issue trials serially,
// so a campaign's trial sequence alone determines every observation.
type Env struct {
	scenario Scenario
	space    *configspace.Space
	seed     int64

	mu   sync.Mutex
	runs map[int]int
}

// NewEnv creates the environment of one scenario over the given space. The
// seed drives the per-run stochastic draws.
func NewEnv(scenario Scenario, params SpaceParams, seed int64) (*Env, error) {
	if err := scenario.Validate(); err != nil {
		return nil, err
	}
	space, err := params.Space()
	if err != nil {
		return nil, err
	}
	return &Env{
		scenario: scenario,
		space:    space,
		seed:     numeric.Mix(seed, scenario.hash()),
		runs:     make(map[int]int),
	}, nil
}

// hash folds the scenario name into the seed mix so different profiles with
// the same user seed draw independent noise.
func (s Scenario) hash() int64 {
	h := int64(0)
	for _, r := range s.Name {
		h = h*131 + int64(r)
	}
	return h
}

// Name returns the scenario name.
func (e *Env) Name() string { return e.scenario.Name }

// Scenario returns the wrapped scenario.
func (e *Env) Scenario() Scenario { return e.scenario }

// Space implements optimizer.Environment.
func (e *Env) Space() *configspace.Space { return e.space }

// Constraint returns the scenario's SLO-attainment constraint, ready to pass
// via optimizer.Options.ExtraConstraints.
func (e *Env) Constraint() optimizer.Constraint {
	return optimizer.Constraint{Metric: SLOViolationMetric, Max: e.scenario.MaxSLOViolation}
}

// Deployment decodes a configuration of the space.
func (e *Env) Deployment(cfg configspace.Config) (Deployment, error) {
	if len(cfg.Indices) != 4 {
		return Deployment{}, fmt.Errorf("servesim: config has %d dimensions, want 4", len(cfg.Indices))
	}
	ti := cfg.Indices[1]
	if ti < 0 || ti >= len(Catalog) {
		return Deployment{}, fmt.Errorf("servesim: instance type index %d out of range [0,%d)", ti, len(Catalog))
	}
	policies := Policies()
	pi := cfg.Indices[3]
	if pi < 0 || pi >= len(policies) {
		return Deployment{}, fmt.Errorf("servesim: policy index %d out of range [0,%d)", pi, len(policies))
	}
	return Deployment{
		Replicas: int(cfg.Features[0]),
		Type:     Catalog[ti],
		MaxBatch: int(cfg.Features[2]),
		Policy:   policies[pi],
	}, nil
}

// nextRunSeed returns the seed of the next profiling run of the
// configuration, advancing its per-configuration run counter.
func (e *Env) nextRunSeed(configID int) int64 {
	e.mu.Lock()
	n := e.runs[configID]
	e.runs[configID] = n + 1
	e.mu.Unlock()
	return mix3(e.seed, int64(configID), int64(n))
}

// envState is the serialized form of the environment's mutable state: the
// per-configuration run counters that position every noise stream.
type envState struct {
	Runs map[int]int `json:"runs,omitempty"`
}

// EnvState implements optimizer.StatefulEnvironment: the per-configuration
// run counters travel inside campaign snapshots, so a campaign resumed in a
// fresh process draws the identical stochastic observations the
// uninterrupted run would have drawn.
func (e *Env) EnvState() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return json.Marshal(envState{Runs: e.runs})
}

// RestoreEnvState implements optimizer.StatefulEnvironment.
func (e *Env) RestoreEnvState(data []byte) error {
	var st envState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("servesim: decoding environment state: %w", err)
	}
	runs := make(map[int]int, len(st.Runs))
	for id, n := range st.Runs {
		if n < 0 {
			return fmt.Errorf("servesim: negative run counter %d for config %d", n, id)
		}
		runs[id] = n
	}
	e.mu.Lock()
	e.runs = runs
	e.mu.Unlock()
	return nil
}

// trial converts one simulation result into a TrialResult.
func (e *Env) trial(cfg configspace.Config, d Deployment, res Result) optimizer.TrialResult {
	price := d.PricePerHour()
	return optimizer.TrialResult{
		Config:           cfg.Clone(),
		RuntimeSeconds:   res.Makespan,
		UnitPricePerHour: price,
		Cost:             res.Makespan / 3600 * price,
		Extra:            map[string]float64{SLOViolationMetric: res.SLOViolation()},
	}
}

// Run implements optimizer.Environment: it simulates serving the scenario's
// fixed request volume on the deployment. The makespan — and therefore the
// cost makespan/3600 x $/hour — is stochastic per run.
func (e *Env) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	d, err := e.Deployment(cfg)
	if err != nil {
		return optimizer.TrialResult{}, err
	}
	res, err := Simulate(e.scenario, d, e.nextRunSeed(cfg.ID), nil)
	if err != nil {
		return optimizer.TrialResult{}, err
	}
	return e.trial(cfg, d, res), nil
}

// UnitPricePerHour implements optimizer.Environment: the cluster rental
// price is known from the catalog without simulating.
func (e *Env) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	d, err := e.Deployment(cfg)
	if err != nil {
		return 0, err
	}
	return d.PricePerHour(), nil
}

// TrueStats is the seed-averaged ground truth of one configuration.
type TrueStats struct {
	ConfigID int
	// MeanCost is the expected dollar cost of one profiling run (serving the
	// scenario's fixed volume), i.e. the $/hour of the deployment scaled by
	// the expected serving time.
	MeanCost float64
	// MeanMakespan and MeanViolation are the expected makespan and
	// SLO-violation fraction.
	MeanMakespan, MeanViolation float64
}

// True computes the ground truth of a configuration by averaging reps
// replications drawn from an Env-seed-independent stream, so values are
// comparable across campaigns with different seeds. reps <= 0 selects 5.
func (e *Env) True(configID int, reps int) (TrueStats, error) {
	if reps <= 0 {
		reps = 5
	}
	cfg, err := e.space.Config(configID)
	if err != nil {
		return TrueStats{}, err
	}
	d, err := e.Deployment(cfg)
	if err != nil {
		return TrueStats{}, err
	}
	out := TrueStats{ConfigID: configID}
	for r := 0; r < reps; r++ {
		res, err := Simulate(e.scenario, d, mix3(trueStatsSalt, int64(configID), int64(r)), nil)
		if err != nil {
			return TrueStats{}, err
		}
		out.MeanMakespan += res.Makespan
		out.MeanViolation += res.SLOViolation()
		out.MeanCost += res.Makespan / 3600 * d.PricePerHour()
	}
	n := float64(reps)
	out.MeanMakespan /= n
	out.MeanViolation /= n
	out.MeanCost /= n
	return out, nil
}

// Optimum scans the whole space for the cheapest configuration whose ground
// truth satisfies both the makespan constraint and the scenario's SLO
// constraint, averaging reps replications per configuration. It is the
// analytic reference of the campaign-quality tests.
func (e *Env) Optimum(maxMakespan float64, reps int) (TrueStats, error) {
	best := TrueStats{ConfigID: -1}
	for id := 0; id < e.space.Size(); id++ {
		ts, err := e.True(id, reps)
		if err != nil {
			return TrueStats{}, err
		}
		if ts.MeanMakespan > maxMakespan || ts.MeanViolation > e.scenario.MaxSLOViolation {
			continue
		}
		if best.ConfigID < 0 || ts.MeanCost < best.MeanCost {
			best = ts
		}
	}
	if best.ConfigID < 0 {
		return TrueStats{}, fmt.Errorf("servesim: no configuration of %q satisfies makespan <= %v and violation <= %v",
			e.scenario.Name, maxMakespan, e.scenario.MaxSLOViolation)
	}
	return best, nil
}

// ApproxStats estimates the q-quantile of the makespan and the mean run cost
// from one replication of a deterministic subsample of the space. Campaign
// setups use it to pick a makespan constraint and budget without sweeping
// every configuration.
func (e *Env) ApproxStats(q float64, samples int) (makespanQ, meanCost float64, err error) {
	return numeric.SampledStats("servesim", e.space.Size(), trueStatsSalt, q, samples, 128, func(id int) (float64, float64, error) {
		ts, err := e.True(id, 1)
		return ts.MeanMakespan, ts.MeanCost, err
	})
}

// Profiles lists the named serving scenarios in a stable order.
func Profiles() []string { return []string{"chat", "code", "batch"} }

// ProfileScenario returns the named scenario.
func ProfileScenario(name string) (Scenario, error) {
	switch name {
	case "chat":
		// Latency-dominated: mostly interactive traffic with tight SLOs and
		// short outputs; the scheduler policy and replica count decide
		// whether the tail meets the deadline.
		return Scenario{
			Name: "chat",
			Classes: []SLOClass{
				{Name: "interactive", Share: 0.6, LatencySLO: 2.5, PromptMin: 48, PromptMax: 192, OutputMin: 8, OutputMax: 24},
				{Name: "standard", Share: 0.3, LatencySLO: 6, PromptMin: 64, PromptMax: 256, OutputMin: 24, OutputMax: 64},
				{Name: "background", Share: 0.1, LatencySLO: 30, PromptMin: 128, PromptMax: 512, OutputMin: 64, OutputMax: 128},
			},
			ArrivalRate:     6,
			Requests:        90,
			QueuePerReplica: 12,
			StepBase:        0.030,
			StepPerSeq:      0.004,
			PrefillPerToken: 0.0004,
			NoiseSpread:     0.18,
			MaxSLOViolation: 0.10,
		}, nil
	case "code":
		// Long generations with medium SLOs: KV pressure dominates, so
		// max-batch and instance memory matter more than raw speed.
		return Scenario{
			Name: "code",
			Classes: []SLOClass{
				{Name: "completion", Share: 0.5, LatencySLO: 4, PromptMin: 256, PromptMax: 1024, OutputMin: 16, OutputMax: 48},
				{Name: "generation", Share: 0.5, LatencySLO: 15, PromptMin: 512, PromptMax: 2048, OutputMin: 64, OutputMax: 192},
			},
			ArrivalRate:     3,
			Requests:        72,
			QueuePerReplica: 10,
			StepBase:        0.030,
			StepPerSeq:      0.004,
			PrefillPerToken: 0.0004,
			NoiseSpread:     0.15,
			MaxSLOViolation: 0.10,
		}, nil
	case "batch":
		// Throughput-dominated: loose SLOs and long outputs; the cheapest
		// deployment that keeps up wins, attainment rarely binds.
		return Scenario{
			Name: "batch",
			Classes: []SLOClass{
				{Name: "summarize", Share: 0.7, LatencySLO: 60, PromptMin: 512, PromptMax: 2048, OutputMin: 64, OutputMax: 256},
				{Name: "extract", Share: 0.3, LatencySLO: 30, PromptMin: 256, PromptMax: 1024, OutputMin: 32, OutputMax: 96},
			},
			ArrivalRate:     4,
			Requests:        96,
			QueuePerReplica: 16,
			StepBase:        0.030,
			StepPerSeq:      0.004,
			PrefillPerToken: 0.0004,
			NoiseSpread:     0.12,
			MaxSLOViolation: 0.08,
		}, nil
	default:
		return Scenario{}, fmt.Errorf("servesim: unknown profile %q (want one of %v)", name, Profiles())
	}
}

// NewProfileEnv creates the environment of a named profile over the default
// 384-point space.
func NewProfileEnv(profile string, seed int64) (*Env, error) {
	scenario, err := ProfileScenario(profile)
	if err != nil {
		return nil, err
	}
	return NewEnv(scenario, SpaceParams{}, seed)
}

// Statically assert that Env satisfies the Environment contract.
var _ optimizer.Environment = (*Env)(nil)
