package synth

import (
	"fmt"
	"math"

	"repro/internal/configspace"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// The large-grid workload is the production-scale counterpart of the paper's
// Tensorflow/Scout datasets: a CherryPick/Scout-style cross-product of VM
// family x VM size x cluster size x job knobs that easily reaches 10^5
// configurations. At that scale a lookup-table Job cannot be materialized, so
// the workload is an analytic Environment: runtime, price and cost are
// computed on demand from a closed-form performance model plus deterministic
// per-configuration noise.

// DefaultLargeGridClusterSizes is the number of cluster-size values of the
// default large-grid space: 480 combinations of the other dimensions times
// 128 cluster sizes = 61,440 configurations.
const DefaultLargeGridClusterSizes = 128

// LargeGridKind identifies one of the analytic large-grid jobs.
type LargeGridKind int

// The three large-grid jobs: an IO-heavy ETL pipeline, a compute-heavy model
// training job, and a memory-sensitive analytics query.
const (
	LargeETL LargeGridKind = iota + 1
	LargeTraining
	LargeAnalytics
)

// String returns the job name.
func (k LargeGridKind) String() string {
	switch k {
	case LargeETL:
		return "large-etl"
	case LargeTraining:
		return "large-training"
	case LargeAnalytics:
		return "large-analytics"
	default:
		return fmt.Sprintf("large-grid(%d)", int(k))
	}
}

// LargeGridKinds lists the jobs in a stable order.
func LargeGridKinds() []LargeGridKind {
	return []LargeGridKind{LargeETL, LargeTraining, LargeAnalytics}
}

// lgFamily describes one VM family of the large-grid catalog.
type lgFamily struct {
	name         string
	pricePerVCPU float64 // USD per vCPU-hour
	speed        float64 // relative per-vCPU compute speed
	memPerVCPU   float64 // GiB of RAM per vCPU
	ioBandwidth  float64 // relative local-IO bandwidth per node
}

var lgFamilies = []lgFamily{
	{name: "c5", pricePerVCPU: 0.0425, speed: 1.25, memPerVCPU: 2, ioBandwidth: 1.0},
	{name: "m5", pricePerVCPU: 0.0480, speed: 1.00, memPerVCPU: 4, ioBandwidth: 1.0},
	{name: "r5", pricePerVCPU: 0.0630, speed: 0.95, memPerVCPU: 8, ioBandwidth: 1.0},
	{name: "i3", pricePerVCPU: 0.0780, speed: 0.90, memPerVCPU: 7.6, ioBandwidth: 2.6},
}

var (
	lgVCPUs       = []float64{2, 4, 8, 16, 32, 64}
	lgSizeLabels  = []string{"large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge"}
	lgParallelism = []float64{1, 2, 4, 8}              // tasks per vCPU
	lgMemFrac     = []float64{0.5, 0.6, 0.7, 0.8, 0.9} // fraction of RAM given to the job
)

// lgProfile holds the per-job constants of the analytic performance model.
type lgProfile struct {
	kind LargeGridKind
	// work is the total work volume in relative units.
	work float64
	// memDemand is the per-vCPU memory demand (GiB) before spilling starts.
	memDemand float64
	// spillPenalty scales the slowdown per GiB/vCPU of memory shortfall.
	spillPenalty float64
	// coord is the per-extra-node coordination overhead (barrier, shuffle
	// metadata); larger values cap the useful cluster size earlier.
	coord float64
	// ioShare is the fraction of the work bounded by local IO bandwidth
	// rather than compute.
	ioShare float64
	// noiseSpread is the relative spread of the per-configuration noise.
	noiseSpread float64
}

func lgProfileFor(kind LargeGridKind) (lgProfile, error) {
	switch kind {
	case LargeETL:
		return lgProfile{kind: kind, work: 2.6e6, memDemand: 2.4, spillPenalty: 0.9, coord: 0.004, ioShare: 0.55, noiseSpread: 0.05}, nil
	case LargeTraining:
		return lgProfile{kind: kind, work: 6.4e6, memDemand: 3.2, spillPenalty: 0.5, coord: 0.009, ioShare: 0.10, noiseSpread: 0.05}, nil
	case LargeAnalytics:
		return lgProfile{kind: kind, work: 1.3e6, memDemand: 5.6, spillPenalty: 1.4, coord: 0.002, ioShare: 0.30, noiseSpread: 0.04}, nil
	default:
		return lgProfile{}, fmt.Errorf("synth: unknown large-grid kind %d", kind)
	}
}

// LargeGridSpace builds the configuration space of the large-grid workload:
// vm_family x vm_size x nodes x parallelism x memory_fraction, with
// clusterSizes node-count values (1..clusterSizes). clusterSizes <= 0 selects
// DefaultLargeGridClusterSizes.
func LargeGridSpace(clusterSizes int) (*configspace.Space, error) {
	if clusterSizes <= 0 {
		clusterSizes = DefaultLargeGridClusterSizes
	}
	famValues := make([]float64, len(lgFamilies))
	famLabels := make([]string, len(lgFamilies))
	for i, f := range lgFamilies {
		famValues[i] = float64(i)
		famLabels[i] = f.name
	}
	nodeValues := make([]float64, clusterSizes)
	for i := range nodeValues {
		nodeValues[i] = float64(i + 1)
	}
	dims := []configspace.Dimension{
		{Name: "vm_family", Values: famValues, Labels: famLabels},
		{Name: "vcpus_per_node", Values: append([]float64(nil), lgVCPUs...), Labels: append([]string(nil), lgSizeLabels...)},
		{Name: "nodes", Values: nodeValues},
		{Name: "tasks_per_vcpu", Values: append([]float64(nil), lgParallelism...)},
		{Name: "memory_fraction", Values: append([]float64(nil), lgMemFrac...)},
	}
	return configspace.New(dims, nil)
}

// LargeGridEnv is an optimizer.Environment computing the large-grid job's
// runtime and cost analytically per configuration — nothing is precomputed or
// cached, so a 10^5-point space costs no memory beyond its dimensions.
type LargeGridEnv struct {
	kind    LargeGridKind
	profile lgProfile
	space   *configspace.Space
	seed    int64
}

// NewLargeGridEnv creates the analytic environment of one large-grid job over
// a space with clusterSizes node-count values (<= 0 selects the default
// 61,440-configuration space). The seed drives the deterministic
// per-configuration noise.
func NewLargeGridEnv(kind LargeGridKind, clusterSizes int, seed int64) (*LargeGridEnv, error) {
	profile, err := lgProfileFor(kind)
	if err != nil {
		return nil, err
	}
	space, err := LargeGridSpace(clusterSizes)
	if err != nil {
		return nil, err
	}
	return &LargeGridEnv{
		kind:    kind,
		profile: profile,
		space:   space,
		seed:    numeric.Mix(seed, int64(kind)*15485863),
	}, nil
}

// LargeGridJobs returns the three large-grid jobs at the default scale
// (61,440 configurations each).
func LargeGridJobs(seed int64) ([]*LargeGridEnv, error) {
	kinds := LargeGridKinds()
	out := make([]*LargeGridEnv, 0, len(kinds))
	for _, kind := range kinds {
		env, err := NewLargeGridEnv(kind, 0, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, env)
	}
	return out, nil
}

// Name returns the job name.
func (e *LargeGridEnv) Name() string { return e.kind.String() }

// Space implements optimizer.Environment.
func (e *LargeGridEnv) Space() *configspace.Space { return e.space }

// lgView decodes a configuration of the large-grid space.
type lgView struct {
	family      lgFamily
	vcpus       float64
	nodes       float64
	parallelism float64
	memFrac     float64
}

func (e *LargeGridEnv) decode(cfg configspace.Config) (lgView, error) {
	if len(cfg.Indices) != 5 {
		return lgView{}, fmt.Errorf("synth: large-grid config has %d dimensions, want 5", len(cfg.Indices))
	}
	if err := validateIndex(cfg.Indices[0], len(lgFamilies), "vm family"); err != nil {
		return lgView{}, err
	}
	return lgView{
		family:      lgFamilies[cfg.Indices[0]],
		vcpus:       cfg.Features[1],
		nodes:       cfg.Features[2],
		parallelism: cfg.Features[3],
		memFrac:     cfg.Features[4],
	}, nil
}

// runtime computes the analytic time-to-completion of one configuration.
//
// The surface captures the qualitative trade-offs that make joint tuning
// matter at production scale:
//
//   - oversubscribing vCPUs with tasks overlaps IO and compute up to a point,
//     then scheduling overhead wins;
//   - giving the job too small a memory fraction spills to disk, and the
//     penalty depends on the family's RAM per vCPU (r5 forgives, c5 does not);
//   - throughput scales with nodes until per-node coordination overhead and
//     the shuffle barrier dominate, so the cheapest cluster is mid-sized;
//   - IO-heavy jobs prefer i3's fast local storage despite its price.
func (e *LargeGridEnv) runtime(v lgView, configID int) float64 {
	p := e.profile

	// Task parallelism: square-root gains from IO/compute overlap, linear
	// scheduling cost.
	parEff := math.Sqrt(v.parallelism) / (1 + 0.15*v.parallelism)

	// Memory pressure: shortfall between the job's per-vCPU demand and the
	// fraction of the family's RAM the job is allowed to use.
	shortfall := p.memDemand - v.memFrac*v.family.memPerVCPU
	memEff := 1.0
	if shortfall > 0 {
		memEff = 1 / (1 + p.spillPenalty*shortfall)
	}

	// Per-node throughput blends a compute-bound and an IO-bound share.
	compute := v.vcpus * v.family.speed * parEff * memEff
	io := v.family.ioBandwidth * (8 + 0.5*v.vcpus)
	perNode := (1-p.ioShare)*compute + p.ioShare*math.Min(compute, io)

	// Cluster scaling: coordination overhead per extra node plus a shuffle
	// barrier growing with the square root of the cluster.
	total := v.nodes * perNode / (1 + p.coord*(v.nodes-1))
	runtime := p.work/total + 12*math.Sqrt(v.nodes)

	// Fixed startup: provisioning and scheduling.
	runtime += 20 + 0.2*v.nodes
	return runtime * noise(e.seed, configID, p.noiseSpread)
}

// price returns the cluster rental price in USD per hour.
func (v lgView) price() float64 {
	return v.family.pricePerVCPU * v.vcpus * v.nodes
}

// Run implements optimizer.Environment.
func (e *LargeGridEnv) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	v, err := e.decode(cfg)
	if err != nil {
		return optimizer.TrialResult{}, err
	}
	runtime := e.runtime(v, cfg.ID)
	price := v.price()
	return optimizer.TrialResult{
		Config:           cfg.Clone(),
		RuntimeSeconds:   runtime,
		UnitPricePerHour: price,
		Cost:             runtime / 3600 * price,
	}, nil
}

// UnitPricePerHour implements optimizer.Environment.
func (e *LargeGridEnv) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	v, err := e.decode(cfg)
	if err != nil {
		return 0, err
	}
	return v.price(), nil
}

// ApproxStats estimates summary statistics of the workload from a
// deterministic sample of the space: the q-quantile of the runtime and the
// mean cost. Campaign setups use it to pick a runtime constraint and budget
// without sweeping 10^5 configurations.
func (e *LargeGridEnv) ApproxStats(q float64, samples int) (runtimeQ, meanCost float64, err error) {
	return numeric.SampledStats("synth", e.space.Size(), e.seed, q, samples, 2048, func(id int) (float64, float64, error) {
		cfg, err := e.space.Config(id)
		if err != nil {
			return 0, 0, err
		}
		v, err := e.decode(cfg)
		if err != nil {
			return 0, 0, err
		}
		rt := e.runtime(v, cfg.ID)
		return rt, rt / 3600 * v.price(), nil
	})
}
