package synth

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/numeric"
)

// TensorflowTimeoutSeconds is the forceful-termination limit used when the
// paper collected the Tensorflow dataset: 10 minutes (§5.1.1).
const TensorflowTimeoutSeconds = 600

// EnergyMetric is the name of the synthetic energy metric attached to the
// Tensorflow jobs, used by the multi-constraint extension examples.
const EnergyMetric = "energy_kj"

// TensorflowKind identifies one of the three neural-network training jobs of
// the paper's Tensorflow dataset.
type TensorflowKind int

// The three Tensorflow jobs of §5.1.1.
const (
	CNN TensorflowKind = iota + 1
	RNN
	Multilayer
)

// String returns the job name used throughout the paper.
func (k TensorflowKind) String() string {
	switch k {
	case CNN:
		return "cnn"
	case RNN:
		return "rnn"
	case Multilayer:
		return "multilayer"
	default:
		return fmt.Sprintf("tensorflow(%d)", int(k))
	}
}

// TensorflowKinds lists the three jobs in the order the paper presents them.
func TensorflowKinds() []TensorflowKind { return []TensorflowKind{CNN, RNN, Multilayer} }

// tfCluster describes one cluster column of Table 2: a VM type and the
// worker counts available for it (each row keeps the total vCPU count in
// {8, 16, 32, 48, 64, 80, 96, 112}).
type tfCluster struct {
	vmName  string
	workers []int
}

// tfClusters mirrors Table 2 exactly.
var tfClusters = []tfCluster{
	{vmName: "t2.small", workers: []int{8, 16, 32, 48, 64, 80, 96, 112}},
	{vmName: "t2.medium", workers: []int{4, 8, 16, 24, 32, 40, 48, 56}},
	{vmName: "t2.xlarge", workers: []int{2, 4, 8, 12, 16, 20, 24, 28}},
	{vmName: "t2.2xlarge", workers: []int{1, 2, 4, 6, 8, 10, 12, 14}},
}

// Hyper-parameter values of Table 1.
var (
	tfLearningRates = []float64{1e-3, 1e-4, 1e-5}
	tfBatchSizes    = []float64{16, 256}
	tfSyncModes     = []float64{0, 1} // 0 = async, 1 = sync
)

// TensorflowHyperParameters returns the hyper-parameter dimensions of
// Table 1, used by the tab1 experiment to print the table.
func TensorflowHyperParameters() []configspace.Dimension {
	return []configspace.Dimension{
		{Name: "learning_rate", Values: append([]float64(nil), tfLearningRates...)},
		{Name: "batch_size", Values: append([]float64(nil), tfBatchSizes...)},
		{Name: "sync", Values: append([]float64(nil), tfSyncModes...), Labels: []string{"async", "sync"}},
	}
}

// TensorflowClusterTable returns, per VM type, the worker counts of Table 2.
func TensorflowClusterTable() map[string][]int {
	out := make(map[string][]int, len(tfClusters))
	for _, c := range tfClusters {
		out[c.vmName] = append([]int(nil), c.workers...)
	}
	return out
}

// tfProfile holds the per-job constants of the synthetic performance model.
type tfProfile struct {
	kind TensorflowKind
	// bestLearningRateIdx is the index (into tfLearningRates) of the
	// learning rate that converges fastest for this job.
	bestLearningRateIdx int
	// baseSteps is the number of optimizer steps needed to reach the target
	// accuracy with the best learning rate and a batch size of 16.
	baseSteps float64
	// stepCost is the relative per-sample computational cost of one step.
	stepCost float64
	// commBytesPerStep captures the gradient/model size exchanged with the
	// parameter server at every step (relative units); larger models are
	// penalized more by large clusters.
	commBytesPerStep float64
	// noiseSpread is the relative spread of the per-configuration noise.
	noiseSpread float64
}

func tfProfileFor(kind TensorflowKind) (tfProfile, error) {
	switch kind {
	case CNN:
		return tfProfile{kind: kind, bestLearningRateIdx: 0, baseSteps: 2600, stepCost: 3.2, commBytesPerStep: 2.4, noiseSpread: 0.06}, nil
	case RNN:
		return tfProfile{kind: kind, bestLearningRateIdx: 1, baseSteps: 3400, stepCost: 2.4, commBytesPerStep: 1.7, noiseSpread: 0.06}, nil
	case Multilayer:
		return tfProfile{kind: kind, bestLearningRateIdx: 0, baseSteps: 1500, stepCost: 1.0, commBytesPerStep: 0.8, noiseSpread: 0.05}, nil
	default:
		return tfProfile{}, fmt.Errorf("synth: unknown tensorflow kind %d", kind)
	}
}

// TensorflowSpace builds the 384-point configuration space of §5.1.1: the
// Cartesian product of the Table 1 hyper-parameters with the VM type and the
// cluster-scale index of Table 2.
func TensorflowSpace() (*configspace.Space, error) {
	vmLabels := make([]string, len(tfClusters))
	vmValues := make([]float64, len(tfClusters))
	for i, c := range tfClusters {
		vmLabels[i] = c.vmName
		vmValues[i] = float64(i)
	}
	// The scale dimension is expressed as the total number of worker vCPUs,
	// which is what stays constant across the columns of Table 2.
	totalVCPUs := []float64{8, 16, 32, 48, 64, 80, 96, 112}
	scaleValues := make([]float64, len(totalVCPUs))
	scaleLabels := make([]string, len(totalVCPUs))
	for i := range totalVCPUs {
		scaleValues[i] = totalVCPUs[i]
		scaleLabels[i] = fmt.Sprintf("%d-vcpus", int(totalVCPUs[i]))
	}

	dims := []configspace.Dimension{
		{Name: "learning_rate", Values: append([]float64(nil), tfLearningRates...)},
		{Name: "batch_size", Values: append([]float64(nil), tfBatchSizes...)},
		{Name: "sync", Values: append([]float64(nil), tfSyncModes...), Labels: []string{"async", "sync"}},
		{Name: "vm_type", Values: vmValues, Labels: vmLabels},
		{Name: "total_vcpus", Values: scaleValues, Labels: scaleLabels},
	}
	return configspace.New(dims, nil)
}

// tfConfigView decodes a configuration of the Tensorflow space.
type tfConfigView struct {
	learningRateIdx int
	batchSize       float64
	sync            bool
	cluster         cloud.Cluster
	workers         int
	vmIdx           int
	scaleIdx        int
}

func tfDecode(cfg configspace.Config, catalog *cloud.Catalog) (tfConfigView, error) {
	if len(cfg.Indices) != 5 {
		return tfConfigView{}, fmt.Errorf("synth: tensorflow config has %d dimensions, want 5", len(cfg.Indices))
	}
	vmIdx := cfg.Indices[3]
	scaleIdx := cfg.Indices[4]
	if err := validateIndex(vmIdx, len(tfClusters), "vm type"); err != nil {
		return tfConfigView{}, err
	}
	if err := validateIndex(scaleIdx, len(tfClusters[vmIdx].workers), "cluster scale"); err != nil {
		return tfConfigView{}, err
	}
	vm, err := catalog.Lookup(tfClusters[vmIdx].vmName)
	if err != nil {
		return tfConfigView{}, err
	}
	workers := tfClusters[vmIdx].workers[scaleIdx]
	// One extra VM hosts the parameter server (§5.1.1).
	cluster := cloud.Cluster{VM: vm, Workers: workers, ExtraVMs: 1}
	return tfConfigView{
		learningRateIdx: cfg.Indices[0],
		batchSize:       tfBatchSizes[cfg.Indices[1]],
		sync:            cfg.Indices[2] == 1,
		cluster:         cluster,
		workers:         workers,
		vmIdx:           vmIdx,
		scaleIdx:        scaleIdx,
	}, nil
}

// tfRuntime computes the synthetic time-to-accuracy of one configuration.
//
// The model captures the qualitative behaviour of distributed
// parameter-server training:
//
//   - the learning rate determines how many optimizer steps are needed; a
//     badly chosen rate needs one to two orders of magnitude more steps and
//     typically hits the 10-minute timeout;
//   - larger batches need fewer steps but each step processes more samples;
//   - synchronous training needs fewer steps but pays a straggler/barrier
//     penalty that grows with the number of workers;
//   - asynchronous training suffers from gradient staleness, so the number
//     of steps grows with the number of workers;
//   - throughput scales sub-linearly with workers and is eventually capped
//     by the parameter server's network bandwidth, so very large clusters
//     waste money — which is exactly why joint optimization matters.
func tfRuntime(p tfProfile, v tfConfigView, noise *noiseStream, configID int) float64 {
	workers := float64(v.workers)

	// Steps needed -------------------------------------------------------
	lrPenalty := 1.0
	switch abs(v.learningRateIdx - p.bestLearningRateIdx) {
	case 1:
		lrPenalty = 3.4
	case 2:
		lrPenalty = 24
	}
	// Batch 256 processes 16x more samples per step but only cuts the
	// required steps by ~7x (diminishing returns of large batches).
	batchStepFactor := 1.0
	if v.batchSize > 16 {
		batchStepFactor = 1.0 / 7.0
	}
	baseSteps := p.baseSteps * lrPenalty * batchStepFactor

	// Per-worker step rate ------------------------------------------------
	// A worker processes ~130 samples per second per vCPU (relative units),
	// scaled down by the per-sample cost of the model.
	samplesPerSecond := 130 * float64(v.cluster.VM.VCPUs)
	perWorkerStepTime := v.batchSize * p.stepCost / samplesPerSecond

	// Parameter-server ingestion capacity, in updates per second: the PS can
	// absorb a fixed byte budget per second, and every update carries the
	// model's gradient size.
	const psBandwidth = 220.0
	psCap := psBandwidth / p.commBytesPerStep

	var runtime float64
	if v.sync {
		// Synchronous rounds: the effective batch is batch·workers, which
		// cuts the number of global steps with diminishing returns beyond a
		// model-dependent critical batch size.
		criticalWorkers := 2048 / v.batchSize
		useful := workers
		if useful > criticalWorkers {
			useful = criticalWorkers
		}
		steps := baseSteps * 0.8 / math.Pow(useful, 0.75)
		// A global step waits for the slowest worker (barrier overhead grows
		// with the cluster) and then aggregates every worker's gradient at
		// the parameter server (incast).
		stepTime := perWorkerStepTime*(1+0.03*math.Log2(workers+1)) +
			p.commBytesPerStep*workers/psBandwidth
		runtime = steps * stepTime
	} else {
		// Asynchronous updates: workers push independently, so throughput
		// scales with the cluster until the parameter server saturates, but
		// gradient staleness inflates the number of updates needed.
		steps := baseSteps * (1 + 0.012*workers)
		throughput := workers / perWorkerStepTime
		if throughput > psCap {
			throughput = psCap
		}
		runtime = steps / throughput
	}

	// Fixed startup: cluster bring-up, graph construction, data sharding.
	runtime += 15 + 0.35*workers
	return runtime * noise.factor(configID, p.noiseSpread)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// tfTable is the seed-independent half of every Tensorflow job's lookup
// table: the configuration space and each configuration's decoded view,
// indexed by configuration ID. It is built once, on first use, and read-only
// after, so every job shares one Space (and its memoized digest).
type tfTable struct {
	space *configspace.Space
	views []tfConfigView
}

// tensorflowTable returns the one shared tfTable.
var tensorflowTable = sync.OnceValues(func() (*tfTable, error) {
	space, err := TensorflowSpace()
	if err != nil {
		return nil, err
	}
	catalog, err := cloud.AWSCatalog()
	if err != nil {
		return nil, err
	}
	views := make([]tfConfigView, space.Size())
	for _, cfg := range space.Configs() {
		if views[cfg.ID], err = tfDecode(cfg, catalog); err != nil {
			return nil, err
		}
	}
	return &tfTable{space: space, views: views}, nil
})

// TensorflowJob returns the synthetic lookup table of one Tensorflow job.
// The seed makes the per-configuration noise reproducible; the same seed
// always yields the same dataset. Every job shares one read-only
// configuration space, and equal (kind, seed) pairs share one job while any
// caller still holds it (see sharedJob).
func TensorflowJob(kind TensorflowKind, seed int64) (*dataset.Job, error) {
	profile, err := tfProfileFor(kind)
	if err != nil {
		return nil, err
	}
	return sharedJob(tableKey{"tensorflow", kind.String(), seed}, func() (*dataset.Job, error) {
		return buildTensorflowJob(profile, seed)
	})
}

// buildTensorflowJob builds the lookup table of one Tensorflow job.
func buildTensorflowJob(profile tfProfile, seed int64) (*dataset.Job, error) {
	kind := profile.kind
	table, err := tensorflowTable()
	if err != nil {
		return nil, err
	}

	noise := newNoiseStream(numeric.Mix(seed, int64(kind)*7919))
	measurements := make([]dataset.Measurement, len(table.views))
	energy := make([]float64, len(table.views))
	for id, view := range table.views {
		runtime := tfRuntime(profile, view, noise, id)
		runtime, timedOut := clampTimeout(runtime, TensorflowTimeoutSeconds)
		cost, err := view.cluster.Cost(runtime)
		if err != nil {
			return nil, err
		}
		// Synthetic energy: proportional to machine-seconds weighted by vCPUs.
		energy[id] = runtime * float64(view.cluster.TotalVCPUs()+2) * 0.09 / 1000
		measurements[id] = dataset.Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: view.cluster.PricePerHour(),
			Cost:             cost,
			TimedOut:         timedOut,
		}
	}
	return dataset.NewJob(kind.String(), table.space, measurements, TensorflowTimeoutSeconds,
		map[string][]float64{EnergyMetric: energy})
}

// TensorflowJobs generates the three Tensorflow jobs.
func TensorflowJobs(seed int64) ([]*dataset.Job, error) {
	kinds := TensorflowKinds()
	out := make([]*dataset.Job, 0, len(kinds))
	for _, kind := range kinds {
		job, err := TensorflowJob(kind, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, job)
	}
	return out, nil
}
