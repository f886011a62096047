package synth

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/numeric"
)

// Scout-style jobs (paper §5.1.2): 18 Hadoop/Spark jobs from the HiBench and
// spark-perf benchmarks, run on clusters of {c4, m4, r4} VMs of sizes
// {large, xlarge, 2xlarge}, with machine counts in
// {4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48} (capped at 24 for xlarge and 12
// for 2xlarge). The configuration space therefore has three dimensions, which
// makes the optimization problem easier than the Tensorflow one — exactly the
// contrast the paper draws in §6.1.

// scoutMachineCounts is the full machine-count axis.
var scoutMachineCounts = []float64{4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48}

// scoutSizeCaps caps the machine count per VM size, per §5.1.2.
var scoutSizeCaps = map[string]float64{"large": 48, "xlarge": 24, "2xlarge": 12}

// scoutFamilies and scoutSizes are the cloud axes of the Scout dataset.
var (
	scoutFamilies = []string{"c4", "m4", "r4"}
	scoutSizes    = []string{"large", "xlarge", "2xlarge"}
)

// jobArchetype captures what resource a synthetic analytics job is bound by.
type jobArchetype int

const (
	cpuBound jobArchetype = iota + 1
	memoryBound
	shuffleBound
	balanced
)

// analyticsProfile parameterizes the synthetic performance surface of a
// Hadoop/Spark-style job.
type analyticsProfile struct {
	name string
	kind jobArchetype
	// work is the total CPU work in core-seconds.
	work float64
	// dataGB is the size of the working set; if the cluster's aggregate
	// memory is below ~1.5x this, the job spills to disk and slows down.
	dataGB float64
	// shuffleGB is the volume shuffled across the network; its cost grows
	// with the number of machines.
	shuffleGB float64
	// serialFraction is the non-parallelizable fraction of the work.
	serialFraction float64
	// noiseSpread is the relative spread of the per-configuration noise.
	noiseSpread float64
}

// scoutProfiles lists the 18 Scout-style jobs. Work/data/shuffle values are
// chosen so that different jobs have different optimal families and sizes.
var scoutProfiles = []analyticsProfile{
	{name: "hibench-wordcount", kind: cpuBound, work: 36000, dataGB: 60, shuffleGB: 4, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "hibench-sort", kind: shuffleBound, work: 15000, dataGB: 90, shuffleGB: 80, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "hibench-terasort", kind: shuffleBound, work: 26000, dataGB: 120, shuffleGB: 110, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "hibench-kmeans", kind: cpuBound, work: 52000, dataGB: 45, shuffleGB: 6, serialFraction: 0.03, noiseSpread: 0.05},
	{name: "hibench-bayes", kind: memoryBound, work: 30000, dataGB: 150, shuffleGB: 25, serialFraction: 0.03, noiseSpread: 0.05},
	{name: "hibench-pagerank", kind: memoryBound, work: 44000, dataGB: 170, shuffleGB: 45, serialFraction: 0.04, noiseSpread: 0.05},
	{name: "hibench-nutchindexing", kind: balanced, work: 24000, dataGB: 80, shuffleGB: 30, serialFraction: 0.03, noiseSpread: 0.05},
	{name: "hibench-join", kind: shuffleBound, work: 20000, dataGB: 100, shuffleGB: 70, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "hibench-aggregation", kind: balanced, work: 18000, dataGB: 70, shuffleGB: 20, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "hibench-scan", kind: memoryBound, work: 12000, dataGB: 130, shuffleGB: 12, serialFraction: 0.02, noiseSpread: 0.05},
	{name: "sparkperf-lr", kind: cpuBound, work: 60000, dataGB: 55, shuffleGB: 8, serialFraction: 0.04, noiseSpread: 0.05},
	{name: "sparkperf-als", kind: memoryBound, work: 48000, dataGB: 160, shuffleGB: 35, serialFraction: 0.05, noiseSpread: 0.05},
	{name: "sparkperf-pca", kind: balanced, work: 34000, dataGB: 85, shuffleGB: 28, serialFraction: 0.04, noiseSpread: 0.05},
	{name: "sparkperf-gbt", kind: cpuBound, work: 56000, dataGB: 50, shuffleGB: 10, serialFraction: 0.05, noiseSpread: 0.05},
	{name: "sparkperf-rf", kind: cpuBound, work: 42000, dataGB: 65, shuffleGB: 12, serialFraction: 0.04, noiseSpread: 0.05},
	{name: "sparkperf-svd", kind: memoryBound, work: 38000, dataGB: 140, shuffleGB: 30, serialFraction: 0.05, noiseSpread: 0.05},
	{name: "sparkperf-linear", kind: balanced, work: 28000, dataGB: 75, shuffleGB: 18, serialFraction: 0.03, noiseSpread: 0.05},
	{name: "sparkperf-lda", kind: memoryBound, work: 46000, dataGB: 155, shuffleGB: 40, serialFraction: 0.05, noiseSpread: 0.05},
}

// ScoutJobNames returns the names of the 18 Scout-style jobs.
func ScoutJobNames() []string {
	out := make([]string, len(scoutProfiles))
	for i, p := range scoutProfiles {
		out[i] = p.name
	}
	return out
}

// ScoutSpace builds the Scout configuration space: family × size × machine
// count with the per-size caps of §5.1.2.
func ScoutSpace() (*configspace.Space, error) {
	return clusterSpace(scoutFamilies, scoutSizes, scoutMachineCounts, scoutSizeCaps)
}

// clusterSpace builds a 3-dimensional cluster-only space with per-size caps
// on the machine count.
func clusterSpace(families, sizes []string, counts []float64, caps map[string]float64) (*configspace.Space, error) {
	familyValues := make([]float64, len(families))
	for i := range families {
		familyValues[i] = float64(i)
	}
	sizeValues := make([]float64, len(sizes))
	for i := range sizes {
		sizeValues[i] = float64(i)
	}
	dims := []configspace.Dimension{
		{Name: "vm_family", Values: familyValues, Labels: append([]string(nil), families...)},
		{Name: "vm_size", Values: sizeValues, Labels: append([]string(nil), sizes...)},
		{Name: "machines", Values: append([]float64(nil), counts...)},
	}
	filter := func(indices []int) bool {
		size := sizes[indices[1]]
		cap, ok := caps[size]
		if !ok {
			return true
		}
		return counts[indices[2]] <= cap
	}
	return configspace.New(dims, filter)
}

// analyticsCluster decodes the value indices of a configuration of a
// cluster-only space into a cloud.Cluster. vms[f][s] is the VM type of
// family f and size s.
func analyticsCluster(indices []int, vms [][]cloud.VMType, counts []float64) (cloud.Cluster, error) {
	if len(indices) != 3 {
		return cloud.Cluster{}, fmt.Errorf("synth: cluster config has %d dimensions, want 3", len(indices))
	}
	if err := validateIndex(indices[0], len(vms), "vm family"); err != nil {
		return cloud.Cluster{}, err
	}
	if err := validateIndex(indices[1], len(vms[indices[0]]), "vm size"); err != nil {
		return cloud.Cluster{}, err
	}
	if err := validateIndex(indices[2], len(counts), "machine count"); err != nil {
		return cloud.Cluster{}, err
	}
	return cloud.Cluster{VM: vms[indices[0]][indices[1]], Workers: int(counts[indices[2]])}, nil
}

// vmGrid looks up the VM type of every family and size pair: vmGrid(...)[f][s]
// is family f in size s.
func vmGrid(families, sizes []string) ([][]cloud.VMType, error) {
	catalog, err := cloud.AWSCatalog()
	if err != nil {
		return nil, err
	}
	vms := make([][]cloud.VMType, len(families))
	flat := make([]cloud.VMType, len(families)*len(sizes))
	for f, family := range families {
		vms[f] = flat[f*len(sizes) : (f+1)*len(sizes)]
		for s, size := range sizes {
			if vms[f][s], err = catalog.Lookup(family + "." + size); err != nil {
				return nil, err
			}
		}
	}
	return vms, nil
}

// analyticsRuntime computes the synthetic runtime of a Hadoop/Spark-style job
// on the given cluster. The model combines Amdahl-style compute scaling, a
// memory-pressure penalty when the aggregate RAM cannot hold the working set,
// a shuffle phase whose cost grows with the number of machines, and per-task
// scheduling overhead.
func analyticsRuntime(p analyticsProfile, cluster cloud.Cluster, noise *noiseStream, configID int) float64 {
	cores := float64(cluster.TotalVCPUs())
	memGB := cluster.TotalMemoryGB()
	machines := float64(cluster.Workers)

	// CPU speed differs slightly per family: c4 is compute optimized.
	cpuFactor := 1.0
	switch cluster.VM.Family {
	case "c4":
		cpuFactor = 0.78
	case "m4":
		cpuFactor = 1.0
	case "r4", "r3":
		cpuFactor = 1.08
	case "i2":
		cpuFactor = 1.15
	}

	// Compute phase: Amdahl's law — a serial part plus a parallel part that
	// divides across the cluster's cores.
	compute := p.work * cpuFactor * (p.serialFraction + (1-p.serialFraction)/cores)

	// Memory pressure: when the aggregate memory is below 1.4x the working
	// set the job spills to disk, inflating the compute phase. Memory-bound
	// jobs are hit harder.
	memNeed := 1.4 * p.dataGB
	if memGB < memNeed {
		deficit := (memNeed - memGB) / memNeed
		spillFactor := 1 + 2.2*deficit
		if p.kind == memoryBound {
			spillFactor = 1 + 4.5*deficit
		}
		compute *= spillFactor
	}

	// Shuffle phase: all-to-all traffic; more machines means more
	// connections and stragglers, so per-GB cost grows mildly with the
	// number of machines, while per-machine bandwidth divides the volume.
	shuffle := 0.0
	if p.shuffleGB > 0 {
		perMachineBandwidthGBs := 0.12 // effective shuffle bandwidth per machine
		shuffle = p.shuffleGB / (machines * perMachineBandwidthGBs) * (1 + 0.035*machines)
		if p.kind == shuffleBound {
			shuffle *= 1.3
		}
	}

	// Fixed startup and per-machine scheduling overhead.
	overhead := 25 + 1.1*machines

	runtime := compute + shuffle + overhead
	return runtime * noise.factor(configID, p.noiseSpread)
}

// ScoutJob returns one Scout-style job by name, shared with every caller
// still holding the same (name, seed) job (see sharedJob).
func ScoutJob(name string, seed int64) (*dataset.Job, error) {
	for _, p := range scoutProfiles {
		if p.name == name {
			return scoutJob(p, seed)
		}
	}
	return nil, fmt.Errorf("synth: unknown scout job %q", name)
}

// ScoutJobs returns all 18 Scout-style jobs, each shared like ScoutJob's.
func ScoutJobs(seed int64) ([]*dataset.Job, error) {
	out := make([]*dataset.Job, 0, len(scoutProfiles))
	for _, p := range scoutProfiles {
		job, err := scoutJob(p, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, job)
	}
	return out, nil
}

// scoutJob returns the shared lookup table of one Scout job.
func scoutJob(p analyticsProfile, seed int64) (*dataset.Job, error) {
	return sharedJob(tableKey{"scout", p.name, seed}, func() (*dataset.Job, error) {
		return buildScoutJob(p, seed)
	})
}

// buildScoutJob builds the lookup table of one Scout job.
func buildScoutJob(p analyticsProfile, seed int64) (*dataset.Job, error) {
	space, err := ScoutSpace()
	if err != nil {
		return nil, err
	}
	jobSeed := numeric.Mix(seed, int64(len(p.name))*131+int64(p.kind))
	for _, c := range p.name {
		jobSeed = numeric.Mix(jobSeed, int64(c))
	}
	return analyticsTable(p, space, scoutFamilies, scoutSizes, scoutMachineCounts, jobSeed)
}

// analyticsTable fills the lookup table of one cluster-only job over space,
// whose three dimensions index families, sizes and counts.
func analyticsTable(p analyticsProfile, space *configspace.Space, families, sizes []string, counts []float64, jobSeed int64) (*dataset.Job, error) {
	vms, err := vmGrid(families, sizes)
	if err != nil {
		return nil, err
	}
	noise := newNoiseStream(jobSeed)
	measurements := make([]dataset.Measurement, space.Size())
	indices := make([]int, 0, space.NumDimensions())
	for id := range measurements {
		if indices, err = space.AppendIndices(indices[:0], id); err != nil {
			return nil, err
		}
		cluster, err := analyticsCluster(indices, vms, counts)
		if err != nil {
			return nil, err
		}
		runtime := analyticsRuntime(p, cluster, noise, id)
		cost, err := cluster.Cost(runtime)
		if err != nil {
			return nil, err
		}
		measurements[id] = dataset.Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: cluster.PricePerHour(),
			Cost:             cost,
		}
	}
	return dataset.NewJob(p.name, space, measurements, 0, nil)
}
