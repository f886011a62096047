package synth

import (
	"repro/internal/cloud"
	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/numeric"
)

// CherryPick-style jobs (paper §5.1.2): TPC-H, TPC-DS, Terasort, Spark
// Kmeans, and Spark Regression, run on clusters of {c4, m4, r3, i2} VMs of
// sizes {large, xlarge, 2xlarge} with machine counts in
// {32, 48, 64, 80, 96, 112}. The space cardinality differs per job (47 to 72
// points): not every combination was measured in the original dataset, which
// the per-job caps below reproduce.

var (
	cherrypickFamilies      = []string{"c4", "m4", "r3", "i2"}
	cherrypickSizes         = []string{"large", "xlarge", "2xlarge"}
	cherrypickMachineCounts = []float64{32, 48, 64, 80, 96, 112}
)

// cherrypickJobSpec couples an analytics profile with the per-job restriction
// of the configuration space.
type cherrypickJobSpec struct {
	profile analyticsProfile
	// sizeCaps caps the machine count per VM size (missing size = no cap).
	sizeCaps map[string]float64
	// familyCaps caps the machine count per VM family (missing = no cap).
	familyCaps map[string]float64
}

// cherrypickSpecs lists the five CherryPick-style jobs.
var cherrypickSpecs = []cherrypickJobSpec{
	{
		profile:  analyticsProfile{name: "tpc-h", kind: balanced, work: 210000, dataGB: 480, shuffleGB: 260, serialFraction: 0.02, noiseSpread: 0.05},
		sizeCaps: map[string]float64{"2xlarge": 64},
		// 3 sizes × 4 families × 6 counts, minus the capped 2xlarge rows.
		familyCaps: map[string]float64{"i2": 96},
	},
	{
		profile:    analyticsProfile{name: "tpc-ds", kind: memoryBound, work: 260000, dataGB: 620, shuffleGB: 300, serialFraction: 0.03, noiseSpread: 0.05},
		sizeCaps:   map[string]float64{"2xlarge": 80},
		familyCaps: map[string]float64{"i2": 80},
	},
	{
		profile:  analyticsProfile{name: "terasort", kind: shuffleBound, work: 150000, dataGB: 900, shuffleGB: 850, serialFraction: 0.01, noiseSpread: 0.05},
		sizeCaps: map[string]float64{},
	},
	{
		profile:    analyticsProfile{name: "spark-kmeans", kind: cpuBound, work: 320000, dataGB: 380, shuffleGB: 60, serialFraction: 0.04, noiseSpread: 0.05},
		sizeCaps:   map[string]float64{"large": 96, "2xlarge": 64},
		familyCaps: map[string]float64{"i2": 64},
	},
	{
		profile:    analyticsProfile{name: "spark-regression", kind: cpuBound, work: 280000, dataGB: 420, shuffleGB: 75, serialFraction: 0.03, noiseSpread: 0.05},
		sizeCaps:   map[string]float64{"2xlarge": 80},
		familyCaps: map[string]float64{"i2": 96, "r3": 96},
	},
}

// cherrypickSpace builds the (possibly restricted) space of one CherryPick
// job.
func cherrypickSpace(spec cherrypickJobSpec) (*configspace.Space, error) {
	familyValues := make([]float64, len(cherrypickFamilies))
	for i := range cherrypickFamilies {
		familyValues[i] = float64(i)
	}
	sizeValues := make([]float64, len(cherrypickSizes))
	for i := range cherrypickSizes {
		sizeValues[i] = float64(i)
	}
	dims := []configspace.Dimension{
		{Name: "vm_family", Values: familyValues, Labels: append([]string(nil), cherrypickFamilies...)},
		{Name: "vm_size", Values: sizeValues, Labels: append([]string(nil), cherrypickSizes...)},
		{Name: "machines", Values: append([]float64(nil), cherrypickMachineCounts...)},
	}
	filter := func(indices []int) bool {
		count := cherrypickMachineCounts[indices[2]]
		if cap, ok := spec.sizeCaps[cherrypickSizes[indices[1]]]; ok && count > cap {
			return false
		}
		if cap, ok := spec.familyCaps[cherrypickFamilies[indices[0]]]; ok && count > cap {
			return false
		}
		return true
	}
	return configspace.New(dims, filter)
}

// CherryPickJobs generates the five CherryPick-style jobs.
func CherryPickJobs(seed int64) ([]*dataset.Job, error) {
	out := make([]*dataset.Job, 0, len(cherrypickSpecs))
	for _, spec := range cherrypickSpecs {
		job, err := cherrypickJobFromSpec(spec, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, job)
	}
	return out, nil
}

func cherrypickJobFromSpec(spec cherrypickJobSpec, seed int64) (*dataset.Job, error) {
	space, err := cherrypickSpace(spec)
	if err != nil {
		return nil, err
	}
	catalog, err := cloud.AWSCatalog()
	if err != nil {
		return nil, err
	}
	jobSeed := numeric.Mix(seed, int64(len(spec.profile.name))*977)
	for _, c := range spec.profile.name {
		jobSeed = numeric.Mix(jobSeed, int64(c))
	}

	measurements := make([]dataset.Measurement, 0, space.Size())
	for _, cfg := range space.Configs() {
		cluster, err := analyticsCluster(cfg, cherrypickFamilies, cherrypickSizes, cherrypickMachineCounts, catalog)
		if err != nil {
			return nil, err
		}
		runtime := analyticsRuntime(spec.profile, cluster, jobSeed, cfg.ID)
		cost, err := cluster.Cost(runtime)
		if err != nil {
			return nil, err
		}
		measurements = append(measurements, dataset.Measurement{
			ConfigID:         cfg.ID,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: cluster.PricePerHour(),
			Cost:             cost,
		})
	}
	return dataset.NewJob(spec.profile.name, space, measurements, 0)
}
