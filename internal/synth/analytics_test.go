package synth

import (
	"testing"
)

func TestScoutSpaceCardinality(t *testing.T) {
	space, err := ScoutSpace()
	if err != nil {
		t.Fatalf("ScoutSpace error: %v", err)
	}
	// The paper reports 69 points; with the published per-size caps the
	// Cartesian product yields 72, which is what the generator uses (the
	// package doc and README's paper map, §5.1, say the datasets are synthetic
	// stand-ins).
	if space.Size() != 72 {
		t.Errorf("scout space size = %d, want 72", space.Size())
	}
	if space.NumDimensions() != 3 {
		t.Errorf("scout dimensions = %d, want 3", space.NumDimensions())
	}
	// Per-size caps: xlarge clusters stop at 24 machines, 2xlarge at 12.
	for _, cfg := range space.Configs() {
		size := scoutSizes[cfg.Indices[1]]
		machines := scoutMachineCounts[cfg.Indices[2]]
		if size == "xlarge" && machines > 24 {
			t.Errorf("xlarge cluster with %v machines should be excluded", machines)
		}
		if size == "2xlarge" && machines > 12 {
			t.Errorf("2xlarge cluster with %v machines should be excluded", machines)
		}
	}
}

func TestScoutJobs(t *testing.T) {
	jobs, err := ScoutJobs(11)
	if err != nil {
		t.Fatalf("ScoutJobs error: %v", err)
	}
	if len(jobs) != 18 {
		t.Fatalf("scout jobs = %d, want 18 (paper §5.1.2)", len(jobs))
	}
	names := map[string]bool{}
	for _, j := range jobs {
		if names[j.Name()] {
			t.Errorf("duplicate job name %q", j.Name())
		}
		names[j.Name()] = true
		if j.Size() != 72 {
			t.Errorf("job %q size = %d, want 72", j.Name(), j.Size())
		}
		for _, m := range j.Measurements() {
			if m.RuntimeSeconds <= 0 || m.Cost <= 0 {
				t.Fatalf("job %q config %d has non-positive runtime/cost", j.Name(), m.ConfigID)
			}
		}
	}
	if len(ScoutJobNames()) != 18 {
		t.Errorf("ScoutJobNames = %d entries", len(ScoutJobNames()))
	}
}

func TestScoutJobByName(t *testing.T) {
	job, err := ScoutJob("hibench-terasort", 3)
	if err != nil {
		t.Fatalf("ScoutJob error: %v", err)
	}
	if job.Name() != "hibench-terasort" {
		t.Errorf("name = %q", job.Name())
	}
	if _, err := ScoutJob("no-such-job", 3); err == nil {
		t.Error("unknown job name should error")
	}
}

func TestScoutJobsHaveDifferentOptima(t *testing.T) {
	// Different archetypes should favour different VM families, otherwise
	// the dataset would not exercise heterogeneous use cases (§5.1.2).
	jobs, err := ScoutJobs(42)
	if err != nil {
		t.Fatalf("ScoutJobs error: %v", err)
	}
	optimalFamilies := map[string]bool{}
	for _, j := range jobs {
		tmax, err := j.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
		}
		opt, err := j.Optimum(tmax)
		if err != nil {
			t.Fatalf("Optimum error: %v", err)
		}
		cfg, err := j.Space().Config(opt.ConfigID)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		optimalFamilies[scoutFamilies[cfg.Indices[0]]] = true
	}
	if len(optimalFamilies) < 2 {
		t.Errorf("every scout job has the same optimal VM family %v; the jobs are not heterogeneous", optimalFamilies)
	}
}

func TestScoutDeterminism(t *testing.T) {
	a, err := ScoutJob("hibench-sort", 9)
	if err != nil {
		t.Fatalf("ScoutJob error: %v", err)
	}
	b, err := ScoutJob("hibench-sort", 9)
	if err != nil {
		t.Fatalf("ScoutJob error: %v", err)
	}
	for id := 0; id < a.Size(); id++ {
		ma, _ := a.Measurement(id)
		mb, _ := b.Measurement(id)
		if ma.RuntimeSeconds != mb.RuntimeSeconds {
			t.Fatalf("config %d differs across identical seeds", id)
		}
	}
}

func TestCherryPickJobs(t *testing.T) {
	jobs, err := CherryPickJobs(13)
	if err != nil {
		t.Fatalf("CherryPickJobs error: %v", err)
	}
	if len(jobs) != 5 {
		t.Fatalf("cherrypick jobs = %d, want 5 (paper §5.1.2)", len(jobs))
	}
	wantNames := map[string]bool{
		"tpc-h": true, "tpc-ds": true, "terasort": true,
		"spark-kmeans": true, "spark-regression": true,
	}
	for _, j := range jobs {
		if !wantNames[j.Name()] {
			t.Errorf("unexpected job name %q", j.Name())
		}
		// Paper: cardinality ranges from 47 to 72 points.
		if j.Size() < 47 || j.Size() > 72 {
			t.Errorf("job %q has %d configs, want within [47,72]", j.Name(), j.Size())
		}
		if j.Space().NumDimensions() != 3 {
			t.Errorf("job %q dimensions = %d, want 3", j.Name(), j.Space().NumDimensions())
		}
	}
}

func TestCherryPickNotAllCombinationsPresent(t *testing.T) {
	// At least one job must have a restricted space (fewer than the full 72
	// combinations), mirroring the varying cardinality of the original data.
	jobs, err := CherryPickJobs(1)
	if err != nil {
		t.Fatalf("CherryPickJobs error: %v", err)
	}
	restricted := false
	full := false
	for _, j := range jobs {
		if j.Size() < 72 {
			restricted = true
		}
		if j.Size() == 72 {
			full = true
		}
	}
	if !restricted {
		t.Error("no cherrypick job has a restricted configuration space")
	}
	if !full {
		t.Error("no cherrypick job covers the full 72-point space")
	}
}

func TestAnalyticsJobsCostReasonable(t *testing.T) {
	// Analytics jobs should show a meaningful (if smaller than Tensorflow)
	// cost spread, and the optimum should not sit at the largest cluster for
	// every job.
	jobs, err := CherryPickJobs(42)
	if err != nil {
		t.Fatalf("CherryPickJobs error: %v", err)
	}
	for _, j := range jobs {
		tmax, err := j.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
		}
		opt, err := j.Optimum(tmax)
		if err != nil {
			t.Fatalf("Optimum error: %v", err)
		}
		maxCost := 0.0
		for _, m := range j.Measurements() {
			if m.Cost > maxCost {
				maxCost = m.Cost
			}
		}
		if maxCost/opt.Cost < 2 {
			t.Errorf("job %q cost spread %.2fx too small", j.Name(), maxCost/opt.Cost)
		}
	}
}

func TestNoiseIsDeterministicAndCentered(t *testing.T) {
	if noise(1, 5, 0.1) != noise(1, 5, 0.1) {
		t.Error("noise not deterministic")
	}
	if noise(1, 5, 0.1) == noise(1, 6, 0.1) {
		t.Error("noise identical for different configs")
	}
	// Average over many configs should be close to 1.
	sum := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		sum += noise(7, i, 0.05)
	}
	mean := sum / float64(n)
	if mean < 0.97 || mean > 1.03 {
		t.Errorf("noise mean = %v, want ~1", mean)
	}
}

func TestClampTimeout(t *testing.T) {
	if v, to := clampTimeout(700, 600); v != 600 || !to {
		t.Errorf("clampTimeout(700,600) = %v,%v", v, to)
	}
	if v, to := clampTimeout(500, 600); v != 500 || to {
		t.Errorf("clampTimeout(500,600) = %v,%v", v, to)
	}
	if v, to := clampTimeout(500, 0); v != 500 || to {
		t.Errorf("clampTimeout with no timeout = %v,%v", v, to)
	}
}
