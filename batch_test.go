package lynceus

import (
	"testing"

	"repro/internal/bagging"
	"repro/internal/numeric"
)

// spaceSweepFixture fits a bagging ensemble on a spread-out subset of a
// profiled job's measurements, mirroring what every planning decision does.
func spaceSweepFixture(t *testing.T, job *Job, trees int, seed int64) *bagging.Ensemble {
	t.Helper()
	space := job.Space()
	features := make([][]float64, 0, 40)
	costs := make([]float64, 0, 40)
	for i := 0; i < 40; i++ {
		cfg, err := space.Config(i * 7 % space.Size())
		if err != nil {
			t.Fatalf("Config: %v", err)
		}
		m, err := job.Measurement(cfg.ID)
		if err != nil {
			t.Fatalf("Measurement: %v", err)
		}
		features = append(features, cfg.Features)
		costs = append(costs, m.Cost)
	}
	ensemble := bagging.New(bagging.Params{NumTrees: trees}, seed)
	if err := ensemble.Fit(features, costs); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return ensemble
}

// TestFullSpaceSweepBatchScalarEquivalence checks the batch determinism
// contract on the paper's real configuration spaces: sweeping the 384-point
// Tensorflow space and a 72-point Scout space through PredictBatch over the
// space's cached column-major feature matrix must produce Gaussians bitwise
// identical to one scalar Predict call per configuration, across seeds and
// ensemble sizes.
func TestFullSpaceSweepBatchScalarEquivalence(t *testing.T) {
	tfJob, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	scoutJobs, err := SyntheticScoutJobs(42)
	if err != nil {
		t.Fatalf("SyntheticScoutJobs: %v", err)
	}
	jobs := []*Job{tfJob, scoutJobs[0]}

	for _, job := range jobs {
		space := job.Space()
		cols := space.FeatureColumns()
		for _, trees := range []int{5, 10, 20} {
			for seed := int64(1); seed <= 3; seed++ {
				ensemble := spaceSweepFixture(t, job, trees, seed)
				out := make([]numeric.Gaussian, space.Size())
				if err := ensemble.PredictBatch(cols, out); err != nil {
					t.Fatalf("%s trees=%d seed=%d: PredictBatch: %v", job.Name(), trees, seed, err)
				}
				for _, cfg := range space.Configs() {
					want, err := ensemble.Predict(cfg.Features)
					if err != nil {
						t.Fatalf("%s trees=%d seed=%d: Predict: %v", job.Name(), trees, seed, err)
					}
					if out[cfg.ID] != want {
						t.Fatalf("%s trees=%d seed=%d config %d: batch %+v != scalar %+v",
							job.Name(), trees, seed, cfg.ID, out[cfg.ID], want)
					}
				}
			}
		}
	}
}
