package lynceus

import (
	"os"
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

// TestFullSpaceSweepBatchCompetitive is the assertion form of the
// BenchmarkFullSpaceSweep batch-vs-scalar comparison: it measures both sweep
// paths over the 384-point Tensorflow space and fails if the batch path falls
// behind the scalar path by more than a generous regression margin.
//
// The two paths are physically near-identical since the packed-node rewrite:
// both run the same per-row traversal (accumRow), and the only work the batch
// path adds is gathering each point from the space's column-major matrix into
// a row — while the scalar loop reads the space's pre-materialized row
// storage for free. Parity (ratio ~1.0-1.15 on one core) is therefore the
// expected steady state, and the assertion exists to catch the failure mode
// this PR fixed — a batch kernel whose layout or codegen regresses it well
// past scalar (the seed had batch at 1.25x scalar and both paths ~30%
// slower in absolute terms). The 1.6x threshold leaves room for timer noise
// on loaded single-core CI boxes; the tracked BENCH.json medians are the
// precise record.
//
// Timing assertions are inherently machine-sensitive, so the test only runs
// when LYNCEUS_ASSERT_BENCH=1 is set (CI sets it on the bench runner, not on
// the -race runner).
func TestFullSpaceSweepBatchCompetitive(t *testing.T) {
	if os.Getenv("LYNCEUS_ASSERT_BENCH") != "1" {
		t.Skip("timing assertion; set LYNCEUS_ASSERT_BENCH=1 to run")
	}
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	ensemble := spaceSweepFixture(t, job, 10, 1)
	space := job.Space()
	cols := space.FeatureColumns()
	all := space.Configs()
	out := make([]numeric.Gaussian, space.Size())

	// Interleave several measurements of each path and take the per-path
	// minimum: on a busy box the minimum is the least noisy estimator of the
	// actual cost, and interleaving keeps frequency drift from biasing one
	// side.
	const rounds = 5
	batchNs, scalarNs := int64(1<<62), int64(1<<62)
	for r := 0; r < rounds; r++ {
		rb := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ensemble.PredictBatch(cols, out); err != nil {
					b.Fatalf("PredictBatch: %v", err)
				}
			}
		})
		rs := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range all {
					if _, err := ensemble.Predict(cfg.Features); err != nil {
						b.Fatalf("Predict: %v", err)
					}
				}
			}
		})
		if ns := rb.NsPerOp(); ns < batchNs {
			batchNs = ns
		}
		if ns := rs.NsPerOp(); ns < scalarNs {
			scalarNs = ns
		}
	}
	t.Logf("full-space sweep: batch %d ns/op, scalar %d ns/op (ratio %.2f)",
		batchNs, scalarNs, float64(batchNs)/float64(scalarNs))
	if float64(batchNs) > 1.6*float64(scalarNs) {
		t.Errorf("batch sweep (%d ns/op) regressed past 1.6x scalar (%d ns/op)", batchNs, scalarNs)
	}
}
