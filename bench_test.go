package lynceus

// Benchmark regeneration targets: one benchmark per table and figure of the
// paper's evaluation (README's paper map names them per artifact), plus the
// cost-model microbenchmarks scripts/bench.sh tracks. The design-choice
// ablation is an experiment, not a benchmark: `lynceus-exp -exp ablation`
// (internal/experiments/ablation.go) reports CNO/NEX per variant.
//
// The figure/table benchmarks drive the same experiment pipeline as
// cmd/lynceus-exp, scaled down to bench size (one Tensorflow job, one run per
// cell, lookahead 1, reduced Scout/CherryPick job counts) so that
// `go test -bench=.` completes in minutes. The full-scale regeneration is
// performed with:
//
//	go run ./cmd/lynceus-exp -exp <id> -runs 100
//
// All figure benchmarks share a single experiment Suite so that cells
// computed by one benchmark are reused by the others (exactly like a single
// lynceus-exp invocation); their ns/op numbers therefore measure the
// incremental work of each artifact, not independent end-to-end runs.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bagging"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

// sharedBenchSuite returns the bench-scale experiment suite shared by the
// figure/table benchmarks.
func sharedBenchSuite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Options{
			Runs:               1,
			Seed:               1,
			TensorflowJobLimit: 1,
			ScoutJobLimit:      2,
			CherryPickJobLimit: 1,
			Lookahead:          1,
			Lookaheads:         []int{0, 1},
			BudgetMultipliers:  []float64{1, 3},
			EnsembleTrees:      5,
		})
	})
	return benchSuite
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	suite := sharedBenchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(id); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// Table 1 and Table 2: static configuration tables.
func BenchmarkTable1HyperParameters(b *testing.B) { benchmarkExperiment(b, "tab1") }
func BenchmarkTable2CloudConfigs(b *testing.B)    { benchmarkExperiment(b, "tab2") }

// Figure 1a and 1b: dataset structure and disjoint-optimization analysis.
func BenchmarkFig1aCostSpread(b *testing.B) { benchmarkExperiment(b, "fig1a") }
func BenchmarkFig1bDisjoint(b *testing.B)   { benchmarkExperiment(b, "fig1b") }

// Figures 4-9: the optimizer comparison campaign.
func BenchmarkFig4TensorflowCDF(b *testing.B)   { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5ScoutCherryPick(b *testing.B) { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6Lookahead(b *testing.B)       { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7Convergence(b *testing.B)     { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8BudgetSweep(b *testing.B)     { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9Explorations(b *testing.B)    { benchmarkExperiment(b, "fig9") }

// Table 3: time to compute the next configuration. The benchmark times a
// whole optimization run on the 384-point Tensorflow space with a budget that
// leaves only a handful of post-bootstrap decisions, so ns/op tracks the
// per-decision planning cost of each optimizer (the campaign's tab3
// experiment reports the normalized per-decision seconds). These overlap
// BenchmarkPlannerLA2Tensorflow on purpose: README's paper map names them for
// Tab. 3 because they compare BO, LA=1 and LA=2 as the paper's row does, while
// the planner benchmarks time one fixed decision for the regression gate.
func benchmarkTable3(b *testing.B, opt Optimizer) {
	b.Helper()
	// Slightly more than the bootstrap cost: a few decisions only.
	benchmarkTensorflowRun(b, opt, 1.1)
}

// benchmarkTensorflowRun times whole optimization runs on the 384-point
// Tensorflow space with a budget of budgetMultiplier times the bootstrap
// cost.
func benchmarkTensorflowRun(b *testing.B, opt Optimizer, budgetMultiplier float64) {
	b.Helper()
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		b.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		b.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		b.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		b.Fatalf("ResolveBootstrapSize: %v", err)
	}
	opts := Options{
		Budget:            float64(bootstrap) * job.MeanCost() * budgetMultiplier,
		MaxRuntimeSeconds: tmax,
		Seed:              1,
	}
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		res, err := opt.Optimize(env, opts)
		if err != nil {
			b.Fatalf("Optimize: %v", err)
		}
		decisions += res.Explorations - bootstrap
	}
	if decisions > 0 {
		// The number of planning decisions a budget buys varies with the
		// optimizer's choices, so the per-decision planning time is the
		// comparable number across planner versions.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
	}
}

// The per-decision planner benchmarks (BenchmarkPlannerLA2Tensorflow,
// BenchmarkPlannerLA3Tensorflow) live in internal/core/planner_bench_test.go:
// timing whole campaigns here gave each variant b.N = 1 at default benchtime
// — a single noisy sample that made the CI bench-regression gate flaky. One
// op there is exactly one planning decision from a fixed bootstrap history,
// so b.N >= 3 and the scheduler's worker sweep (1, 2, 4, 8) is comparable
// across runs. scripts/bench.sh benches both packages.

// BenchmarkLargeSpaceDecision measures the per-decision planning time of the
// sampled search strategy as the configuration space grows: 15k, 61k and
// 246k-point large-grid spaces, all planned with the same
// 256-candidate subsample. The whole pipeline is space-size free — candidate
// selection is O(sample), model memos and batch prefills are sized by the
// candidate set, sweeps are block-wise — so ns/decision must stay roughly
// flat while the space grows 16x (the acceptance criterion of the
// candidate-provider refactor; see README "Performance").
func BenchmarkLargeSpaceDecision(b *testing.B) {
	for _, clusterSizes := range []int{32, 128, 512} {
		job, err := SyntheticLargeGridJob("large-etl", clusterSizes, 42)
		if err != nil {
			b.Fatalf("SyntheticLargeGridJob: %v", err)
		}
		b.Run(fmt.Sprintf("configs=%d", job.Space().Size()), func(b *testing.B) {
			tmax, meanCost, err := job.ApproxStats(0.5, 1024)
			if err != nil {
				b.Fatalf("ApproxStats: %v", err)
			}
			const bootstrap = 24
			opts := Options{
				Budget:            30 * meanCost,
				MaxRuntimeSeconds: tmax,
				BootstrapSize:     bootstrap,
				Seed:              1,
			}
			tuner, err := NewTuner(TunerConfig{
				Lookahead: 1,
				Search:    SearchConfig{Strategy: "sampled", SampleSize: 256},
			})
			if err != nil {
				b.Fatalf("NewTuner: %v", err)
			}
			b.ResetTimer()
			decisions := 0
			for i := 0; i < b.N; i++ {
				res, err := tuner.Optimize(job, opts)
				if err != nil {
					b.Fatalf("Optimize: %v", err)
				}
				decisions += res.Explorations - bootstrap
			}
			if decisions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
			}
		})
	}
}

// BenchmarkServesimDecision measures the per-decision planning time of an
// LA=2 incremental-refit campaign on the stochastic serving environment
// (chat profile, 384 configurations, SLO-attainment extra constraint). The
// environment simulates every profiled run, so — unlike the lookup-table
// benchmarks — each op includes genuine trial execution; the budget leaves a
// handful of post-bootstrap decisions so ns/decision still tracks planning
// cost. Fresh same-seed environments per iteration keep iterations
// identical.
func BenchmarkServesimDecision(b *testing.B) {
	probe, err := NewServingEnvironment("chat", 1)
	if err != nil {
		b.Fatalf("NewServingEnvironment: %v", err)
	}
	tmax, meanCost, err := probe.ApproxStats(0.7, 96)
	if err != nil {
		b.Fatalf("ApproxStats: %v", err)
	}
	const bootstrap = 16
	opts := Options{
		Budget:            bootstrap * meanCost * 1.5,
		MaxRuntimeSeconds: tmax,
		BootstrapSize:     bootstrap,
		Seed:              1,
		ExtraConstraints:  []Constraint{probe.Constraint()},
	}
	tuner, err := NewTuner(TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"})
	if err != nil {
		b.Fatalf("NewTuner: %v", err)
	}
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		env, err := NewServingEnvironment("chat", 1)
		if err != nil {
			b.Fatalf("NewServingEnvironment: %v", err)
		}
		res, err := tuner.Optimize(env, opts)
		if err != nil {
			b.Fatalf("Optimize: %v", err)
		}
		decisions += res.Explorations - bootstrap
	}
	if decisions > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
	}
}

func BenchmarkTable3NextConfigBO(b *testing.B) {
	benchmarkTable3(b, NewBOBaseline())
}

func BenchmarkTable3NextConfigLynceusLA1(b *testing.B) {
	lyn, err := NewTuner(TunerConfig{Lookahead: 1})
	if err != nil {
		b.Fatalf("NewTuner: %v", err)
	}
	benchmarkTable3(b, lyn)
}

func BenchmarkTable3NextConfigLynceusLA2(b *testing.B) {
	lyn, err := NewTuner(TunerConfig{Lookahead: 2})
	if err != nil {
		b.Fatalf("NewTuner: %v", err)
	}
	benchmarkTable3(b, lyn)
}

// ensembleSweepFixture builds the cost-model microbenchmark fixture: a
// 40-sample training set spread over the 384-point Tensorflow space.
func ensembleSweepFixture(b *testing.B) (*Space, [][]float64, []float64) {
	b.Helper()
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		b.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	space := job.Space()
	features := make([][]float64, 0, 40)
	costs := make([]float64, 0, 40)
	for id := 0; id < 40; id++ {
		cfg, err := space.Config(id * 7 % space.Size())
		if err != nil {
			b.Fatalf("Config: %v", err)
		}
		m, err := job.Measurement(cfg.ID)
		if err != nil {
			b.Fatalf("Measurement: %v", err)
		}
		features = append(features, cfg.Features)
		costs = append(costs, m.Cost)
	}
	return space, features, costs
}

// BenchmarkEnsembleFitPredict measures the cost model alone: one fit plus a
// full-space prediction sweep, the inner loop of every planning step. The
// sweep runs through PredictBatch over the space's cached column-major
// feature matrix — exactly what the planner's prefill does per refit. One
// op runs before the timer, so the buffers a first fit grows are not charged
// to a short run's ops.
func BenchmarkEnsembleFitPredict(b *testing.B) {
	space, features, costs := ensembleSweepFixture(b)
	ensemble := bagging.New(bagging.Params{NumTrees: 10}, 1)
	cols := space.FeatureColumns()
	out := make([]numeric.Gaussian, space.Size())
	op := func() {
		if err := ensemble.Fit(features, costs); err != nil {
			b.Fatalf("Fit: %v", err)
		}
		if err := ensemble.PredictBatch(cols, out); err != nil {
			b.Fatalf("PredictBatch: %v", err)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkFullSpaceSweep isolates the prediction sweep from the fit: one
// batched prediction of the whole 384-point Tensorflow space per iteration,
// gathering each row from the column-major matrix on the fly — the sweep
// behind every prefill of a regressor without memo repair, the baselines'
// block sweeps and lynbench's model.predict_batch_us_p50. (It used to carry a
// scalar twin, one Predict call per configuration; no caller sweeps that way
// since the scalar planner path went.)
func BenchmarkFullSpaceSweep(b *testing.B) {
	space, features, costs := ensembleSweepFixture(b)
	ensemble := bagging.New(bagging.Params{NumTrees: 10}, 1)
	if err := ensemble.Fit(features, costs); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	cols := space.FeatureColumns()
	out := make([]numeric.Gaussian, space.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ensemble.PredictBatch(cols, out); err != nil {
			b.Fatalf("PredictBatch: %v", err)
		}
	}
}

// BenchmarkEnsembleRefitIncremental measures the whole-copy unit of the
// incremental mode: cloning a warm fitted ensemble into a reusable
// destination and folding one sample in with Update. The planner pays it once
// per (worker, decision) — it used to pay it per speculated outcome — and
// lynbench's model.clone_update_us_p50 probes the same calls. One op runs
// before the timer, so the clone's storage is grown before it is measured.
func BenchmarkEnsembleRefitIncremental(b *testing.B) {
	space, features, costs := ensembleSweepFixture(b)
	ensemble := bagging.New(bagging.Params{NumTrees: 10, Incremental: true}, 1)
	if err := ensemble.Fit(features, costs); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	cfg, err := space.Config(space.Size() / 2)
	if err != nil {
		b.Fatalf("Config: %v", err)
	}
	clone := bagging.New(bagging.Params{NumTrees: 10, Incremental: true}, 2)
	op := func() {
		if err := ensemble.CloneInto(clone); err != nil {
			b.Fatalf("CloneInto: %v", err)
		}
		if err := clone.Update(cfg.Features, costs[0]); err != nil {
			b.Fatalf("Update: %v", err)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkEnsembleSpeculateOutcome measures the per-outcome unit of the
// lookahead simulation as the planner now runs it: on a working model whose
// memo is prefilled over the 384-point space, fold one speculated sample in,
// repair the memo entries it moved, and take both back (model.Cached Update
// then Undo). Allocation-free once warm — the zero baseline is a ratchet —
// so every outcome the loop cycles through is applied once before the timer.
func BenchmarkEnsembleSpeculateOutcome(b *testing.B) {
	space, features, costs := ensembleSweepFixture(b)
	work := model.NewCached(bagging.New(bagging.Params{NumTrees: 10, Incremental: true}, 1), space.Size())
	if err := work.Fit(features, costs); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	if err := work.Prefill(space.FeatureColumns()); err != nil {
		b.Fatalf("Prefill: %v", err)
	}
	cfg, err := space.Config(space.Size() / 2)
	if err != nil {
		b.Fatalf("Config: %v", err)
	}
	op := func(cost float64) {
		if err := work.Update(cfg.Features, cost); err != nil {
			b.Fatalf("Update: %v", err)
		}
		if err := work.Undo(); err != nil {
			b.Fatalf("Undo: %v", err)
		}
	}
	for _, cost := range costs {
		op(cost)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(costs[i%len(costs)])
	}
}
