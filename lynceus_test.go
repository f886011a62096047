package lynceus

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// smallJob builds a small profiled job through the public API only.
func smallJob(t *testing.T) *Job {
	t.Helper()
	space, err := NewSpace([]Dimension{
		{Name: "param", Values: []float64{0, 1, 2, 3}},
		{Name: "cluster", Values: []float64{1, 2, 4, 8}},
	}, nil)
	if err != nil {
		t.Fatalf("NewSpace error: %v", err)
	}
	measurements := make([]Measurement, space.Size())
	energy := make([]float64, space.Size())
	for _, cfg := range space.Configs() {
		param := cfg.Features[0]
		cluster := cfg.Features[1]
		runtime := 2400 * (1 + 2.5*math.Abs(param-1)) / math.Pow(cluster, 0.8)
		price := 0.2 * cluster
		measurements[cfg.ID] = Measurement{
			ConfigID:         cfg.ID,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: price,
			Cost:             runtime / 3600 * price,
		}
		energy[cfg.ID] = runtime * cluster / 100
	}
	job, err := NewJob("public-api-fixture", space, measurements, 0, map[string][]float64{"energy": energy})
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	return job
}

func TestPublicAPITuneEndToEnd(t *testing.T) {
	job := smallJob(t)
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.6)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	opts := Options{Budget: 10 * job.MeanCost(), MaxRuntimeSeconds: tmax, Seed: 1}

	tuner, err := NewTuner(TunerConfig{Lookahead: 1, EnsembleTrees: 5, Workers: 2})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	res, err := tuner.Optimize(env, opts)
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if !res.RecommendedFeasible {
		t.Error("recommendation not feasible")
	}
	optimum, err := job.Optimum(tmax)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}
	if cno := res.Recommended.Cost / optimum.Cost; cno > 2 {
		t.Errorf("CNO = %v", cno)
	}
}

func TestNewTunerVariants(t *testing.T) {
	defaultTuner, err := NewTuner(TunerConfig{})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	if defaultTuner.Name() != "lynceus-la2" {
		t.Errorf("default tuner = %q, want lynceus-la2", defaultTuner.Name())
	}
	myopic, err := NewTuner(TunerConfig{Myopic: true})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	if myopic.Name() != "lynceus-la0" {
		t.Errorf("myopic tuner = %q, want lynceus-la0", myopic.Name())
	}
	if _, err := NewTuner(TunerConfig{Lookahead: -1}); err == nil {
		t.Error("negative lookahead should error")
	}
}

// leafFields lists the dotted paths of the leaf (non-struct) fields of a
// struct type.
func leafFields(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, prefix+f.Name+".")...)
		} else {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// TestNewCoreTunerConsumesEveryTunerConfigField is the facade half of the
// fingerprint guard: every leaf field of TunerConfig, set alone to a valid
// non-default value, must change the core.Params newCoreTuner builds. A field
// added to TunerConfig but not wired through fails here instead of being
// silently ignored.
func TestNewCoreTunerConsumesEveryTunerConfigField(t *testing.T) {
	samples := map[string]func(*TunerConfig){
		"Lookahead":         func(c *TunerConfig) { c.Lookahead = 3 },
		"Myopic":            func(c *TunerConfig) { c.Myopic = true },
		"Discount":          func(c *TunerConfig) { c.Discount = 0.5 },
		"GHOrder":           func(c *TunerConfig) { c.GHOrder = 5 },
		"EnsembleTrees":     func(c *TunerConfig) { c.EnsembleTrees = 7 },
		"CostModel":         func(c *TunerConfig) { c.CostModel = "gp" },
		"Workers":           func(c *TunerConfig) { c.Workers = runtime.GOMAXPROCS(0) + 1 },
		"Search.Strategy":   func(c *TunerConfig) { c.Search.Strategy = "exhaustive" },
		"Search.SampleSize": func(c *TunerConfig) { c.Search.SampleSize = 16 },
		"SpeculativeRefit":  func(c *TunerConfig) { c.SpeculativeRefit = "full" },
	}
	base, err := newCoreTuner(TunerConfig{})
	if err != nil {
		t.Fatalf("newCoreTuner: %v", err)
	}
	for _, path := range leafFields(reflect.TypeOf(TunerConfig{}), "") {
		set, ok := samples[path]
		if !ok {
			t.Errorf("TunerConfig.%s has no sample value here; add one and consume the field in newCoreTuner", path)
			continue
		}
		var cfg TunerConfig
		set(&cfg)
		tuner, err := newCoreTuner(cfg)
		if err != nil {
			t.Errorf("TunerConfig.%s: newCoreTuner: %v", path, err)
			continue
		}
		if reflect.DeepEqual(tuner.Params(), base.Params()) {
			t.Errorf("TunerConfig.%s is not consumed by newCoreTuner: core.Params unchanged", path)
		}
	}
}

func TestNewTunerCostModels(t *testing.T) {
	if _, err := NewTuner(TunerConfig{CostModel: "forest"}); err == nil {
		t.Error("unknown cost model should error")
	}
	gpTuner, err := NewTuner(TunerConfig{Lookahead: 1, CostModel: "gp", Workers: 2})
	if err != nil {
		t.Fatalf("NewTuner(gp) error: %v", err)
	}
	job := smallJob(t)
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.6)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	res, err := gpTuner.Optimize(env, Options{Budget: 8 * job.MeanCost(), MaxRuntimeSeconds: tmax, Seed: 4})
	if err != nil {
		t.Fatalf("Optimize with GP model error: %v", err)
	}
	if res.Explorations < 2 {
		t.Errorf("explorations = %d", res.Explorations)
	}
}

func TestBaselineConstructors(t *testing.T) {
	bo := NewBOBaseline()
	if bo.Name() != "bo" {
		t.Errorf("bo name = %q", bo.Name())
	}
	if NewRandomBaseline().Name() != "rnd" {
		t.Error("rnd baseline name mismatch")
	}
}

func TestTuneConvenienceFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-default tuner is slower; skipped in -short mode")
	}
	job := smallJob(t)
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.6)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	res, err := Tune(env, Options{Budget: 6 * job.MeanCost(), MaxRuntimeSeconds: tmax, Seed: 2})
	if err != nil {
		t.Fatalf("Tune error: %v", err)
	}
	if res.Explorations < 2 {
		t.Errorf("explorations = %d", res.Explorations)
	}
}

func TestEvaluateThroughPublicAPI(t *testing.T) {
	job := smallJob(t)
	res, err := Evaluate(NewRandomBaseline(), EvaluationConfig{Job: job, Runs: 3, BaseSeed: 5})
	if err != nil {
		t.Fatalf("Evaluate error: %v", err)
	}
	if len(res.Runs) != 3 {
		t.Errorf("runs = %d", len(res.Runs))
	}
}

func TestJobCSVRoundTripThroughPublicAPI(t *testing.T) {
	job := smallJob(t)
	var buf bytes.Buffer
	if err := WriteJobCSV(&buf, job); err != nil {
		t.Fatalf("WriteJobCSV error: %v", err)
	}
	parsed, err := ReadJobCSV(&buf)
	if err != nil {
		t.Fatalf("ReadJobCSV error: %v", err)
	}
	if parsed.Size() != job.Size() || parsed.Name() != job.Name() {
		t.Errorf("round trip mismatch: %d/%q", parsed.Size(), parsed.Name())
	}
}

func TestSyntheticGeneratorsThroughPublicAPI(t *testing.T) {
	tf, err := SyntheticTensorflowJobs(7)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJobs error: %v", err)
	}
	if len(tf) != 3 {
		t.Errorf("tensorflow jobs = %d", len(tf))
	}
	cnn, err := SyntheticTensorflowJob("cnn", 7)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJob error: %v", err)
	}
	if cnn.Size() != 384 {
		t.Errorf("cnn size = %d", cnn.Size())
	}
	if _, err := SyntheticTensorflowJob("vgg", 7); err == nil {
		t.Error("unknown tensorflow job should error")
	}
	scout, err := SyntheticScoutJobs(7)
	if err != nil {
		t.Fatalf("SyntheticScoutJobs error: %v", err)
	}
	if len(scout) != 18 {
		t.Errorf("scout jobs = %d", len(scout))
	}
	sortJob, err := SyntheticScoutJob("hibench-sort", 7)
	if err != nil {
		t.Fatalf("SyntheticScoutJob error: %v", err)
	}
	if got, want := sortJob.Measurements(), scout[1].Measurements(); scout[1].Name() != "hibench-sort" || !reflect.DeepEqual(got, want) {
		t.Errorf("SyntheticScoutJob(hibench-sort) differs from SyntheticScoutJobs' %s", scout[1].Name())
	}
	if _, err := SyntheticScoutJob("hibench-nope", 7); err == nil {
		t.Error("unknown scout job should error")
	}
	cherry, err := SyntheticCherryPickJobs(7)
	if err != nil {
		t.Fatalf("SyntheticCherryPickJobs error: %v", err)
	}
	if len(cherry) != 5 {
		t.Errorf("cherrypick jobs = %d", len(cherry))
	}
	if EnergyMetric == "" {
		t.Error("EnergyMetric is empty")
	}
}

func TestMultiConstraintThroughPublicAPI(t *testing.T) {
	job := smallJob(t)
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.6)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	tuner, err := NewTuner(TunerConfig{Lookahead: 1, EnsembleTrees: 5, Workers: 2})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	res, err := tuner.Optimize(env, Options{
		Budget:            8 * job.MeanCost(),
		MaxRuntimeSeconds: tmax,
		Seed:              3,
		ExtraConstraints:  []Constraint{{Metric: "energy", Max: 40}},
	})
	if err != nil {
		t.Fatalf("Optimize error: %v", err)
	}
	if res.RecommendedFeasible && res.Recommended.Extra["energy"] > 40 {
		t.Errorf("recommendation violates the energy constraint: %v", res.Recommended.Extra["energy"])
	}
}

// TestSetupCostStaysWithinBudget pins the eligibility test to what the runner
// charges: a trial's predicted cost plus the setup cost of switching to it
// must fit the remaining budget. Testing the trial cost alone let these two
// campaigns (a 0.20 $ fee per VM family/size switch) overspend their 5.81 $
// budget at 5.97 $ and 5.99 $.
func TestSetupCostStaysWithinBudget(t *testing.T) {
	job, err := SyntheticScoutJob("hibench-sort", 42)
	if err != nil {
		t.Fatalf("SyntheticScoutJob error: %v", err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment error: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	tuner, err := NewTuner(TunerConfig{Lookahead: 1})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	for _, seed := range []int64{2, 3} {
		res, err := tuner.Optimize(env, Options{
			Budget:            9 * job.MeanCost(),
			MaxRuntimeSeconds: tmax,
			Seed:              seed,
			SetupCost: func(from *Config, to Config) float64 {
				if from != nil && from.Indices[0] == to.Indices[0] && from.Indices[1] == to.Indices[1] {
					return 0
				}
				return 0.20
			},
		})
		if err != nil {
			t.Fatalf("seed %d: Optimize error: %v", seed, err)
		}
		if res.SpentBudget > res.InitialBudget {
			t.Errorf("seed %d: spent %.4f$ of a %.4f$ budget", seed, res.SpentBudget, res.InitialBudget)
		}
	}
}

// TestEvaluateWorkerCountDeterminism verifies that parallelizing a
// multi-seed evaluation campaign across runs does not change any per-run
// metric: run i always uses seed BaseSeed+i and lands at index i.
func TestEvaluateWorkerCountDeterminism(t *testing.T) {
	job := smallJob(t)
	tuner, err := NewTuner(TunerConfig{Lookahead: 1, EnsembleTrees: 5})
	if err != nil {
		t.Fatalf("NewTuner error: %v", err)
	}
	serial, err := Evaluate(tuner, EvaluationConfig{Job: job, Runs: 4, BaseSeed: 5})
	if err != nil {
		t.Fatalf("Evaluate(serial) error: %v", err)
	}
	parallel, err := Evaluate(tuner, EvaluationConfig{Job: job, Runs: 4, BaseSeed: 5, Workers: 4})
	if err != nil {
		t.Fatalf("Evaluate(parallel) error: %v", err)
	}
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(parallel.Runs))
	}
	for i := range serial.Runs {
		a, b := serial.Runs[i], parallel.Runs[i]
		if a.Seed != b.Seed || a.CNO != b.CNO || a.Explorations != b.Explorations || a.SpentBudget != b.SpentBudget {
			t.Errorf("run %d differs between worker counts: %+v vs %+v", i, a, b)
		}
	}
}
