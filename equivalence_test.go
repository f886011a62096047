package lynceus

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/servesim"
)

// This file holds the repository's one campaign-equivalence harness: a
// fixture table (one row per campaign) crossed with a relation table (one row
// per way of running a campaign). Every cell must reproduce the fixture's
// isolated workers=1 run bitwise — the three invariants of the determinism
// contract (workers 1 ≡ N, kill/resume ≡ uninterrupted, shared ≡ isolated)
// as one comparison. Other root tests that need one of these campaigns draw
// it from the fixture table too.

// fixture is one campaign: a tuner configuration and how to build its inputs.
type fixture struct {
	name string
	cfg  TunerConfig
	// incremental records that the planner's default refit resolves to
	// "incremental" on this campaign ("full" otherwise).
	incremental bool
	seed        int64
	// build returns a fresh fault-free environment and the options of the
	// campaign at the given seed.
	build func(t testing.TB, seed int64) (Environment, Options)
	// faults, when set, puts every environment of the fixture behind a fault
	// injector and makes its campaigns retry three times, then quarantine.
	faults *FaultParams
	// sweep makes the full matrix resume from every boundary; resume@k
	// samples four otherwise.
	sweep bool
	// relations names the cells of the full matrix on this fixture; short is
	// the one cell -short runs.
	relations string
	short     string
}

var fixtures = []fixture{
	// The four golden campaigns (testdata/golden_*.json).
	{name: "tensorflow384-la1", cfg: TunerConfig{Lookahead: 1}, seed: 7, build: lookupTable(tensorflowCNN, 1.3),
		relations: "reuse workers=8 cancel@k crash@k", short: "reuse"},
	{name: "tensorflow384-la2", cfg: TunerConfig{Lookahead: 2}, seed: 7, build: lookupTable(tensorflowCNN, 1.3),
		relations: "rerun workers=2 workers=4 batch", short: "workers=2"},
	{name: "scout72-la1", cfg: TunerConfig{Lookahead: 1}, seed: 7, build: lookupTable(scout0, 4),
		relations: "reuse workers=8 batch cancel@k resume-shared@k", short: "cancel@k"},
	{name: "scout72-la2", cfg: TunerConfig{Lookahead: 2}, seed: 7, build: lookupTable(scout0, 4),
		sweep: true, relations: "workers=8 shared resume@k", short: "resume@k"},

	{name: "tensorflow384-la2-incremental", cfg: TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}, incremental: true,
		seed: 7, build: lookupTable(tensorflowCNN, 1.3), sweep: true,
		relations: "workers=4 batch shared resume@k resume-shared@k cancel@k crash@k", short: "batch"},
	{name: "scout72-la3", cfg: TunerConfig{Lookahead: 3}, incremental: true, seed: 7, build: lookupTable(scout0, 2),
		relations: "workers=2 workers=4 workers=8 shared", short: "workers=8"},
	{name: "scout72-la2-faults", cfg: TunerConfig{Lookahead: 2}, seed: 7, build: lookupTable(scout0, 4),
		faults:    &FaultParams{Seed: 7, TransientRate: 0.15, FailedCostFraction: 0.25},
		relations: "rerun workers=4 shared resume@k crash@k", short: "crash@k"},
	{name: "largegrid15k-sampled-la1", cfg: TunerConfig{Lookahead: 1, Search: SearchConfig{Strategy: "sampled", SampleSize: 96}},
		seed: 11, build: largeGrid(32, 20),
		relations: "rerun workers=4 workers=8", short: "workers=4"},
	{name: "largegrid15k-sampled-la2-incremental", incremental: true,
		cfg:  TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental", Search: SearchConfig{Strategy: "sampled", SampleSize: 96}},
		seed: 11, build: largeGrid(32, 22),
		relations: "rerun workers=2 workers=8 resume@k shared", short: "shared"},
	{name: "servesim-batch-la2-incremental", cfg: TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}, incremental: true,
		seed: 1, build: servesimBatch,
		relations: "rerun reuse workers=8 resume@k shared", short: "rerun"},
	{name: "scout72-gp-la1", cfg: TunerConfig{Lookahead: 1, CostModel: "gp"}, seed: 7, build: lookupTable(scout0, 4),
		relations: "reuse rerun workers=2 resume-shared@k", short: "resume-shared@k"},
}

func fixtureNamed(t testing.TB, name string) fixture {
	t.Helper()
	for _, f := range fixtures {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no fixture %q", name)
	return fixture{}
}

// inputs returns fresh inputs of the fixture's campaign at seed, behind the
// fixture's fault injector when it has one.
func (f fixture) inputs(t testing.TB, seed int64) (Environment, Options) {
	if f.faults == nil {
		return f.build(t, seed)
	}
	return f.injected(t, seed, *f.faults)
}

// injected returns the campaign's inputs behind a fault injector with params
// p. Injecting nothing (the zero FaultParams plus a crash point) leaves a
// fault-free campaign's trials unchanged up to the crash.
func (f fixture) injected(t testing.TB, seed int64, p FaultParams) (Environment, Options) {
	t.Helper()
	env, opts := f.build(t, seed)
	faulty, err := NewFaultyEnvironment(env, p)
	if err != nil {
		t.Fatalf("NewFaultyEnvironment: %v", err)
	}
	if f.faults != nil {
		opts.Retry = RetryPolicy{MaxAttempts: 3, Quarantine: true}
	}
	return faulty, opts
}

// workers returns the fixture's tuner configuration at the given worker count.
func (f fixture) workers(n int) TunerConfig {
	cfg := f.cfg
	cfg.Workers = n
	return cfg
}

func tensorflowCNN() (*Job, error) { return SyntheticTensorflowJob("cnn", 42) }

func scout0() (*Job, error) {
	jobs, err := SyntheticScoutJobs(42)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// lookupTable sizes a campaign on a profiled job like the golden campaigns: a
// runtime constraint half the space meets and a budget of multiplier times
// the bootstrap's mean cost.
func lookupTable(job func() (*Job, error), multiplier float64) func(testing.TB, int64) (Environment, Options) {
	return func(t testing.TB, seed int64) (Environment, Options) {
		t.Helper()
		j, err := job()
		if err != nil {
			t.Fatalf("building job: %v", err)
		}
		env, err := NewJobEnvironment(j)
		if err != nil {
			t.Fatalf("NewJobEnvironment: %v", err)
		}
		tmax, err := j.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			t.Fatalf("RuntimeForFeasibleFraction: %v", err)
		}
		bootstrap, err := optimizer.ResolveBootstrapSize(j.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
		if err != nil {
			t.Fatalf("ResolveBootstrapSize: %v", err)
		}
		return env, Options{Budget: float64(bootstrap) * j.MeanCost() * multiplier, MaxRuntimeSeconds: tmax, Seed: seed}
	}
}

// largeGrid sizes a campaign on the large-etl workload with 480 ×
// clusterSizes configurations from a deterministic sample of the space.
func largeGrid(clusterSizes int, budgetRuns float64) func(testing.TB, int64) (Environment, Options) {
	return func(t testing.TB, seed int64) (Environment, Options) {
		return largeGridFixture(t, clusterSizes, budgetRuns, seed)
	}
}

// servesimSpace is the serving campaigns' configuration space: the batch
// profile over a 144-point reduction of the default space (4 replica counts
// x 4 instance types x 3 max-batches x 3 policies).
var servesimSpace = servesim.SpaceParams{
	Replicas:   []int{1, 2, 3, 4},
	MaxBatches: []int{4, 8, 16},
}

// servesimStats memoizes the serving space's makespan quantile and mean run
// cost: both come from the scenario's ground truth, which no environment seed
// enters.
var servesimStats struct {
	once           sync.Once
	tmax, meanCost float64
	err            error
}

// servesimBatch sizes a campaign on the stochastic serving environment, env
// and campaign seeded alike, under its SLO constraint.
func servesimBatch(t testing.TB, seed int64) (Environment, Options) {
	t.Helper()
	scenario, err := servesim.ProfileScenario("batch")
	if err != nil {
		t.Fatalf("ProfileScenario: %v", err)
	}
	env, err := servesim.NewEnv(scenario, servesimSpace, seed)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	stats := &servesimStats
	stats.once.Do(func() { stats.tmax, stats.meanCost, stats.err = env.ApproxStats(0.7, 96) })
	if stats.err != nil {
		t.Fatalf("ApproxStats: %v", stats.err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(env.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		t.Fatalf("ResolveBootstrapSize: %v", err)
	}
	return env, Options{
		Budget:            float64(bootstrap) * stats.meanCost * 2,
		MaxRuntimeSeconds: stats.tmax,
		Seed:              seed,
		ExtraConstraints:  []Constraint{env.Constraint()},
	}
}

// trace is a campaign's canonical outcome, one "field = value" line each:
// every TrialResult field of every trial (floats by bits), the
// recommendation, RecommendedFeasible and SpentBudget, then — when the
// campaign ran as a *Tuner — its quarantine set and finish reason.
type trace struct {
	result, tuner []string
}

func traceOfResult(res Result) trace {
	var lines []string
	for i, tr := range res.Trials {
		lines = appendTrial(lines, fmt.Sprintf("trial %d", i), tr)
	}
	lines = appendTrial(lines, "recommended", res.Recommended)
	lines = append(lines,
		fmt.Sprintf("RecommendedFeasible = %v", res.RecommendedFeasible),
		"SpentBudget = "+bits(res.SpentBudget))
	return trace{result: lines}
}

func appendTrial(lines []string, label string, tr Trial) []string {
	field := func(name, value string) { lines = append(lines, label+" "+name+" = "+value) }
	field("Config.ID", fmt.Sprint(tr.Config.ID))
	field("Config.Indices", fmt.Sprint(tr.Config.Indices))
	for i, v := range tr.Config.Features {
		field(fmt.Sprintf("Config.Features[%d]", i), bits(v))
	}
	field("RuntimeSeconds", bits(tr.RuntimeSeconds))
	field("UnitPricePerHour", bits(tr.UnitPricePerHour))
	field("Cost", bits(tr.Cost))
	field("TimedOut", fmt.Sprint(tr.TimedOut))
	for _, k := range slices.Sorted(maps.Keys(tr.Extra)) {
		field(fmt.Sprintf("Extra[%q]", k), bits(tr.Extra[k]))
	}
	return lines
}

func bits(v float64) string { return fmt.Sprintf("%#016x (%g)", math.Float64bits(v), v) }

func traceOfTuner(t testing.TB, tuner *Tuner) trace {
	t.Helper()
	res, err := tuner.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	tr := traceOfResult(res)
	finish := "running"
	switch reason := tuner.FinishReason(); {
	case errors.Is(reason, ErrBudgetExhausted):
		finish = "ErrBudgetExhausted"
	case errors.Is(reason, ErrSpaceExhausted):
		finish = "ErrSpaceExhausted"
	case reason != nil:
		finish = reason.Error()
	}
	tr.tuner = []string{fmt.Sprintf("QuarantinedIDs = %v", tuner.QuarantinedIDs()), "FinishReason = " + finish}
	return tr
}

// sameTrace fails the test at the first line where got departs from want;
// want's tuner lines count only when got ran as a *Tuner too.
func sameTrace(t testing.TB, label string, got, want trace) {
	t.Helper()
	g := slices.Concat(got.result, got.tuner)
	w := want.result
	if got.tuner != nil {
		w = slices.Concat(w, want.tuner)
	}
	for i := 0; i < max(len(g), len(w)); i++ {
		gl, wl := "(end of trace)", "(end of trace)"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: first divergence from the isolated workers=1 run:\n got %s\nwant %s",
				strings.TrimSpace(t.Name()+" "+label), gl, wl)
		}
	}
}

// runTuner steps a tuner to completion and returns its trace.
func runTuner(t testing.TB, tuner *Tuner) trace {
	t.Helper()
	if _, err := tuner.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return traceOfTuner(t, tuner)
}

func startTuner(t testing.TB, cfg TunerConfig, env Environment, opts Options, g *ShareGroup) *Tuner {
	t.Helper()
	tuner, err := StartTunerShared(cfg, env, opts, g)
	if err != nil {
		t.Fatalf("StartTuner: %v", err)
	}
	return tuner
}

// cell is the harness state of one fixture: its reference run and the
// isolated runs of its variants.
type cell struct {
	f fixture
	// ref is the isolated workers=1 trace, of trials trials; runs is how many
	// Run calls its environment served, failed attempts included.
	ref          trace
	trials, runs int
	variants     map[variant]trace
}

// variant is the fixture at another seed or budget.
type variant struct {
	seed  int64
	scale float64
}

// otherSeed offsets a fixture's seed to the campaign the sharing relations
// run beside it.
const otherSeed = 12

// isolated runs the fixture at seed and budget × scale alone on one worker.
func (c *cell) isolated(t testing.TB, v variant) trace {
	t.Helper()
	if tr, ok := c.variants[v]; ok {
		return tr
	}
	env, opts := c.f.inputs(t, v.seed)
	opts.Budget *= v.scale
	tr := runTuner(t, startTuner(t, c.f.workers(1), env, opts, nil))
	c.variants[v] = tr
	return tr
}

// stepTo steps a tuner until it has recorded n trials and returns its
// snapshot there.
func stepTo(t testing.TB, tuner *Tuner, n int) []byte {
	t.Helper()
	for len(tuner.Trials()) < n {
		if done, err := tuner.Step(); err != nil || done {
			t.Fatalf("Step at %d trials: done=%v err=%v", len(tuner.Trials()), done, err)
		}
	}
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// snapshotsAlong steps a tuner to completion and returns the snapshot taken
// before every step, the last one at completion.
func snapshotsAlong(t testing.TB, tuner *Tuner) [][]byte {
	t.Helper()
	var snaps [][]byte
	for {
		snap, err := tuner.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at boundary %d: %v", len(snaps), err)
		}
		snaps = append(snaps, snap)
		done, err := tuner.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			return snaps
		}
	}
}

// boundaries picks the resume points of an n-boundary campaign: all of them
// on a swept fixture, else the first step, a third and two thirds in, and
// the end.
func boundaries(f fixture, n int) []int {
	if f.sweep && !testing.Short() {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	return slices.Compact([]int{1, n / 3, 2 * n / 3, n - 1})
}

// relation is one way of running a fixture's campaign.
type relation struct {
	name string
	run  func(t *testing.T, c *cell)
}

// rerunOn runs the fixture again, alone, on a fresh environment and tuner
// with n workers.
func rerunOn(name string, n int) relation {
	return relation{name, func(t *testing.T, c *cell) {
		env, opts := c.f.inputs(t, c.f.seed)
		sameTrace(t, "", runTuner(t, startTuner(t, c.f.workers(n), env, opts, nil)), c.ref)
	}}
}

var relations = []relation{
	rerunOn("rerun", 1),
	// reuse runs two campaigns through one Optimizer value.
	{"reuse", func(t *testing.T, c *cell) {
		tuner, err := NewTuner(c.f.workers(1))
		if err != nil {
			t.Fatalf("NewTuner: %v", err)
		}
		for run := 1; run <= 2; run++ {
			env, opts := c.f.inputs(t, c.f.seed)
			res, err := tuner.Optimize(env, opts)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			sameTrace(t, fmt.Sprintf("run %d", run), traceOfResult(res), c.ref)
		}
	}},
	rerunOn("workers=2", 2),
	rerunOn("workers=4", 4),
	rerunOn("workers=8", 8),
	// batch runs three replicas share-nothing through one MultiRunner, each
	// planning on four workers.
	{"batch", func(t *testing.T, c *cell) {
		runner := NewMultiRunner(MultiRunnerConfig{Concurrency: 3, DisableSharing: true})
		for i := 0; i < 3; i++ {
			env, opts := c.f.inputs(t, c.f.seed)
			if err := runner.Add(fmt.Sprintf("replica-%d", i), c.f.workers(4), env, opts); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		summary, err := runner.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, r := range summary.Results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
			sameTrace(t, r.Name, traceOfResult(r.Result), c.ref)
		}
	}},
	// shared runs two replicas, the fixture at another seed and the fixture
	// at 0.6× its budget through one share group.
	{"shared", func(t *testing.T, c *cell) {
		members := []struct {
			name string
			variant
		}{{"replica-a", variant{c.f.seed, 1}}, {"replica-b", variant{c.f.seed, 1}},
			{"other-seed", variant{c.f.seed + otherSeed, 1}}, {"tight-budget", variant{c.f.seed, 0.6}}}
		runner := NewMultiRunner(MultiRunnerConfig{Concurrency: len(members)})
		for _, m := range members {
			env, opts := c.f.inputs(t, m.seed)
			opts.Budget *= m.scale
			if err := runner.Add(m.name, c.f.workers(2), env, opts); err != nil {
				t.Fatalf("Add(%s): %v", m.name, err)
			}
		}
		summary, err := runner.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(summary.Results) != len(members) {
			t.Fatalf("%d results, want %d", len(summary.Results), len(members))
		}
		for i, r := range summary.Results {
			if r.Name != members[i].name || r.Err != nil {
				t.Fatalf("result %d is %q (err %v), want %q in Add order", i, r.Name, r.Err, members[i].name)
			}
			sameTrace(t, r.Name, traceOfResult(r.Result), c.isolated(t, members[i].variant))
		}
		if summary.CampaignsPerSec <= 0 {
			t.Fatalf("CampaignsPerSec = %v", summary.CampaignsPerSec)
		}
		if _, err := runner.Run(); err == nil {
			t.Fatal("second Run was not refused")
		}
	}},
	// resume@k resumes each boundary's snapshot onto the environment of the
	// uninterrupted run, whose state has moved past the snapshot: resuming
	// must restore it, not assume a fresh one.
	{"resume@k", func(t *testing.T, c *cell) {
		env, opts := c.f.inputs(t, c.f.seed)
		tuner := startTuner(t, c.f.workers(1), env, opts, nil)
		snaps := snapshotsAlong(t, tuner)
		sameTrace(t, "snapshotting run", traceOfTuner(t, tuner), c.ref)
		for _, k := range boundaries(c.f, len(snaps)) {
			resumed, err := ResumeTuner(c.f.workers(1), env, snaps[k])
			if err != nil {
				t.Fatalf("ResumeTuner at boundary %d: %v", k, err)
			}
			sameTrace(t, fmt.Sprintf("resume@%d", k), runTuner(t, resumed), c.ref)
		}
	}},
	// resume-shared@k snapshots a shared campaign halfway, drops it, and
	// resumes it into a group where a campaign at another seed already ran —
	// through ResumeTunerShared and through MultiRunner.AddResumed.
	{"resume-shared@k", func(t *testing.T, c *cell) {
		other := variant{c.f.seed + otherSeed, 1}
		ranOther := func(g *ShareGroup) {
			env, opts := c.f.inputs(t, other.seed)
			sameTrace(t, "other-seed", runTuner(t, startTuner(t, c.f.workers(2), env, opts, g)), c.isolated(t, other))
		}
		g := NewShareGroup()
		ranOther(g)
		env, opts := c.f.inputs(t, c.f.seed)
		snap := stepTo(t, startTuner(t, c.f.workers(2), env, opts, g), c.trials/2)
		env, _ = c.f.inputs(t, c.f.seed)
		resumed, err := ResumeTunerShared(c.f.workers(2), env, snap, ResumeFuncs{}, g)
		if err != nil {
			t.Fatalf("ResumeTunerShared: %v", err)
		}
		sameTrace(t, "ResumeTunerShared", runTuner(t, resumed), c.ref)

		runner := NewMultiRunner(MultiRunnerConfig{})
		ranOther(runner.Group())
		env, _ = c.f.inputs(t, c.f.seed)
		if err := runner.AddResumed("resumed", c.f.workers(2), env, snap, ResumeFuncs{}); err != nil {
			t.Fatalf("AddResumed: %v", err)
		}
		summary, err := runner.Run()
		if err != nil || summary.Results[0].Err != nil {
			t.Fatalf("Run: %v, %v", err, summary.Results[0].Err)
		}
		sameTrace(t, "AddResumed", traceOfResult(summary.Results[0].Result), c.ref)
	}},
	// cancel@k runs half the campaign, stops a step on a cancelled context
	// and resumes the last snapshot onto a fresh environment.
	{"cancel@k", func(t *testing.T, c *cell) {
		env, opts := c.f.inputs(t, c.f.seed)
		tuner := startTuner(t, c.f.workers(1), env, opts, nil)
		snap := stepTo(t, tuner, c.trials/2)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tuner.StepContext(cancelled); !errors.Is(err, ErrCampaignCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled step = %v, want ErrCampaignCancelled wrapping context.Canceled", err)
		}
		env, _ = c.f.inputs(t, c.f.seed)
		resumed, err := ResumeTuner(c.f.workers(1), env, snap)
		if err != nil {
			t.Fatalf("ResumeTuner: %v", err)
		}
		sameTrace(t, fmt.Sprintf("cancel@%d", c.trials/2), runTuner(t, resumed), c.ref)
	}},
	// crash@k kills the campaign at its environment's k-th run — early in the
	// bootstrap and at its penultimate run — and resumes the last snapshot on
	// a fresh, crash-free environment.
	{"crash@k", func(t *testing.T, c *cell) {
		var params FaultParams
		if c.f.faults != nil {
			params = *c.f.faults
		}
		for _, k := range []int{2, c.runs - 1} {
			crash := params
			crash.CrashAtRun = k
			env, opts := c.f.injected(t, c.f.seed, crash)
			tuner := startTuner(t, c.f.workers(1), env, opts, nil)
			var snap []byte
			for {
				var err error
				if snap, err = tuner.Snapshot(); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				done, err := tuner.Step()
				if err != nil {
					if !errors.Is(err, ErrRunFailed) || !errors.Is(err, ErrInjectedCrash) || !errors.Is(err, ErrEnvironmentFatal) {
						t.Fatalf("crash@%d surfaced as %v, want ErrRunFailed wrapping ErrInjectedCrash and ErrEnvironmentFatal", k, err)
					}
					break
				}
				if done {
					t.Fatalf("crash@%d: the campaign finished without crashing", k)
				}
			}
			env, _ = c.f.injected(t, c.f.seed, params)
			resumed, err := ResumeTuner(c.f.workers(1), env, snap)
			if err != nil {
				t.Fatalf("ResumeTuner: %v", err)
			}
			sameTrace(t, fmt.Sprintf("crash@%d", k), runTuner(t, resumed), c.ref)
		}
	}},
}

// TestCampaignEquivalence runs every cell of the fixture × relation matrix
// (-short: one cell per fixture, each relation once) and requires each to
// reproduce its fixture's isolated workers=1 run bitwise.
func TestCampaignEquivalence(t *testing.T) {
	checkCellSelection(t)
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			env, opts := f.inputs(t, f.seed)
			tuner := startTuner(t, f.workers(1), env, opts, nil)
			c := &cell{f: f, ref: runTuner(t, tuner), trials: len(tuner.Trials())}
			c.runs = c.trials
			if faulty, ok := env.(*FaultyEnvironment); ok {
				c.runs = faulty.Runs()
			}
			c.variants = map[variant]trace{{f.seed, 1}: c.ref}
			bootstrap, err := optimizer.ResolveBootstrapSize(env.Space(), opts)
			if err != nil {
				t.Fatalf("ResolveBootstrapSize: %v", err)
			}
			if c.trials <= bootstrap {
				t.Fatalf("the campaign made no decision (%d trials, bootstrap %d); its cells would be vacuous", c.trials, bootstrap)
			}
			for _, r := range relations {
				if testing.Short() && r.name != f.short || !slices.Contains(strings.Fields(f.relations), r.name) {
					continue
				}
				t.Run(r.name, func(t *testing.T) { r.run(t, c) })
			}
		})
	}
}

// checkCellSelection pins the matrix's coverage: every relation runs on at
// least three fixtures, one of each refit mode among them; every fixture runs
// at least three relations; and the -short diagonal runs each relation once.
func checkCellSelection(t *testing.T) {
	t.Helper()
	type coverage struct{ fixtures, full, incremental, short int }
	covered := map[string]*coverage{}
	for _, r := range relations {
		covered[r.name] = &coverage{}
	}
	for _, f := range fixtures {
		names := strings.Fields(f.relations)
		if len(names) < 3 || !slices.Contains(names, f.short) {
			t.Fatalf("fixture %s runs %d relations (want ≥ 3) and -short runs %q, not one of them", f.name, len(names), f.short)
		}
		for _, name := range names {
			cov := covered[name]
			if cov == nil {
				t.Fatalf("fixture %s names unknown relation %q", f.name, name)
			}
			cov.fixtures++
			if f.incremental {
				cov.incremental++
			} else {
				cov.full++
			}
		}
		covered[f.short].short++
	}
	for name, cov := range covered {
		if cov.fixtures < 3 || cov.full == 0 || cov.incremental == 0 || cov.short != 1 {
			t.Fatalf("relation %s: %+v, want ≥ 3 fixtures with both refit modes and one -short cell", name, *cov)
		}
	}
}
