package lynceus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	lynceus "repro"
	"repro/internal/serve"
)

// Example_servesim tunes a stochastic environment: every trial runs a seeded
// discrete-event simulation of an LLM inference cluster (continuous
// batching, a KV-cache budget, a Poisson mix of SLO classes), so repeated
// runs of one configuration observe different costs, as on a real system
// (the repeated-measurements regime of §5.2). The SLO-attainment requirement
// rides along as an extra constraint, and the recommendation is judged by
// its seed-averaged ground truth, not by the one noisy run the tuner saw.
//
// When not to read CNO < 1 as a bug: the tuner recommends the cheapest trial
// it observed feasible, whose averaged makespan may break the constraint
// that the analytic optimum meets.
func Example_servesim() {
	env := must(lynceus.NewServingEnvironment("chat", 7))
	// Tmax keeps about 70% of the space feasible; the budget pays for a
	// 16-run bootstrap and half as many guided runs again. Incremental
	// speculative refits keep each decision, which fits a model per
	// constraint, fast.
	tmax, meanCost, err := env.ApproxStats(0.7, 96)
	if err != nil {
		panic(err)
	}
	tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1, SpeculativeRefit: "incremental"}))
	res := must(tuner.Optimize(env, lynceus.Options{
		Budget:            24 * meanCost,
		MaxRuntimeSeconds: tmax,
		Seed:              7,
		BootstrapSize:     16,
		ExtraConstraints:  []lynceus.Constraint{env.Constraint()},
	}))
	got := must(env.True(res.Recommended.Config.ID, 5))
	best := must(env.Optimum(tmax, 5))
	fmt.Printf("%d configurations, Tmax %.0fs: %d explorations, %.3f$ of %.3f$\n",
		env.Space().Size(), tmax, res.Explorations, res.SpentBudget, res.InitialBudget)
	fmt.Printf("recommends %s\n", env.Space().Describe(res.Recommended.Config))
	fmt.Printf("observed %.4f$ (SLO violation %.1f%%), ground truth %.4f$, optimum %.4f$, CNO %.3f\n",
		res.Recommended.Cost, 100*res.Recommended.Extra[lynceus.SLOViolationMetric],
		got.MeanCost, best.MeanCost, got.MeanCost/best.MeanCost)
	// Output:
	// 384 configurations, Tmax 17s: 40 explorations, 1.485$ of 1.488$
	// recommends replicas=2 instance_type=g4-small max_batch=16 scheduler=shortest-queue
	// observed 0.0061$ (SLO violation 0.0%), ground truth 0.0072$, optimum 0.0073$, CNO 0.990
}

// Example_faulttolerant tunes on an unreliable cluster and survives a crash.
// A deterministic fault injector fails 15% of profiling attempts
// transiently and makes 5% straggle; the retry policy retries, charges the
// failed attempts and quarantines what cannot be profiled. The campaign runs
// step by step and snapshots after every trial (lynceus-tune -checkpoint
// writes each to disk); a scripted crash stops it two runs before the end,
// and resuming the last snapshot on a fresh environment lands on the trials
// and recommendation of the campaign that never crashed.
//
// When not to snapshot every step: a snapshot serialises the whole history,
// so on cheap, fast trials (a lookup table) it can cost more than the trial.
// Snapshot as often as losing the work since the last one would hurt.
func Example_faulttolerant() {
	job := must(lynceus.SyntheticScoutJob("hibench-wordcount", 42))
	env := must(lynceus.NewJobEnvironment(job))
	cfg := lynceus.TunerConfig{Lookahead: 1}
	opts := lynceus.Options{
		Budget:            14 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		Seed:              7,
		Retry:             lynceus.RetryPolicy{MaxAttempts: 3, Quarantine: true},
	}
	faults := lynceus.FaultParams{Seed: 99, TransientRate: 0.15, StragglerRate: 0.05, FailedCostFraction: 0.25}

	refEnv := must(lynceus.NewFaultyEnvironment(env, faults))
	reference := must(must(lynceus.StartTuner(cfg, refEnv, opts)).Run())
	fmt.Printf("uninterrupted: %d trials over %d cluster runs\n", len(reference.Trials), refEnv.Runs())

	crash := faults
	crash.CrashAtRun = refEnv.Runs() - 2
	tuner := must(lynceus.StartTuner(cfg, must(lynceus.NewFaultyEnvironment(env, crash)), opts))
	var snapshot []byte
	for steps := 0; ; steps++ {
		done, err := tuner.Step()
		if errors.Is(err, lynceus.ErrInjectedCrash) {
			fmt.Printf("crashed after %d steps\n", steps)
			break
		}
		if err != nil || done {
			panic(fmt.Sprintf("campaign ended before the crash: %v", err))
		}
		snapshot = must(tuner.Snapshot())
	}

	resumed := must(lynceus.ResumeTuner(cfg, must(lynceus.NewFaultyEnvironment(env, faults)), snapshot))
	result := must(resumed.Run())
	fmt.Printf("resumed: %d trials, recommends %s\n", len(result.Trials), job.Space().Describe(result.Recommended.Config))
	fmt.Printf("matches the uninterrupted run: %v\n", sameTrials(reference, result) && result.SpentBudget == reference.SpentBudget)
	// Output:
	// uninterrupted: 13 trials over 16 cluster runs
	// crashed after 10 steps
	// resumed: 13 trials, recommends vm_family=c4 vm_size=large machines=24
	// matches the uninterrupted run: true
}

// Example_serve runs a campaign behind the crash-safe HTTP tuning server
// (cmd/lynceus-serve is the same server as a binary): create and step it over
// the JSON API, drain and stop the server, start a new one on the same state
// directory, which resumes the campaign from its last durable snapshot, and
// finish it. The recommendation equals that of the same campaign run
// in-process without a restart.
//
// When not to use the server: a single campaign in one process needs no
// server; StartTuner with Snapshot (Example_faulttolerant) gives the same
// durability without HTTP and a state directory.
func Example_serve() {
	job := must(lynceus.SyntheticTensorflowJob("cnn", 42))
	opts := lynceus.Options{
		Budget:            12 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		BootstrapSize:     6,
		Seed:              7,
	}
	spec := map[string]any{
		"id":    "demo",
		"env":   map[string]any{"kind": "tensorflow", "name": "cnn", "seed": 42},
		"tuner": map[string]any{"lookahead": 1},
		"options": map[string]any{
			"budget": opts.Budget, "max_runtime_seconds": opts.MaxRuntimeSeconds,
			"bootstrap_size": opts.BootstrapSize, "seed": opts.Seed,
		},
	}
	stateDir := must(os.MkdirTemp("", "lynceus-serve-example-"))
	defer os.RemoveAll(stateDir)

	var status struct {
		Trials int  `json:"trials"`
		Done   bool `json:"done"`
	}
	var stats struct {
		Resumed uint64 `json:"resumed_on_start"`
	}
	var served lynceus.Result
	for lifetime := 1; lifetime <= 2; lifetime++ {
		srv := must(serve.New(serve.Config{StateDir: stateDir, Rate: -1}))
		ts := httptest.NewServer(srv.Handler())
		if lifetime == 1 {
			call(ts.URL+"/campaigns", spec, nil)
			call(ts.URL+"/campaigns/demo/step", map[string]any{"steps": 7}, &status)
			fmt.Printf("first server: %d trials, done=%v\n", status.Trials, status.Done)
		} else {
			call(ts.URL+"/stats", nil, &stats)
			fmt.Printf("second server: resumed %d campaign(s) from disk\n", stats.Resumed)
			for !status.Done {
				call(ts.URL+"/campaigns/demo/step", map[string]any{"steps": 10}, &status)
			}
			call(ts.URL+"/campaigns/demo/recommendation", nil, &served)
			fmt.Printf("finished: %d trials, %.4f$ spent, recommends config %d\n",
				len(served.Trials), served.SpentBudget, served.Recommended.Config.ID)
		}
		// A graceful stop: drain finishes in-flight steps, each already
		// snapshotted durably.
		if err := srv.Drain(context.Background()); err != nil {
			panic(err)
		}
		ts.Close()
		if err := srv.Close(); err != nil {
			panic(err)
		}
	}

	tuner := must(lynceus.StartTuner(lynceus.TunerConfig{Lookahead: 1}, must(lynceus.NewJobEnvironment(job)), opts))
	fmt.Printf("matches the uninterrupted in-process run: %v\n", sameTrials(served, must(tuner.Run())))
	// Output:
	// first server: 7 trials, done=false
	// second server: resumed 1 campaign(s) from disk
	// finished: 20 trials, 2.4818$ spent, recommends config 9
	// matches the uninterrupted in-process run: true
}

// call sends body as JSON (a GET when body is nil) and decodes the JSON
// reply into out, if out is non-nil; it panics on any error status.
func call(url string, body, out any) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(must(json.Marshal(body))))
	}
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		panic(fmt.Sprintf("%s: %s", url, resp.Status))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			panic(err)
		}
	}
}
