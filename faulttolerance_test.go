package lynceus

import (
	"errors"
	"testing"

	"repro/internal/optimizer"
)

// runTunerResult steps a tuner to completion and returns its result.
func runTunerResult(t *testing.T, tuner *Tuner) Result {
	t.Helper()
	res, err := tuner.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestFaultedCampaignsStayNearFaultFreeQuality runs the Scout-72 LA=2
// campaign under a 10% transient fault rate across five seeds and requires
// the recommendation's cost (normalized to the true optimum) to stay within
// 10% of the fault-free campaign's on at least four of them.
func TestFaultedCampaignsStayNearFaultFreeQuality(t *testing.T) {
	f := fixtureNamed(t, "scout72-la2")
	seeds := []int64{1, 2, 3, 4, 5}
	ok, failedAttempts := 0, 0
	for _, seed := range seeds {
		env, opts := f.inputs(t, seed)
		opts.Retry = RetryPolicy{MaxAttempts: 3, Quarantine: true}
		job := env.(*optimizer.JobEnvironment).Job()
		best, err := job.Optimum(opts.MaxRuntimeSeconds)
		if err != nil {
			t.Fatalf("Optimum: %v", err)
		}
		free := runTunerResult(t, startTuner(t, f.cfg, env, opts, nil))

		env2, _ := f.inputs(t, seed)
		faulty, err := NewFaultyEnvironment(env2, FaultParams{Seed: seed, TransientRate: 0.1, FailedCostFraction: 0.25})
		if err != nil {
			t.Fatalf("NewFaultyEnvironment: %v", err)
		}
		faultTuner := startTuner(t, f.cfg, faulty, opts, nil)
		faulted := runTunerResult(t, faultTuner)
		failedAttempts += faulty.Runs() - len(faulted.Trials)

		freeCost, err := job.Measurement(free.Recommended.Config.ID)
		if err != nil {
			t.Fatalf("Measurement: %v", err)
		}
		faultCost, err := job.Measurement(faulted.Recommended.Config.ID)
		if err != nil {
			t.Fatalf("Measurement: %v", err)
		}
		cnoFree := freeCost.Cost / best.Cost
		cnoFault := faultCost.Cost / best.Cost
		t.Logf("seed %d: CNO fault-free %.3f, faulted %.3f (%d trials, %d quarantined)",
			seed, cnoFree, cnoFault, len(faulted.Trials), len(faultTuner.QuarantinedIDs()))
		if cnoFault <= 1.1*cnoFree {
			ok++
		}
	}
	if ok < 4 {
		t.Fatalf("faulted campaigns stayed within 10%% of fault-free CNO on %d/%d seeds, want >= 4", ok, len(seeds))
	}
	if failedAttempts == 0 {
		t.Fatal("no injected failure fired across any seed; the comparison is vacuous")
	}
}

// TestCampaignAbortsWithoutQuarantine pins the sentinel-based campaign
// control surface of the public API: without quarantine, a permanently
// failing configuration aborts the campaign with typed errors.
func TestCampaignAbortsWithoutQuarantine(t *testing.T) {
	f := fixtureNamed(t, "scout72-la1")
	env, opts := f.inputs(t, f.seed)
	opts.Retry = RetryPolicy{MaxAttempts: 2} // no quarantine
	// Every configuration fails permanently: the first bootstrap probe aborts.
	var ids []int
	for id := 0; id < env.Space().Size(); id++ {
		ids = append(ids, id)
	}
	faulty, err := NewFaultyEnvironment(env, FaultParams{Seed: 1, PermanentIDs: ids, FailedCostFraction: 0.1})
	if err != nil {
		t.Fatalf("NewFaultyEnvironment: %v", err)
	}
	_, serr := startTuner(t, f.cfg, faulty, opts, nil).Run()
	if serr == nil {
		t.Fatal("campaign with all-failing bootstrap succeeded")
	}
	// Bootstrap probes always quarantine-and-resample, so the campaign ends
	// with the space exhausted rather than a single run failure.
	if !errors.Is(serr, ErrSpaceExhausted) {
		t.Fatalf("abort error = %v, want ErrSpaceExhausted", serr)
	}

	// A permanent decision-phase failure without quarantine aborts with
	// ErrRunFailed wrapping the injected sentinel.
	env2, _ := f.inputs(t, f.seed)
	free := startTuner(t, f.cfg, env2, opts, nil)
	clean := runTunerResult(t, free)
	if free.FinishReason() == nil || !errors.Is(free.FinishReason(), ErrBudgetExhausted) {
		t.Fatalf("finish reason = %v, want ErrBudgetExhausted", free.FinishReason())
	}
	// Fail the first decision-phase pick (the first trial beyond bootstrap).
	bootstrap, err := optimizer.ResolveBootstrapSize(env2.Space(), opts)
	if err != nil {
		t.Fatalf("ResolveBootstrapSize: %v", err)
	}
	if len(clean.Trials) <= bootstrap {
		t.Fatalf("campaign never left the bootstrap (%d trials)", len(clean.Trials))
	}
	env3, _ := f.inputs(t, f.seed)
	faulty3, err := NewFaultyEnvironment(env3, FaultParams{Seed: 1, PermanentIDs: []int{clean.Trials[bootstrap].Config.ID}, FailedCostFraction: 0.1})
	if err != nil {
		t.Fatalf("NewFaultyEnvironment: %v", err)
	}
	_, aerr := startTuner(t, f.cfg, faulty3, opts, nil).Run()
	if !errors.Is(aerr, ErrRunFailed) || !errors.Is(aerr, ErrInjectedPermanent) {
		t.Fatalf("decision-phase abort = %v, want ErrRunFailed wrapping ErrInjectedPermanent", aerr)
	}
}

// TestResumeValidation exercises the snapshot compatibility checks.
func TestResumeValidation(t *testing.T) {
	f := fixtureNamed(t, "scout72-la1")
	cfg := f.cfg
	env, opts := f.inputs(t, f.seed)
	tuner := startTuner(t, cfg, env, opts, nil)
	// A few steps in, snapshot.
	snap := stepTo(t, tuner, 3)

	if _, err := ResumeTuner(cfg, env, []byte("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := ResumeTuner(TunerConfig{Lookahead: 2}, env, snap); err == nil {
		t.Error("snapshot accepted under mismatched tuner parameters")
	}
	otherEnv, _ := fixtureNamed(t, "tensorflow384-la1").inputs(t, f.seed)
	if _, err := ResumeTuner(cfg, otherEnv, snap); err == nil {
		t.Error("snapshot accepted against a different configuration space")
	}

	// Setup-cost campaigns must re-supply the function on resume.
	env2, opts2 := f.inputs(t, f.seed)
	setup := func(from *Config, to Config) float64 { return 0.001 }
	opts2.SetupCost = setup
	snap2 := stepTo(t, startTuner(t, cfg, env2, opts2, nil), 1)
	if _, err := ResumeTuner(cfg, env2, snap2); err == nil {
		t.Error("setup-cost snapshot resumed without the function")
	}
	if _, err := ResumeTunerShared(cfg, env2, snap2, ResumeFuncs{SetupCost: setup}, nil); err != nil {
		t.Errorf("ResumeTunerShared with setup cost: %v", err)
	}
}
