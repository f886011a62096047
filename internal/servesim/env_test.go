package servesim

import (
	"testing"
)

func testEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	env, err := NewEnv(testScenario(), SpaceParams{
		Replicas:   []int{1, 2, 3},
		MaxBatches: []int{2, 4, 8},
	}, seed)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestEnvSpaceShape(t *testing.T) {
	env := testEnv(t, 1)
	// 3 replicas x 4 types x 3 batches x 3 policies.
	if got := env.Space().Size(); got != 108 {
		t.Fatalf("space size %d, want 108", got)
	}
	env2, err := NewProfileEnv("chat", 1)
	if err != nil {
		t.Fatalf("NewProfileEnv: %v", err)
	}
	if got := env2.Space().Size(); got != 384 {
		t.Fatalf("default space size %d, want 384", got)
	}
}

// TestEnvRunIsStochasticButReplayable pins the noise model of the wrapper:
// repeated runs of one configuration differ (real observation noise), yet the
// whole call sequence is a pure function of (seed, sequence) — a fresh Env
// with the same seed reproduces the draws bitwise.
func TestEnvRunIsStochasticButReplayable(t *testing.T) {
	env := testEnv(t, 42)
	cfg, err := env.Space().Config(17)
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	r1, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.RuntimeSeconds == r2.RuntimeSeconds {
		t.Errorf("repeat runs of one config returned identical makespan %v", r1.RuntimeSeconds)
	}
	if r1.UnitPricePerHour != r2.UnitPricePerHour {
		t.Errorf("price drifted across runs: %v vs %v", r1.UnitPricePerHour, r2.UnitPricePerHour)
	}

	// A fresh Env with the same seed replays the same draws.
	fresh := testEnv(t, 42)
	f1, err := fresh.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f1.RuntimeSeconds != r1.RuntimeSeconds || f1.Cost != r1.Cost {
		t.Errorf("fresh env first run %v/%v, want %v/%v", f1.RuntimeSeconds, f1.Cost, r1.RuntimeSeconds, r1.Cost)
	}

	// A different seed draws different noise.
	other := testEnv(t, 43)
	o1, err := other.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o1.RuntimeSeconds == r1.RuntimeSeconds {
		t.Errorf("different env seeds produced identical makespan %v", o1.RuntimeSeconds)
	}
}

func TestEnvTrialFields(t *testing.T) {
	env := testEnv(t, 7)
	cfg, err := env.Space().Config(5)
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	tr, err := env.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := env.Deployment(cfg)
	if err != nil {
		t.Fatalf("Deployment: %v", err)
	}
	if tr.UnitPricePerHour != d.PricePerHour() {
		t.Errorf("trial price %v, deployment price %v", tr.UnitPricePerHour, d.PricePerHour())
	}
	price, err := env.UnitPricePerHour(cfg)
	if err != nil {
		t.Fatalf("UnitPricePerHour: %v", err)
	}
	if price != d.PricePerHour() {
		t.Errorf("UnitPricePerHour %v, deployment price %v", price, d.PricePerHour())
	}
	if want := tr.RuntimeSeconds / 3600 * price; tr.Cost != want {
		t.Errorf("cost %v, want runtime/3600*price = %v", tr.Cost, want)
	}
	v, ok := tr.Extra[SLOViolationMetric]
	if !ok {
		t.Fatalf("trial missing extra metric %q", SLOViolationMetric)
	}
	if v < 0 || v > 1 {
		t.Errorf("violation %v outside [0,1]", v)
	}
	if tr.Config.ID != cfg.ID {
		t.Errorf("trial config ID %d, want %d", tr.Config.ID, cfg.ID)
	}
	c := env.Constraint()
	if c.Metric != SLOViolationMetric || c.Max != env.Scenario().MaxSLOViolation {
		t.Errorf("constraint %+v inconsistent with scenario", c)
	}
}

// TestEnvTrueStatsSeedIndependent pins the ground-truth contract: True uses a
// replication stream independent of the Env seed, so optima computed by
// differently seeded campaigns agree exactly.
func TestEnvTrueStatsSeedIndependent(t *testing.T) {
	a := testEnv(t, 1)
	b := testEnv(t, 999)
	ta, err := a.True(10, 3)
	if err != nil {
		t.Fatalf("True: %v", err)
	}
	tb, err := b.True(10, 3)
	if err != nil {
		t.Fatalf("True: %v", err)
	}
	if ta != tb {
		t.Errorf("ground truth depends on env seed: %+v vs %+v", ta, tb)
	}
	if ta.MeanCost <= 0 || ta.MeanMakespan <= 0 {
		t.Errorf("degenerate ground truth %+v", ta)
	}
}

func TestEnvOptimum(t *testing.T) {
	env := testEnv(t, 1)
	mkQ, _, err := env.ApproxStats(0.9, 40)
	if err != nil {
		t.Fatalf("ApproxStats: %v", err)
	}
	best, err := env.Optimum(mkQ, 2)
	if err != nil {
		t.Fatalf("Optimum: %v", err)
	}
	if best.ConfigID < 0 || best.ConfigID >= env.Space().Size() {
		t.Fatalf("optimum ID %d out of range", best.ConfigID)
	}
	if best.MeanMakespan > mkQ || best.MeanViolation > env.Scenario().MaxSLOViolation {
		t.Errorf("optimum %+v violates its own constraints (makespan <= %v)", best, mkQ)
	}
	// The optimum must be no more expensive than any other feasible config;
	// spot-check against the constrained minimum over a full scan.
	for id := 0; id < env.Space().Size(); id++ {
		ts, err := env.True(id, 2)
		if err != nil {
			t.Fatalf("True(%d): %v", id, err)
		}
		if ts.MeanMakespan <= mkQ && ts.MeanViolation <= env.Scenario().MaxSLOViolation && ts.MeanCost < best.MeanCost {
			t.Fatalf("config %d is feasible and cheaper than claimed optimum: %+v < %+v", id, ts, best)
		}
	}
	// An impossible constraint reports an error instead of a bogus optimum.
	if _, err := env.Optimum(0.0001, 1); err == nil {
		t.Error("impossible makespan constraint produced an optimum")
	}
}

func TestProfileEnvs(t *testing.T) {
	for _, name := range Profiles() {
		env, err := NewProfileEnv(name, 3)
		if err != nil {
			t.Fatalf("NewProfileEnv(%q): %v", name, err)
		}
		cfg, err := env.Space().Config(0)
		if err != nil {
			t.Fatalf("Config: %v", err)
		}
		tr, err := env.Run(cfg)
		if err != nil {
			t.Fatalf("%s Run: %v", name, err)
		}
		if tr.Cost <= 0 || tr.RuntimeSeconds <= 0 {
			t.Errorf("%s: degenerate trial %+v", name, tr)
		}
	}
	if _, err := NewProfileEnv("nope", 1); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := ProfileScenario("nope"); err == nil {
		t.Error("unknown profile scenario accepted")
	}
}
