package core

import (
	"strings"
	"testing"

	"repro/internal/bagging"
	"repro/internal/model"
)

func TestResolveRefitMode(t *testing.T) {
	tests := []struct {
		mode      SpeculativeRefit
		lookahead int
		bound     int
		want      SpeculativeRefit
	}{
		// Explicit modes pass through untouched.
		{SpecRefitFull, 3, 100000, SpecRefitFull},
		{SpecRefitIncremental, 0, 1, SpecRefitIncremental},
		// Auto keeps the exact path on paper-scale searches.
		{SpecRefitAuto, 2, 384, SpecRefitFull},
		{SpecRefitAuto, 2, 72, SpecRefitFull},
		{SpecRefitAuto, 1, 1024, SpecRefitFull},
		// Auto switches once lookahead × candidates crosses the threshold or
		// the lookahead reaches 3.
		{SpecRefitAuto, 2, 1024, SpecRefitIncremental},
		{SpecRefitAuto, 3, 10, SpecRefitIncremental},
	}
	for _, tt := range tests {
		if got := resolveRefitMode(tt.mode, tt.lookahead, tt.bound); got != tt.want {
			t.Errorf("resolveRefitMode(%v, la=%d, bound=%d) = %v, want %v",
				tt.mode, tt.lookahead, tt.bound, got, tt.want)
		}
	}
}

func TestStrategyCandidateBound(t *testing.T) {
	if got := strategyCandidateBound(Exhaustive{}, 384); got != 384 {
		t.Errorf("Exhaustive bound = %d, want 384", got)
	}
	if got := strategyCandidateBound(Sampled{Size: 256}, 100000); got != 256 {
		t.Errorf("Sampled bound = %d, want 256", got)
	}
	if got := strategyCandidateBound(Sampled{}, 100000); got != DefaultSampleSize {
		t.Errorf("Sampled default bound = %d, want %d", got, DefaultSampleSize)
	}
	if got := strategyCandidateBound(Sampled{Size: 512}, 100); got != 100 {
		t.Errorf("Sampled bound capped by space = %d, want 100", got)
	}
}

func TestExplicitIncrementalRejectsNonIncrementalFactory(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	params, err := Params{
		Lookahead:        2,
		Model:            bagging.Params{NumTrees: 4},
		ModelFactory:     model.NewGPFactory(),
		SpeculativeRefit: SpecRefitIncremental,
		Workers:          1,
	}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if _, err := newPlanner(params, env, opts, nil); err == nil {
		t.Fatal("newPlanner accepted explicit Incremental with a GP factory")
	} else if !strings.Contains(err.Error(), "IncrementalRegressor") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAutoWithNonIncrementalFactoryFallsBackToFull(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	params, err := Params{
		Lookahead:    3, // Auto would pick Incremental
		Model:        bagging.Params{NumTrees: 4},
		ModelFactory: model.NewGPFactory(),
		Workers:      1,
	}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	p, err := newPlanner(params, env, opts, nil)
	if err != nil {
		t.Fatalf("newPlanner: %v", err)
	}
	if p.refitMode != SpecRefitFull {
		t.Fatalf("refit mode = %v, want fallback to SpecRefitFull", p.refitMode)
	}
}

// TestNonRetainingBaggingFactoryResolvesLikeGP pins the capability probe for
// custom bagging factories built without bagging.Params.Incremental: their
// ensembles type-assert as IncrementalRegressor but cannot actually Update,
// so Auto must fall back to Full up front and explicit Incremental must fail
// at construction — never mid-run at the first speculative clone.
func TestNonRetainingBaggingFactoryResolvesLikeGP(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	plain := model.NewBaggingFactory(bagging.Params{NumTrees: 4}, 1)

	params, err := Params{Lookahead: 3, ModelFactory: plain, Workers: 1}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	p, err := newPlanner(params, env, opts, nil)
	if err != nil {
		t.Fatalf("newPlanner: %v", err)
	}
	if p.refitMode != SpecRefitFull {
		t.Fatalf("refit mode = %v, want fallback to SpecRefitFull", p.refitMode)
	}

	params.SpeculativeRefit = SpecRefitIncremental
	if _, err := newPlanner(params, env, opts, nil); err == nil {
		t.Fatal("newPlanner accepted explicit Incremental with a non-retaining bagging factory")
	}

	retaining := model.NewBaggingFactory(bagging.Params{NumTrees: 4, Incremental: true}, 1)
	params.ModelFactory = retaining
	p, err = newPlanner(params, env, opts, nil)
	if err != nil {
		t.Fatalf("newPlanner with retaining factory: %v", err)
	}
	if p.refitMode != SpecRefitIncremental {
		t.Fatalf("refit mode = %v, want SpecRefitIncremental", p.refitMode)
	}
}

func TestParamsRejectUnknownRefitMode(t *testing.T) {
	if _, err := New(Params{SpeculativeRefit: SpeculativeRefit(42)}); err == nil {
		t.Fatal("New accepted an unknown speculative-refit mode")
	}
}
