package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/bagging"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// TestExplorePathsConstrainedOutcomes pins the speculated outcomes of a path
// step with one extra constraint: the joint outcomes explorePaths leaves in
// its depth scratch are, bit for bit and in order, the product of the
// Gauss-Hermite marginals of the candidate's cost and constraint predictions
// — the cost outermost, each weight 1·w_cost·w_extra. Campaign decisions do
// not pin these bits, so this is their check. And a depth-1 call on a warm
// workspace allocates nothing, whatever the constraint count.
func TestExplorePathsConstrainedOutcomes(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	opts.ExtraConstraints = []optimizer.Constraint{{Metric: "energy", Max: 40}}
	opts.BootstrapSize = 8
	l, err := New(Params{
		Lookahead: 1, GHOrder: 3, Model: bagging.Params{NumTrees: 5},
		Workers: 1, SpeculativeRefit: SpecRefitIncremental,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c, err := l.NewCampaign(env, opts, nil)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	for !c.boot.Done() {
		if done, err := c.Step(); err != nil || done {
			t.Fatalf("bootstrap stepping: done=%v err=%v", done, err)
		}
	}
	p := c.planner
	d, err := p.selectCandidates(context.Background(), c.history, c.budget.Remaining())
	if err != nil || d == nil {
		t.Fatalf("selectCandidates: %v, %v", d, err)
	}
	if err := p.rootModels(d); err != nil {
		t.Fatalf("rootModels: %v", err)
	}
	// A candidate both of whose predictions are spread, so that neither
	// marginal degenerates to one outcome.
	var cand candidate
	found := false
	for _, u := range d.root.untested {
		costPred, extraPreds := candPreds(t, d.models, u)
		if costPred.StdDev > 0 && extraPreds[0].StdDev > 0 {
			cand, found = u, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate with spread cost and energy predictions")
	}
	w := p.sched.workers[0]
	explore := func() {
		if _, _, err := p.explorePaths(&d.root, d.models, d.inc, cand, 1, w.ws, 0, w); err != nil {
			t.Fatalf("explorePaths: %v", err)
		}
	}
	explore()

	ds := w.ws.depth(0)
	costOut, err := numeric.AppendDiscretizedGaussian(nil, ds.preds[0], p.params.GHOrder)
	if err != nil {
		t.Fatalf("discretizing the cost: %v", err)
	}
	extraOut, err := numeric.AppendDiscretizedGaussian(nil, ds.preds[1], p.params.GHOrder)
	if err != nil {
		t.Fatalf("discretizing the energy: %v", err)
	}
	if len(ds.combos) != len(costOut)*len(extraOut) {
		t.Fatalf("%d joint outcomes, want %d×%d", len(ds.combos), len(costOut), len(extraOut))
	}
	for i, co := range costOut {
		for j, eo := range extraOut {
			got := ds.combos[i*len(extraOut)+j]
			weight := 1.0
			weight *= co.Weight
			weight *= eo.Weight
			if len(got.Values) != 2 || math.Float64bits(got.Values[0]) != math.Float64bits(co.Value) ||
				math.Float64bits(got.Values[1]) != math.Float64bits(eo.Value) || math.Float64bits(got.Weight) != math.Float64bits(weight) {
				t.Fatalf("joint outcome (%d,%d) = %+v, want values [%v %v] weighted %v bitwise", i, j, got, co.Value, eo.Value, weight)
			}
		}
	}

	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if allocs := testing.AllocsPerRun(20, explore); allocs != 0 {
		t.Errorf("a depth-1 explorePaths with one extra constraint allocates %v times on a warm workspace, want 0", allocs)
	}
}
