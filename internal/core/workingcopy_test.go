package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/bagging"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// flakyFactory makes bagging ensembles whose Update fails when the factory's
// shared call counter reaches failAt (0 = never). One model set updates its
// cost model first and its constraint models after, so in a two-model set odd
// calls are cost updates and even calls constraint updates.
type flakyFactory struct {
	*model.BaggingFactory
	calls, failAt int
}

var errInjectedUpdate = errors.New("injected update failure")

type flakyEnsemble struct {
	*bagging.Ensemble
	f *flakyFactory
}

func (f *flakyFactory) New(stream int64) model.Regressor {
	return &flakyEnsemble{Ensemble: f.BaggingFactory.New(stream).(*bagging.Ensemble), f: f}
}

func (e *flakyEnsemble) Update(x []float64, y float64) error {
	if e.f.calls++; e.f.calls == e.f.failAt {
		return errInjectedUpdate
	}
	return e.Ensemble.Update(x, y)
}

func (e *flakyEnsemble) CloneInto(dst any) error {
	return e.Ensemble.CloneInto(dst.(*flakyEnsemble).Ensemble)
}

// memosOf copies the memo arrays of a model set, cost model first.
func memosOf(t *testing.T, ms *modelSet) [][]numeric.Gaussian {
	t.Helper()
	var out [][]numeric.Gaussian
	for _, m := range append([]*model.Cached{ms.cost}, ms.extras...) {
		memo := m.MemoPreds()
		if memo == nil {
			t.Fatal("a memo is off")
		}
		out = append(out, append([]numeric.Gaussian(nil), memo...))
	}
	return out
}

// TestWorkingCopyValidity pins the rules that make a workspace's working copy
// trustworthy without re-copying it: an update that fails half-way through
// the model set is rolled back; any error between apply and undo poisons the
// copy, so its next use copies the root models afresh and scores exactly what
// a never-failed workspace scores; the copy is recognised by the root models'
// token only; and sweeping it at the wrong depth panics.
func TestWorkingCopyValidity(t *testing.T) {
	env := fixtureEnv(t)
	opts := fixtureOptions(t, 3)
	opts.ExtraConstraints = []optimizer.Constraint{{Metric: "energy", Max: 40}}
	trees := bagging.Params{NumTrees: 5, Incremental: true}
	factory := &flakyFactory{BaggingFactory: model.NewBaggingFactory(trees, opts.Seed)}
	l, err := New(Params{
		Lookahead: 2, GHOrder: 3, Model: trees, ModelFactory: factory,
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
	root := d.models
	rootMemos := memosOf(t, root)
	w := p.sched.workers[0]
	cand := d.root.untested[3]
	costPred, extraPreds := candPreds(t, root, cand)
	specCost, specExtras := costPred.Mean, []float64{extraPreds[0].Mean}
	child := &specState{
		train:    d.root.train.withEntry(cand.features, specCost, specExtras, true),
		untested: appendWithout(nil, d.root.untested, cand.id),
		budget:   d.root.budget - specCost,
		bounds:   &boundTable{},
	}
	speculate := func(ws *pathWorkspace) (reward, cost float64, ok bool, err error) {
		return p.speculate(w, ws, 0, child, nil, root, cand, specCost, specExtras, 2)
	}
	wantReward, wantCost, wantOK, err := speculate(&pathWorkspace{})
	if err != nil || !wantOK {
		t.Fatalf("reference speculation: ok=%v err=%v", wantOK, err)
	}
	updatesPerSpeculation := factory.calls
	if updatesPerSpeculation < 6 {
		t.Fatalf("the reference speculation made %d model updates; want a subtree below the first outcome", updatesPerSpeculation)
	}

	ws := &pathWorkspace{}
	if _, _, _, err := speculate(ws); err != nil {
		t.Fatalf("warm-up speculation: %v", err)
	}
	if ws.base != root.token || w.modelCopies != 2 {
		t.Fatalf("after two speculations on fresh workspaces: base matches = %v, %d copies; want true, 2", ws.base == root.token, w.modelCopies)
	}
	if _, _, _, err := speculate(ws); err != nil || w.modelCopies != 2 {
		t.Fatalf("speculating again on a valid copy: err=%v, %d copies; want nil, still 2", err, w.modelCopies)
	}

	// Call 2 of a speculation is the first outcome's constraint-model update,
	// after its cost model took the sample; call 3 is the cost-model update of
	// the first nested outcome, with the first outcome applied; the last call
	// fails with every earlier outcome already undone.
	for _, k := range []int{2, 3, updatesPerSpeculation} {
		factory.calls, factory.failAt = 0, k
		copies := w.modelCopies
		_, _, _, err := speculate(ws)
		if !errors.Is(err, errInjectedUpdate) {
			t.Fatalf("failing update %d: speculate error = %v, want the injected failure", k, err)
		}
		if ws.base != nil {
			t.Fatalf("failing update %d: the working copy was not poisoned", k)
		}
		if w.modelCopies != copies {
			t.Fatalf("failing update %d: a valid copy was re-copied before the failure", k)
		}
		if k == 2 {
			// Nothing of the failed set update may remain applied.
			if n := ws.work.pending(); n != 0 {
				t.Fatalf("failing update 2: %d updates pending on the copy, want the cost model rolled back", n)
			}
			for m, memo := range memosOf(t, ws.work) {
				for i := range memo {
					if memo[i] != rootMemos[m][i] {
						t.Fatalf("failing update 2: model %d memo[%d] = %+v, root has %+v", m, i, memo[i], rootMemos[m][i])
					}
				}
			}
		}
		factory.failAt = 0
		reward, cost, ok, err := speculate(ws)
		if err != nil {
			t.Fatalf("after failing update %d: speculate: %v", k, err)
		}
		if w.modelCopies != copies+1 {
			t.Fatalf("after failing update %d: %d new copies, want the poisoned copy re-copied once", k, w.modelCopies-copies)
		}
		if reward != wantReward || cost != wantCost || ok != wantOK {
			t.Fatalf("after failing update %d: speculation scored (%v, %v, %v), a fresh workspace scores (%v, %v, %v)",
				k, reward, cost, ok, wantReward, wantCost, wantOK)
		}
		if ws.base != root.token {
			t.Fatalf("after failing update %d: the re-copied working copy is not based on the root models", k)
		}
	}

	// Another decision's root models carry another token: same planner, same
	// history, a copy that would score the same — and is copied all the same.
	d2, err := p.selectCandidates(context.Background(), c.history, c.budget.Remaining())
	if err != nil || d2 == nil {
		t.Fatalf("selectCandidates: %v, %v", d2, err)
	}
	if err := p.rootModels(d2); err != nil {
		t.Fatalf("rootModels: %v", err)
	}
	copies := w.modelCopies
	if _, _, _, err := p.speculate(w, ws, 0, child, nil, d2.models, cand, specCost, specExtras, 2); err != nil {
		t.Fatalf("speculate under the second decision: %v", err)
	}
	if w.modelCopies != copies+1 || ws.base != d2.models.token {
		t.Fatalf("a new decision's root models: %d new copies, based on them = %v; want 1, true", w.modelCopies-copies, ws.base == d2.models.token)
	}

	// The depth stamp: a speculation at slot 1 on a copy with nothing pending.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "speculation depth") {
				t.Fatalf("sweeping at the wrong depth: recovered %v, want the depth panic", r)
			}
		}()
		_, _, _, _ = p.speculate(w, ws, 1, child, nil, ws.work, cand, specCost, specExtras, 1)
	}()
}

// TestWorkingCopyCountPerDecision: a decision copies its root models once per
// workspace that speculates below them — at most once per participating worker
// when the planner owns its workspaces (the root token outlives both scheduler
// runs of a pruned decision), at most twice when they go back to a share
// group's pool between the runs — and never once per speculated outcome.
func TestWorkingCopyCountPerDecision(t *testing.T) {
	const workers = 4
	for _, tc := range []struct {
		name        string
		group       *ShareGroup
		perDecision int
	}{{"isolated", nil, workers}, {"pooled", NewShareGroup(), 2 * workers}} {
		f := newPlannerBenchFixture(t, 3, SpecRefitIncremental, workers, tc.group)
		for d := 0; d < 3; d++ {
			before := modelCopies(f.planner)
			f.decide(t)
			if got := modelCopies(f.planner) - before; got < 1 || got > tc.perDecision {
				t.Errorf("%s planner, decision %d: %d whole-set copies, want 1..%d", tc.name, d, got, tc.perDecision)
			}
		}
	}
}
