package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bagging"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/optimizer"
	"repro/internal/synth"
)

// speculateCloned is the speculate body that apply → sweep → undo replaced —
// snapshot the parent models into a set of their own, fold the speculated
// sample in, sweep — kept as the differential oracle. The subtree below runs
// on a workspace of its own from depth 0, with the child models stamped as
// its root, so the only thing the oracle and the planner's speculate do
// differently is how this one outcome's child models come to be; sampling
// states at every depth covers every level.
func (p *planner) speculateCloned(w *specWorker, child *specState, parent *modelSet, cand candidate, specCost float64, specExtras []float64, lookahead int) (reward, cost float64, ok bool, err error) {
	models := p.newModelSet(1, 0)
	if err := models.cloneFrom(parent); err != nil {
		return 0, 0, false, err
	}
	if err := models.update(cand.features, specCost, specExtras); err != nil {
		return 0, 0, false, err
	}
	models.token = &rootToken{}
	// Slot -1: the subtree's own speculation starts at depth 0 of its
	// workspace. No parent bound table: the oracle's child sweep is fresh.
	return p.sweepChild(w, &pathWorkspace{}, -1, child, nil, models, lookahead)
}

// recordingFactory hands out the planner's default bagging ensembles and
// remembers them in creation order, which is how the test reaches the
// ensembles inside a model set: newModelSet draws the cost model first, then
// one model per constraint.
type recordingFactory struct {
	*model.BaggingFactory
	mu   sync.Mutex
	made []*bagging.Ensemble
}

func (f *recordingFactory) New(stream int64) model.Regressor {
	r := f.BaggingFactory.New(stream)
	f.mu.Lock()
	f.made = append(f.made, r.(*bagging.Ensemble))
	f.mu.Unlock()
	return r
}

// recordedSet is a model set together with the ensembles inside it.
type recordedSet struct {
	ms        *modelSet
	ensembles []*bagging.Ensemble
}

// record runs build, which must create exactly one model set, and pairs the
// set with the ensembles the factory made meanwhile.
func (f *recordingFactory) record(t *testing.T, p *planner, build func() *modelSet) recordedSet {
	t.Helper()
	first := len(f.made)
	ms := build()
	if got, want := len(f.made)-first, 1+len(p.extraNames); got != want {
		t.Fatalf("building one model set made %d ensembles, want %d", got, want)
	}
	return recordedSet{ms: ms, ensembles: f.made[first:]}
}

// setImage is everything the planner can observe of a model set, and the
// repair bookkeeping behind it: per model the serialized trees, the memo, the
// per-tree prediction matrix and the point → covering-leaf map (the segment
// sets, in the one form that does not depend on the order inside a segment).
type setImage struct {
	state  [][]byte
	memo   [][]numeric.Gaussian
	matrix [][]float64
	leafOf [][]int32
}

func imageOfSet(t *testing.T, rs recordedSet) setImage {
	t.Helper()
	var img setImage
	cached := append([]*model.Cached{rs.ms.cost}, rs.ms.extras...)
	for k, e := range rs.ensembles {
		s, err := e.State()
		if err != nil {
			t.Fatalf("State: %v", err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		memo := cached[k].MemoPreds()
		if memo == nil {
			t.Fatalf("model %d: the memo is off", k)
		}
		matrix, leafOf := e.RepairState()
		if matrix == nil {
			t.Fatalf("model %d: the repair state is not consistent", k)
		}
		img.state = append(img.state, b)
		img.memo = append(img.memo, append([]numeric.Gaussian(nil), memo...))
		img.matrix = append(img.matrix, matrix)
		img.leafOf = append(img.leafOf, leafOf)
	}
	return img
}

// treeChanges compares the serialized trees of two images of one set, before
// and after an update: how many trees grew (a leaf re-split) and how many only
// changed a leaf value.
func treeChanges(t *testing.T, before, after setImage) (resplit, meanOnly int) {
	t.Helper()
	for k := range before.state {
		var b, a bagging.EnsembleState
		if err := json.Unmarshal(before.state[k], &b); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if err := json.Unmarshal(after.state[k], &a); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		for ti := range b.Trees {
			switch {
			case len(a.Trees[ti].Nodes) > len(b.Trees[ti].Nodes):
				resplit++
			case !reflect.DeepEqual(a.Trees[ti], b.Trees[ti]):
				meanOnly++
			}
		}
	}
	return resplit, meanOnly
}

func requireSameImage(t *testing.T, label string, got, want setImage) {
	t.Helper()
	for k := range want.state {
		if !bytes.Equal(got.state[k], want.state[k]) {
			t.Fatalf("%s: model %d State() differs:\n%s\nwant\n%s", label, k, got.state[k], want.state[k])
		}
		for i := range want.memo[k] {
			if got.memo[k][i] != want.memo[k][i] {
				t.Fatalf("%s: model %d memo[%d] = %+v, want %+v", label, k, i, got.memo[k][i], want.memo[k][i])
			}
		}
		for i := range want.matrix[k] {
			if got.matrix[k][i] != want.matrix[k][i] {
				t.Fatalf("%s: model %d prediction matrix entry %d = %v, want %v", label, k, i, got.matrix[k][i], want.matrix[k][i])
			}
			if got.leafOf[k][i] != want.leafOf[k][i] {
				t.Fatalf("%s: model %d index entry %d under leaf %d, want leaf %d", label, k, i, got.leafOf[k][i], want.leafOf[k][i])
			}
		}
	}
}

// speculateOracleTally counts what the sampled states exercised.
type speculateOracleTally struct {
	compared, terminated int // speculate calls compared; of those, ok == false
	resplit, meanOnly    int // tree updates that re-split a leaf; that only moved a leaf value
}

// TestSpeculateInPlaceMatchesCloneUpdate is the differential test of
// in-place speculation: on states sampled from real campaign decisions —
// Tensorflow-384, the serving simulator with its SLO constraint (two models
// per set) and a sampled search over a 15k-point LargeGrid space — at
// lookahead 2 and 3, speculate
// returns bit for bit what the clone → update oracle returns, at every
// speculation depth, and leaves the working copy bit for bit as it found it:
// serialized trees, memo, per-tree prediction matrix and segment sets. Every
// tree update applies its sample with its Poisson multiplicity (two or more
// copies in a quarter of the tree-updates); outcomes are drawn from the
// Gauss-Hermite nodes the planner would speculate on, or forced to an existing
// sample's cost, which is how a leaf ends up with a constant target and does
// not re-split.
func TestSpeculateInPlaceMatchesCloneUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("differential oracle over three campaigns; skipped in -short mode")
	}
	var tally speculateOracleTally
	for _, oc := range speculateOracleCampaigns(t) {
		for _, lookahead := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/la=%d/workers=1", oc.name, lookahead), func(t *testing.T) {
				sampleSpeculateCampaign(t, oc, lookahead, &tally)
			})
		}
	}
	t.Logf("compared %d speculate calls (%d terminated paths); %d tree updates re-split a leaf, %d only moved a leaf value",
		tally.compared, tally.terminated, tally.resplit, tally.meanOnly)
	if tally.compared < 400 {
		t.Errorf("compared %d speculate calls, want at least 400", tally.compared)
	}
	// Fully grown trees re-split on almost every update here; Insert's
	// other exit, a leaf that keeps its shape, is required by regtree's
	// TestRollbackRestoresTreeBitwise instead.
	for name, n := range map[string]int{
		"terminated paths": tally.terminated, "re-splitting tree updates": tally.resplit,
	} {
		if n < 10 {
			t.Errorf("only %d sampled states exercised %s, want at least 10", n, name)
		}
	}
}

type speculateOracleCampaign struct {
	oracleCampaign
	search Search
}

func speculateOracleCampaigns(t *testing.T) []speculateOracleCampaign {
	t.Helper()
	var out []speculateOracleCampaign
	for _, oc := range oracleCampaigns(t) {
		if oc.refit != SpecRefitIncremental {
			continue
		}
		out = append(out, speculateOracleCampaign{oracleCampaign: oc})
	}
	large, err := synth.NewLargeGridEnv(synth.LargeETL, 32, 42)
	if err != nil {
		t.Fatalf("NewLargeGridEnv: %v", err)
	}
	tmax, meanCost, err := large.ApproxStats(0.5, 1024)
	if err != nil {
		t.Fatalf("ApproxStats: %v", err)
	}
	out = append(out, speculateOracleCampaign{
		oracleCampaign: oracleCampaign{
			name: "largegrid-sampled", env: large, bootstrap: 24, refit: SpecRefitIncremental,
			opts: optimizer.Options{Budget: 60 * meanCost, MaxRuntimeSeconds: tmax, BootstrapSize: 24, Seed: 7},
		},
		search: Search{Strategy: "sampled", SampleSize: 256},
	})
	return out
}

func sampleSpeculateCampaign(t *testing.T, oc speculateOracleCampaign, lookahead int, tally *speculateOracleTally) {
	t.Helper()
	trees := bagging.Params{NumTrees: 10, Incremental: true}
	factory := &recordingFactory{BaggingFactory: model.NewBaggingFactory(trees, oc.opts.Seed)}
	params, err := Params{
		Lookahead:        lookahead,
		Model:            trees,
		ModelFactory:     factory,
		Search:           oc.search,
		Workers:          1,
		SpeculativeRefit: SpecRefitIncremental,
	}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	p, err := newPlanner(params, oc.env, oc.opts, nil)
	if err != nil {
		t.Fatalf("newPlanner: %v", err)
	}
	budget, err := optimizer.NewBudget(oc.opts.Budget)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	h := optimizer.NewHistory()
	rng := rand.New(rand.NewSource(oc.opts.Seed + int64(lookahead)))
	if err := optimizer.Bootstrap(oc.env, oc.bootstrap, rng, h, budget, oc.opts); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	const decisions, perDecision = 3, 4
	for d := 0; d < decisions; d++ {
		sampleSpeculateStates(t, p, factory, h, budget.Remaining(), rng, perDecision, tally)
		cfg, ok, err := p.nextConfig(nil, h, budget.Remaining())
		if err != nil {
			t.Fatalf("nextConfig: %v", err)
		}
		if !ok {
			break
		}
		if _, _, err := optimizer.RunTrialWithRetry(oc.env, cfg, h, budget, optimizer.Options{}); err != nil {
			t.Fatalf("RunTrialWithRetry: %v", err)
		}
	}
}

// sampleSpeculateStates fits the root models of the campaign's current
// decision the way nextConfig does and walks n random paths below them, one
// speculation level at a time: at each level the in-place speculate of a
// random (candidate, outcome) is compared with the oracle's and must leave
// the working copy untouched; then the outcome is applied for good — to the
// working copy in place and to an oracle set by clone → update, which must
// agree — and the walk continues one level down. Unwinding the walk by undo
// must lead back, level by level, to the root models.
func sampleSpeculateStates(t *testing.T, p *planner, factory *recordingFactory, h *optimizer.History, remaining float64, rng *rand.Rand, n int, tally *speculateOracleTally) {
	t.Helper()
	d, err := p.selectCandidates(context.Background(), h, remaining)
	if err != nil || d == nil {
		t.Fatalf("selectCandidates: %v, %v", d, err)
	}
	root := factory.record(t, p, func() *modelSet {
		if err := p.rootModels(d); err != nil {
			t.Fatalf("rootModels: %v", err)
		}
		return d.models
	})
	rootImage := imageOfSet(t, root)
	w := p.sched.workers[0]
	ws := &pathWorkspace{}
	work := factory.record(t, p, func() *modelSet {
		ms, err := ws.working(p, w, root.ms)
		if err != nil {
			t.Fatalf("working: %v", err)
		}
		return ms
	})
	requireSameImage(t, "fresh working copy", imageOfSet(t, work), rootImage)

	for s := 0; s < n; s++ {
		state := &d.root
		parent := root // the oracle's models of the current level
		parentImage := rootImage
		var images []setImage
		for level := 0; level < p.params.Lookahead && len(state.untested) > 1; level++ {
			lookahead := p.params.Lookahead - level
			// The in-place side's parent is the root set at level 0 and the
			// working copy itself below.
			inPlaceParent := work.ms
			if level == 0 {
				inPlaceParent = root.ms
			}
			var child *specState
			var cand candidate
			var specCost float64
			var specExtras []float64
			for try := 0; try < 3; try++ {
				cand = state.untested[rng.Intn(len(state.untested))]
				costPred, extraPreds := candPreds(t, parent.ms, cand)
				specCost = randomOutcome(t, rng, costPred, p.params.GHOrder)
				if rng.Intn(4) == 0 {
					// An existing sample's cost: where the candidate shares
					// a leaf with that sample alone, the leaf's targets are
					// constant and it must not re-split.
					specCost = state.train.costs[rng.Intn(len(state.train.costs))]
				}
				specExtras = make([]float64, len(extraPreds))
				for k, pred := range extraPreds {
					specExtras[k] = randomOutcome(t, rng, pred, p.params.GHOrder)
				}
				child = &specState{
					train:    state.train.withEntry(cand.features, specCost, specExtras, p.feasibleSpeculation(cand, specCost, specExtras)),
					untested: appendWithout(nil, state.untested, cand.id),
					budget:   state.budget - specCost,
					bounds:   &boundTable{},
				}
				if try == 1 {
					child.budget = -1 // nothing affordable: the path terminates
				}

				copiesBefore := modelCopies(p)
				var got, want [2]float64
				var gotOK, wantOK bool
				var gotErr, wantErr error
				p.sched.run(1, func(w *specWorker, _ int) {
					got[0], got[1], gotOK, gotErr = p.speculate(w, ws, level, child, state.bounds, inPlaceParent, cand, specCost, specExtras, lookahead)
				})
				if copies := modelCopies(p) - copiesBefore; copies != 0 {
					t.Fatalf("level %d: speculating on a valid working copy made %d whole-set copies", level, copies)
				}
				want[0], want[1], wantOK, wantErr = p.speculateCloned(w, child, parent.ms, cand, specCost, specExtras, lookahead)
				if gotErr != nil || wantErr != nil {
					t.Fatalf("level %d: speculate: %v; oracle: %v", level, gotErr, wantErr)
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("level %d, candidate %d, outcome %v: in place (reward %v, cost %v, ok %v), clone → update (reward %v, cost %v, ok %v)",
						level, cand.id, specCost, got[0], got[1], gotOK, want[0], want[1], wantOK)
				}
				tally.compared++
				if !gotOK {
					tally.terminated++
				}
				if ws.base != root.ms.token {
					t.Fatalf("level %d: the working copy lost its base", level)
				}
				requireSameImage(t, fmt.Sprintf("level %d: working copy after apply → sweep → undo", level), imageOfSet(t, work), parentImage)
			}

			// Descend: apply the last outcome for good on both sides.
			child.budget = state.budget - specCost
			images = append(images, parentImage)
			if _, err := ws.working(p, w, inPlaceParent); err != nil {
				t.Fatalf("working: %v", err)
			}
			if err := work.ms.update(cand.features, specCost, specExtras); err != nil {
				t.Fatalf("update: %v", err)
			}
			next := factory.record(t, p, func() *modelSet { return p.newModelSet(int64(s+2), 0) })
			if err := next.ms.cloneFrom(parent.ms); err != nil {
				t.Fatalf("cloneFrom: %v", err)
			}
			if err := next.ms.update(cand.features, specCost, specExtras); err != nil {
				t.Fatalf("update: %v", err)
			}
			nextImage := imageOfSet(t, next)
			requireSameImage(t, fmt.Sprintf("level %d: in-place update vs clone → update", level), imageOfSet(t, work), nextImage)
			resplit, meanOnly := treeChanges(t, parentImage, nextImage)
			tally.resplit += resplit
			tally.meanOnly += meanOnly
			state, parent, parentImage = child, next, nextImage
		}
		for level := len(images) - 1; level >= 0; level-- {
			if err := work.ms.undo(); err != nil {
				t.Fatalf("undo: %v", err)
			}
			requireSameImage(t, fmt.Sprintf("unwinding to level %d", level), imageOfSet(t, work), images[level])
		}
	}
}

// modelCopies sums the whole-set copies the planner's workers have made.
func modelCopies(p *planner) int {
	n := 0
	for _, w := range p.sched.workers {
		n += w.modelCopies
	}
	return n
}
