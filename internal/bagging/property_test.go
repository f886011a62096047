package bagging

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/numeric"
	"repro/internal/regtree"
)

// pointerTree is a pointer-linked mirror of one fitted regression tree,
// rebuilt from the serialized state. The ensemble-level property test walks
// it to prove that ensemble predictions over the packed flat trees — scalar
// and batched — stay bitwise identical to pointer chasing even after online
// Update sequences on clones.
type pointerTree struct {
	feature   int32
	threshold float64
	value     float64
	left      *pointerTree
	right     *pointerTree
}

func pointerFromState(s regtree.TreeState) *pointerTree {
	var build func(i int32) *pointerTree
	build = func(i int32) *pointerTree {
		ns := s.Nodes[i]
		if ns.Left < 0 {
			return &pointerTree{value: ns.Value}
		}
		return &pointerTree{
			feature:   ns.Feature,
			threshold: ns.Threshold,
			left:      build(ns.Left),
			right:     build(ns.Right),
		}
	}
	return build(0)
}

func (n *pointerTree) predict(x []float64) float64 {
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// refGaussian recomputes the ensemble's predictive Gaussian from the pointer
// mirrors with the same accumulation order and floor as the production path.
func refGaussian(e *Ensemble, refs []*pointerTree, x []float64) numeric.Gaussian {
	var sum, sumSq float64
	for _, ref := range refs {
		p := ref.predict(x)
		sum += p
		sumSq += p * p
	}
	return e.gaussianFromSums(sum, sumSq)
}

// TestEnsemblePredictionsMatchPointerTreesThroughUpdates fits an incremental
// ensemble, clones it, and folds a stream of updates into the clone —
// re-deriving pointer mirrors of every tree after each stretch and checking
// that Predict and PredictBatch agree with the mirrors bitwise.
func TestEnsemblePredictionsMatchPointerTreesThroughUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const m = 3
	features := make([][]float64, 30)
	targets := make([]float64, 30)
	for i := range features {
		features[i] = []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		targets[i] = 2*features[i][0] + features[i][1] + rng.NormFloat64()
	}
	ensemble := New(Params{NumTrees: 8, Incremental: true}, 7)
	if err := ensemble.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	clone := New(Params{NumTrees: 8, Incremental: true}, 8)
	if err := ensemble.CloneInto(clone); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}

	probes := make([][]float64, 40)
	for i := range probes {
		probes[i] = []float64{rng.Float64()*6 - 1, rng.Float64()*12 - 2, rng.Float64()*5 - 1}
	}
	cols := make([][]float64, m)
	for f := range cols {
		cols[f] = make([]float64, len(probes))
		for i, p := range probes {
			cols[f][i] = p[f]
		}
	}

	check := func(e *Ensemble, label string) {
		refs := make([]*pointerTree, len(e.trees))
		for i, tree := range e.trees {
			state, err := tree.State()
			if err != nil {
				t.Fatalf("%s: tree %d State: %v", label, i, err)
			}
			refs[i] = pointerFromState(state)
		}
		batch := make([]numeric.Gaussian, len(probes))
		if err := e.PredictBatch(cols, batch); err != nil {
			t.Fatalf("%s: PredictBatch: %v", label, err)
		}
		for i, p := range probes {
			want := refGaussian(e, refs, p)
			got, err := e.Predict(p)
			if err != nil {
				t.Fatalf("%s: Predict: %v", label, err)
			}
			if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
				math.Float64bits(got.StdDev) != math.Float64bits(want.StdDev) {
				t.Fatalf("%s: scalar at %v: packed %+v != pointer %+v", label, p, got, want)
			}
			if batch[i] != got {
				t.Fatalf("%s: batch at %v: %+v != scalar %+v", label, p, batch[i], got)
			}
		}
	}

	check(ensemble, "fitted")
	for round := 0; round < 6; round++ {
		for k := 0; k < 5; k++ {
			x := []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
			if err := clone.Update(x, 2*x[0]+x[1]+rng.NormFloat64()); err != nil {
				t.Fatalf("round %d: Update: %v", round, err)
			}
		}
		check(clone, "after updates")
	}
	// The source ensemble must be untouched by the clone's updates.
	check(ensemble, "fitted after clone updates")
}

// TestMemoRepairMatchesFreshPredictions drives the PredictBatchRepair +
// Update + RepairLastUpdate cycle through a long update stream —
// including tight clusters that force leaves to re-split — and checks after
// every update that the repaired memo is bitwise identical to a fresh
// PredictBatch sweep. Also exercises the clone path (repair state must
// travel with CloneInto) and the unusable state after a second un-repaired
// Update.
func TestMemoRepairMatchesFreshPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const m = 3
	features := make([][]float64, 30)
	targets := make([]float64, 30)
	for i := range features {
		features[i] = []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		targets[i] = 2*features[i][0] + features[i][1] + rng.NormFloat64()
	}
	ensemble := New(Params{NumTrees: 8, Incremental: true}, 7)
	if err := ensemble.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}

	const n = 64
	probes := make([][]float64, n)
	cols := make([][]float64, m)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	for i := range probes {
		probes[i] = []float64{rng.Float64()*6 - 1, rng.Float64()*12 - 2, rng.Float64()*5 - 1}
		for f := range cols {
			cols[f][i] = probes[i][f]
		}
	}

	preds := make([]numeric.Gaussian, n)
	want := make([]numeric.Gaussian, n)
	if err := ensemble.PredictBatchRepair(cols, preds); err != nil {
		t.Fatalf("PredictBatchRepair: %v", err)
	}
	if err := ensemble.PredictBatch(cols, want); err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	for i := range preds {
		if preds[i] != want[i] {
			t.Fatalf("sweep: PredictBatchRepair[%d] = %+v, PredictBatch = %+v", i, preds[i], want[i])
		}
	}

	before := make([]numeric.Gaussian, n)
	verify := func(e *Ensemble, label string, round int) {
		copy(before, preds)
		ids, old, err := e.RepairLastUpdate(cols, preds, nil, nil)
		if err != nil {
			t.Fatalf("%s round %d: RepairLastUpdate: %v", label, round, err)
		}
		seen := make(map[int32]bool, len(ids))
		for k, id := range ids {
			if seen[id] {
				t.Fatalf("%s round %d: point %d listed twice: %v", label, round, id, ids)
			}
			seen[id] = true
			if old[k] != before[id] {
				t.Fatalf("%s round %d: old value of point %d = %+v, it held %+v", label, round, id, old[k], before[id])
			}
		}
		for i := range preds {
			if !seen[int32(i)] && preds[i] != before[i] {
				t.Fatalf("%s round %d: unlisted point %d moved: %+v -> %+v", label, round, i, before[i], preds[i])
			}
		}
		if err := e.PredictBatch(cols, want); err != nil {
			t.Fatalf("%s round %d: PredictBatch: %v", label, round, err)
		}
		for i := range preds {
			if math.Float64bits(preds[i].Mean) != math.Float64bits(want[i].Mean) ||
				math.Float64bits(preds[i].StdDev) != math.Float64bits(want[i].StdDev) {
				t.Fatalf("%s round %d: repaired[%d] = %+v, fresh = %+v", label, round, i, preds[i], want[i])
			}
		}
	}

	// Alternate diffuse updates with a tight cluster around one region so
	// covering leaves accumulate samples and re-split, exercising the
	// regrown-subtree walk (and, rarely, root-affected trees).
	for round := 0; round < 40; round++ {
		var x []float64
		if round%3 == 0 {
			x = []float64{1, 3 + rng.Float64()*0.2, 1}
		} else {
			x = []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		}
		if err := ensemble.Update(x, 2*x[0]+x[1]+rng.NormFloat64()); err != nil {
			t.Fatalf("round %d: Update: %v", round, err)
		}
		verify(ensemble, "source", round)
	}

	// Repair state must travel with CloneInto and repair independently.
	clone := New(Params{NumTrees: 8, Incremental: true}, 8)
	if err := ensemble.CloneInto(clone); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}
	for round := 0; round < 10; round++ {
		x := []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		if err := clone.Update(x, 2*x[0]+x[1]+rng.NormFloat64()); err != nil {
			t.Fatalf("clone round %d: Update: %v", round, err)
		}
		verify(clone, "clone", round)
	}

	// Two updates without an interleaved repair invalidate the state: the
	// repair after the second fails with ErrRepairStateUnusable and leaves
	// the memo alone, and no sweep re-arms the state while updates are
	// pending. Once all are undone, a PredictBatchRepair sweep does.
	for k := 0; k < 2; k++ {
		x := []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		if err := clone.Update(x, 2*x[0]+x[1]+rng.NormFloat64()); err != nil {
			t.Fatalf("double-update %d: Update: %v", k, err)
		}
	}
	copy(before, preds)
	if _, _, err := clone.RepairLastUpdate(cols, preds, nil, nil); !errors.Is(err, ErrRepairStateUnusable) {
		t.Fatalf("after double update: %v, want ErrRepairStateUnusable", err)
	}
	if !slices.Equal(preds, before) {
		t.Fatal("the unusable repair moved the memo")
	}
	if err := clone.PredictBatchRepair(cols, preds); err == nil {
		t.Fatal("PredictBatchRepair with updates pending succeeded")
	}
	for len(clone.journal) > 0 {
		if err := clone.Undo(); err != nil {
			t.Fatalf("Undo: %v", err)
		}
	}
	if err := clone.PredictBatchRepair(cols, preds); err != nil {
		t.Fatalf("re-arm PredictBatchRepair: %v", err)
	}
	x := []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
	if err := clone.Update(x, 2*x[0]+x[1]+rng.NormFloat64()); err != nil {
		t.Fatalf("re-arm Update: %v", err)
	}
	verify(clone, "re-armed clone", 0)
}
