package regtree

import (
	"math"
	"math/rand"
	"testing"
)

// refNode is a pointer-linked tree node — the pre-flattening representation,
// reconstructed from the serialized v1 state. The property tests below walk
// it side by side with the packed flat layout to prove the two predict
// bitwise identically, which is the invariant that let the flat rewrite land
// without touching any golden campaign.
type refNode struct {
	feature   int32
	threshold float64
	value     float64
	left      *refNode
	right     *refNode
}

// refFromState links a pointer tree from the flattened v1 node list.
func refFromState(t *testing.T, s TreeState) *refNode {
	t.Helper()
	var build func(i int32) *refNode
	build = func(i int32) *refNode {
		ns := s.Nodes[i]
		if ns.Left < 0 {
			return &refNode{value: ns.Value, left: nil}
		}
		return &refNode{
			feature:   ns.Feature,
			threshold: ns.Threshold,
			left:      build(ns.Left),
			right:     build(ns.Right),
		}
	}
	return build(0)
}

func (n *refNode) predict(x []float64) float64 {
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// randomFixture draws a training set with mixed discrete/continuous features
// and a noisy nonlinear target, the shape of the paper's profiling data.
func randomFixture(rng *rand.Rand, n, m int) ([][]float64, []float64) {
	features := make([][]float64, n)
	targets := make([]float64, n)
	for i := range features {
		row := make([]float64, m)
		for f := range row {
			if f%2 == 0 {
				row[f] = float64(rng.Intn(4))
			} else {
				row[f] = rng.Float64() * 10
			}
		}
		features[i] = row
		targets[i] = 3*row[0] - row[m-1] + rng.NormFloat64()
	}
	return features, targets
}

// probeGrid draws random probe points, including points outside the training
// range so off-distribution traversals are covered too.
func probeGrid(rng *rand.Rand, count, m int) [][]float64 {
	probes := make([][]float64, count)
	for i := range probes {
		row := make([]float64, m)
		for f := range row {
			row[f] = rng.Float64()*16 - 3
		}
		probes[i] = row
	}
	return probes
}

// assertMatchesRef checks that the packed tree and the pointer reference
// predict bitwise identically on every probe.
func assertMatchesRef(t *testing.T, tree *Tree, ref *refNode, probes [][]float64, label string) {
	t.Helper()
	for _, p := range probes {
		want := ref.predict(p)
		got, err := tree.Predict(p)
		if err != nil {
			t.Fatalf("%s: Predict: %v", label, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: predict at %v: packed %v != pointer %v", label, p, got, want)
		}
	}
}

// TestPackedTreeMatchesPointerTree trains packed trees over randomized
// fixtures and checks them against the pointer reference.
func TestPackedTreeMatchesPointerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		m := 1 + rng.Intn(6)
		features, targets := randomFixture(rng, n, m)
		tree, err := Train(features, targets)
		if err != nil {
			t.Fatalf("trial %d: Train: %v", trial, err)
		}
		state, err := tree.State()
		if err != nil {
			t.Fatalf("trial %d: State: %v", trial, err)
		}
		ref := refFromState(t, state)
		assertMatchesRef(t, tree, ref, probeGrid(rng, 50, m), "trained")
	}
}

// TestPackedTreeMatchesPointerTreeAfterInserts runs incremental trees through
// long insert sequences — including leaf re-splits, which regrow subtrees at
// interior slots with descendants appended at the end of the node array (the
// reason the packed layout keeps explicit child indices instead of assuming
// preorder adjacency) — re-deriving the pointer reference after every stretch
// of inserts.
func TestPackedTreeMatchesPointerTreeAfterInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		m := 1 + rng.Intn(4)
		features, targets := randomFixture(rng, 10, m)
		tree, err := TrainIncremental(features, targets)
		if err != nil {
			t.Fatalf("trial %d: TrainIncremental: %v", trial, err)
		}
		for round := 0; round < 8; round++ {
			for k := 0; k < 10; k++ {
				x := make([]float64, m)
				for f := range x {
					x[f] = float64(rng.Intn(5))
				}
				if _, err := tree.Insert(x, rng.NormFloat64()*5); err != nil {
					t.Fatalf("trial %d: Insert: %v", trial, err)
				}
			}
			state, err := tree.State()
			if err != nil {
				t.Fatalf("trial %d: State: %v", trial, err)
			}
			ref := refFromState(t, state)
			assertMatchesRef(t, tree, ref, probeGrid(rng, 30, m), "after inserts")
		}
	}
}

// TestPackedTreeMatchesPointerTreeThroughCloneAndSnapshot covers the
// remaining mutation path: a clone receiving further inserts. Parent and
// mutated clone must each keep matching a pointer reference built from their
// own State.
func TestPackedTreeMatchesPointerTreeThroughCloneAndSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := 3
	features, targets := randomFixture(rng, 25, m)
	tree, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	clone := &Tree{}
	tree.CloneInto(clone)
	for k := 0; k < 40; k++ {
		x := []float64{float64(rng.Intn(5)), rng.Float64() * 10, float64(rng.Intn(5))}
		if _, err := clone.Insert(x, rng.NormFloat64()*5); err != nil {
			t.Fatalf("Insert into clone: %v", err)
		}
	}
	probes := probeGrid(rng, 60, m)
	for _, tc := range []struct {
		label string
		tree  *Tree
	}{{"parent", tree}, {"clone", clone}} {
		state, err := tc.tree.State()
		if err != nil {
			t.Fatalf("%s: State: %v", tc.label, err)
		}
		ref := refFromState(t, state)
		assertMatchesRef(t, tc.tree, ref, probes, tc.label)
	}
}
