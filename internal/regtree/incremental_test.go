package regtree

import (
	"math"
	"math/rand"
	"testing"
)

// incFixture is a small discrete training set with a clear split structure:
// the target is driven by feature 0, with feature 1 as noise.
func incFixture() ([][]float64, []float64) {
	features := [][]float64{
		{0, 0}, {0, 1}, {0, 2},
		{1, 0}, {1, 1}, {1, 2},
		{2, 0}, {2, 1}, {2, 2},
	}
	targets := []float64{1, 1.1, 0.9, 5, 5.2, 4.8, 9, 9.1, 8.9}
	return features, targets
}

func TestTrainIncrementalMatchesTrainBitwise(t *testing.T) {
	features, targets := incFixture()
	plain, err := Train(features, targets)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	inc, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	if !inc.Incremental() || plain.Incremental() {
		t.Fatalf("Incremental flags: plain=%v inc=%v", plain.Incremental(), inc.Incremental())
	}
	if inc.Leaves() != plain.Leaves() || inc.Depth() != plain.Depth() {
		t.Fatalf("structure differs: leaves %d/%d depth %d/%d", inc.Leaves(), plain.Leaves(), inc.Depth(), plain.Depth())
	}
	for _, row := range features {
		a, _ := plain.Predict(row)
		b, _ := inc.Predict(row)
		if a != b {
			t.Fatalf("prediction at %v differs: %v vs %v", row, a, b)
		}
	}
	if inc.Samples() != len(targets) {
		t.Fatalf("Samples = %d, want %d", inc.Samples(), len(targets))
	}
}

func TestInsertUpdatesLeafMean(t *testing.T) {
	features, targets := incFixture()
	tree, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	// Every fixture row is distinct, so each sits in a leaf of its own. A
	// second sample at the same features cannot be split off: the leaf's
	// value becomes the mean of the two targets and the tree keeps its shape.
	nodes := tree.Nodes()
	before, _ := tree.Predict([]float64{0, 0})
	if _, err := tree.Insert([]float64{0, 0}, 100); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	after, _ := tree.Predict([]float64{0, 0})
	if want := (targets[0] + 100) / 2; after != want {
		t.Fatalf("mean after insert = %v, want %v (before %v)", after, want, before)
	}
	if tree.Nodes() != nodes {
		t.Fatalf("Nodes = %d after the insert, want %d", tree.Nodes(), nodes)
	}
	if tree.Samples() != len(targets)+1 {
		t.Fatalf("Samples = %d, want %d", tree.Samples(), len(targets)+1)
	}
}

func TestInsertResplitsLeafPastThreshold(t *testing.T) {
	// Start with constant targets: a single leaf. Then insert distinct
	// targets at a distinct feature value until the leaf re-splits.
	features := [][]float64{{0}, {0}, {0}}
	targets := []float64{1, 1, 1}
	tree, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	if tree.Leaves() != 1 {
		t.Fatalf("Leaves = %d, want 1", tree.Leaves())
	}
	for i := 0; i < 3; i++ {
		if _, err := tree.Insert([]float64{5}, 9); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if tree.Leaves() < 2 {
		t.Fatalf("leaf did not re-split: %d leaves", tree.Leaves())
	}
	low, _ := tree.Predict([]float64{0})
	high, _ := tree.Predict([]float64{5})
	if low != 1 || high != 9 {
		t.Fatalf("post-split predictions = (%v, %v), want (1, 9)", low, high)
	}
}

func TestInsertValidation(t *testing.T) {
	features, targets := incFixture()
	plain, _ := Train(features, targets)
	if _, err := plain.Insert([]float64{0, 0}, 1); err == nil {
		t.Error("Insert into a Train-built tree did not fail")
	}
	inc, _ := TrainIncremental(features, targets)
	if _, err := inc.Insert([]float64{0}, 1); err == nil {
		t.Error("Insert with wrong arity did not fail")
	}
	if _, err := inc.Insert([]float64{0, 0}, math.NaN()); err == nil {
		t.Error("Insert with NaN target did not fail")
	}
	var empty *Tree
	if _, err := empty.Insert([]float64{0}, 1); err == nil {
		t.Error("Insert into nil tree did not fail")
	}
}

func TestCloneIsIndependentAndDeterministic(t *testing.T) {
	features, targets := incFixture()
	parent, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	a, b := &Tree{}, &Tree{}
	parent.CloneInto(a)
	parent.CloneInto(b)

	parentBefore, _ := parent.Predict([]float64{1, 1})
	// The same insert sequence applied to both clones must produce bitwise
	// identical trees, and the parent must not move.
	inserts := []struct {
		x []float64
		y float64
	}{
		{[]float64{1, 1}, 4.9}, {[]float64{2, 0}, 9.3}, {[]float64{0, 2}, 1.05},
	}
	for _, in := range inserts {
		if _, err := a.Insert(in.x, in.y); err != nil {
			t.Fatalf("Insert into a: %v", err)
		}
		if _, err := b.Insert(in.x, in.y); err != nil {
			t.Fatalf("Insert into b: %v", err)
		}
	}
	for _, row := range features {
		pa, _ := a.Predict(row)
		pb, _ := b.Predict(row)
		if pa != pb {
			t.Fatalf("clones diverged at %v: %v vs %v", row, pa, pb)
		}
	}
	if after, _ := parent.Predict([]float64{1, 1}); after != parentBefore {
		t.Fatalf("parent prediction moved after clone inserts: %v -> %v", parentBefore, after)
	}
	if parent.Samples() != len(targets) || a.Samples() != len(targets)+len(inserts) {
		t.Fatalf("sample counts: parent %d, clone %d", parent.Samples(), a.Samples())
	}
}

// TestCloneIntoReuseIsCheap re-clones into the same destination and checks the
// arena reuse keeps steady-state allocations near zero.
func TestCloneIntoReuseIsCheap(t *testing.T) {
	features, targets := incFixture()
	parent, err := TrainIncremental(features, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	dst := &Tree{}
	parent.CloneInto(dst) // warm the arenas
	allocs := testing.AllocsPerRun(100, func() {
		parent.CloneInto(dst)
	})
	if allocs > 0 {
		t.Errorf("steady-state CloneInto allocates %.1f objects per clone, want 0", allocs)
	}
}

// TestIncrementalTrackingSurvivesResplitChains stresses Insert with a long
// random sample stream and cross-checks the tree against a freshly trained
// reference on the same distribution: structure-independent invariants only
// (finite predictions, sample bookkeeping, leaf membership consistency).
func TestIncrementalTrackingSurvivesResplitChains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([][]float64, 8)
	targets := make([]float64, 8)
	fn := func(x []float64) float64 { return 3*x[0] - 2*x[1] + x[0]*x[1] }
	for i := range base {
		base[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		targets[i] = fn(base[i])
	}
	tree, err := TrainIncremental(base, targets)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	for i := 0; i < 200; i++ {
		x := []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		if _, err := tree.Insert(x, fn(x)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tree.Samples() != 8+200 {
		t.Fatalf("Samples = %d, want 208", tree.Samples())
	}
	// Every retained sample must sit in the leaf its features route to, and
	// each leaf value must equal the mean of its members.
	inc := tree.inc
	counted := 0
	for node, members := range inc.leafSamples {
		if members == nil {
			continue
		}
		if tree.nodes[node].left >= 0 {
			t.Fatalf("internal node %d holds samples", node)
		}
		sum := 0.0
		for _, s := range members {
			counted++
			row := make([]float64, tree.numFeatures)
			for f := range row {
				row[f] = inc.cols[f][s]
			}
			if got := tree.leafIndex(row); got != int32(node) {
				t.Fatalf("sample %d recorded in leaf %d but routes to %d", s, node, got)
			}
			sum += inc.targets[s]
		}
		want := sum / float64(len(members))
		if math.Abs(tree.nodes[node].thresh-want) > 1e-9 {
			t.Fatalf("leaf %d value %v, want member mean %v", node, tree.nodes[node].thresh, want)
		}
	}
	if counted != tree.Samples() {
		t.Fatalf("leaf membership covers %d samples, want %d", counted, tree.Samples())
	}
	// The tree should have learned the function reasonably well on seen data.
	for i := 0; i < 10; i++ {
		x := []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		pred, err := tree.Predict(x)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			t.Fatalf("non-finite prediction at %v", x)
		}
	}
}
