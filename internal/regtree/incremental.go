package regtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// This file implements the incremental-update extension of the regression
// tree: a tree trained with TrainIncremental retains its training samples and
// the per-leaf sample membership, which lets Insert fold one new sample into
// the fitted tree — updating the covering leaf's mean and re-splitting the
// leaf once it accumulates enough samples — instead of retraining from
// scratch. The planner's speculative path uses it to turn per-speculation
// full refits into one-sample updates (see core.Params.SpeculativeRefit).
//
// The split structure above the touched leaf is frozen: upper splits are not
// revisited when a sample arrives, which is what makes Insert O(depth + leaf)
// instead of O(n log n). The resulting tree therefore differs from one
// retrained on the extended sample set; the ensemble layer relies only on
// statistical, not bitwise, agreement between the two (enforced by the
// planner's parity tests).
//
// Inserts are also undoable: everything an Insert changes is either appended
// (nodes, retained samples, membership lists carved from the sample arena) or
// confined to the one pre-existing leaf it lands on, so Mark records five
// lengths, Insert journals the leaf it overwrites, and Rollback truncates and
// restores. The planner speculates in place on one working tree — apply,
// sweep, undo — instead of cloning the tree for every speculated outcome.

// incState is the retained training state of an incrementally updatable tree.
type incState struct {
	params Params // normalized induction parameters, reused by re-splits

	// cols is the column-major retained sample matrix (cols[f][i] is feature
	// f of sample i) — the same layout growInto consumes, so a leaf re-split
	// runs the regular induction machinery over the leaf's sample indices.
	cols    [][]float64
	targets []float64

	// leafSamples[node] lists the retained sample indices covered by that
	// leaf; nil for internal nodes.
	leafSamples [][]int32

	// colArena and sampleArena back the cols / leafSamples storage, so one
	// allocation per matrix replaces one per column or leaf. Membership lists
	// are capacity-capped slices of sampleArena and never grow in place: an
	// Insert carves the extended list (and a re-split its sub-lists) past
	// arenaOff, the bump offset of the arena's handed-out prefix, which is
	// what lets Rollback drop them by resetting the offset.
	colArena    []float64
	sampleArena []int32
	arenaOff    int

	// marks is the stack of open undo frames (see Mark) and undo the leaves
	// they overwrote, oldest first.
	marks []treeMark
	undo  []leafUndo

	// scratch backs leaf re-splits; built lazily, never cloned.
	scratch *resplitScratch
}

// treeMark is one undo frame: the lengths everything appended since is
// truncated back to, and the start of the frame's entries in incState.undo.
type treeMark struct {
	nodes, samples, leaves, depth, arenaOff, undo int
}

// leafUndo is the pre-insert state of a leaf that existed when its frame was
// opened: its node (the leaf value, or the whole slot once re-split) and its
// membership list header. The list's storage is never written again — the
// extended list is carved elsewhere — so the header is all there is to keep.
type leafUndo struct {
	leaf int32
	node node
	list []int32
}

// resplitScratch holds the buffers a leaf re-split reuses across Inserts.
type resplitScratch struct {
	indices []int
	split   *splitScratch
	leafOf  []int32 // leaf each redistributed sample lands on
	counts  []int32 // samples per regrown leaf
}

// sampleSlack is the spare sample-arena capacity reserved past the n retained
// samples: enough for the extended and redistributed membership lists of a
// few nested one-sample updates on typical (near-singleton) leaves. Larger
// demands spill to the heap (see carve).
func sampleSlack(n int) int { return 4*n + 32 }

// carve hands out a capacity-capped list of k sample slots from the arena's
// unused tail, or from the heap once the slack is spent.
func (s *incState) carve(k int) []int32 {
	if end := s.arenaOff + k; end <= len(s.sampleArena) {
		list := s.sampleArena[s.arenaOff:end:end]
		s.arenaOff = end
		return list
	}
	return make([]int32, k)
}

// cloneColSlack is the spare capacity (in samples) each cloned column and the
// target slice reserve, so the handful of Inserts a speculation clone receives
// append in place instead of reallocating every column.
const cloneColSlack = 8

// TrainIncremental fits a tree exactly like Train — identical structure,
// identical rng consumption — and additionally retains the training samples
// and per-leaf membership required by Insert and deep Clone. The retained
// matrix is a copy; the caller's rows are not referenced after return.
func TrainIncremental(features [][]float64, targets []float64, params Params, rng *rand.Rand) (*Tree, error) {
	t := &Tree{}
	if err := NewArena().TrainIncremental(t, features, targets, params, rng); err != nil {
		return nil, err
	}
	return t, nil
}

// TrainIncremental is the arena form of the package-level TrainIncremental:
// it fits dst through (*Arena).Train and rebuilds dst's retained incremental
// state in place, reusing the column and sample arenas of dst's previous fit.
func (a *Arena) TrainIncremental(dst *Tree, features [][]float64, targets []float64, params Params, rng *rand.Rand) error {
	inc := dst.inc
	if err := a.Train(dst, features, targets, params, rng); err != nil {
		return err
	}
	if inc == nil {
		inc = &incState{}
	}
	dst.inc = inc
	a.buildIncState(dst, inc, features, targets, params)
	return nil
}

// buildIncState populates the retained sample matrix and per-leaf membership
// of a freshly fitted tree. The columns land in the incState's reusable
// arena with cloneColSlack spare samples each; the leaf membership lists are
// exact-size subslices of the sample arena's first n slots, the rest of the
// arena being the slack later Inserts carve from.
func (a *Arena) buildIncState(t *Tree, inc *incState, features [][]float64, targets []float64, params Params) {
	n := len(targets)
	inc.params = params.withDefaults()

	stride := n + cloneColSlack
	if cap(inc.colArena) < t.numFeatures*stride {
		inc.colArena = make([]float64, t.numFeatures*stride)
	}
	arena := inc.colArena[:t.numFeatures*stride]
	if cap(inc.cols) < t.numFeatures {
		inc.cols = make([][]float64, t.numFeatures)
	}
	inc.cols = inc.cols[:t.numFeatures]
	for f := 0; f < t.numFeatures; f++ {
		col := arena[f*stride : f*stride+n : (f+1)*stride]
		for i, row := range features {
			col[i] = row[f]
		}
		inc.cols[f] = col
	}
	if cap(inc.targets) < n+cloneColSlack {
		inc.targets = make([]float64, 0, n+cloneColSlack)
	}
	inc.targets = append(inc.targets[:0], targets...)

	// Two-pass leaf bucketing: assign every sample to its covering leaf, then
	// carve the membership lists out of the sample arena in node order. The
	// per-leaf sample order stays ascending, as appends would produce.
	nodes := t.Nodes()
	if cap(a.leafOf) < n {
		a.leafOf = make([]int32, n)
	}
	leafOf := a.leafOf[:n]
	if cap(inc.leafSamples) < nodes {
		inc.leafSamples = make([][]int32, nodes)
	}
	inc.leafSamples = inc.leafSamples[:nodes]
	for i := range inc.leafSamples {
		inc.leafSamples[i] = nil
	}
	if need := n + sampleSlack(n); cap(inc.sampleArena) < need {
		inc.sampleArena = make([]int32, need)
	}
	inc.sampleArena = inc.sampleArena[:cap(inc.sampleArena)]
	inc.arenaOff = n
	inc.marks, inc.undo = inc.marks[:0], inc.undo[:0]
	sa := inc.sampleArena[:n]
	for i, row := range features {
		leafOf[i] = t.leafIndex(row)
	}
	if cap(a.leafCount) < nodes {
		a.leafCount = make([]int32, nodes)
	}
	counts := a.leafCount[:nodes]
	for i := range counts {
		counts[i] = 0
	}
	for _, leaf := range leafOf {
		counts[leaf]++
	}
	off := 0
	for node := range counts {
		if c := int(counts[node]); c > 0 {
			inc.leafSamples[node] = sa[off : off : off+c]
			off += c
		}
	}
	for i, leaf := range leafOf {
		inc.leafSamples[leaf] = append(inc.leafSamples[leaf], int32(i))
	}
}

// Incremental reports whether the tree retains the state needed by Insert.
func (t *Tree) Incremental() bool { return t != nil && t.inc != nil }

// Samples returns the number of retained training samples (0 for trees
// without incremental state).
func (t *Tree) Samples() int {
	if t == nil || t.inc == nil {
		return 0
	}
	return len(t.inc.targets)
}

// leafIndex walks the tree to the leaf covering x and returns its node index.
func (t *Tree) leafIndex(x []float64) int32 {
	nodes := t.nodes
	i := int32(0)
	for {
		nd := nodes[i]
		if nd.left < 0 {
			return i
		}
		if x[nd.feat] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Insert folds one sample into a tree trained with TrainIncremental: the
// covering leaf's mean is updated with the new target, and once the leaf
// holds at least MinSamplesSplit samples (and splitting is still admissible
// under MaxDepth/MinLeafSize) the leaf is re-split in place by the regular
// induction machinery over its retained samples. Splits above the leaf are
// never revisited.
//
// Insert returns the index of the affected node — the former leaf, which
// after a re-split roots the regrown subtree. Predictions of feature vectors
// whose root-to-leaf walk does not pass through that node are unchanged; the
// ensemble layer uses this to repair its prediction memo.
//
// rng is only consumed when Params.FeatureFraction < 1 (it drives the
// random-subspace draw of a re-split); it may be nil otherwise.
func (t *Tree) Insert(x []float64, y float64, rng *rand.Rand) (int, error) {
	if t == nil || t.Nodes() == 0 {
		return 0, errors.New("regtree: insert into untrained tree")
	}
	inc := t.inc
	if inc == nil {
		return 0, errors.New("regtree: insert into a tree without incremental state (use TrainIncremental)")
	}
	if len(x) != t.numFeatures {
		return 0, fmt.Errorf("regtree: feature vector has %d columns, want %d", len(x), t.numFeatures)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, fmt.Errorf("regtree: target is not finite: %v", y)
	}
	if inc.params.FeatureFraction < 1 && rng == nil {
		return 0, errors.New("regtree: rng required when FeatureFraction < 1")
	}

	// Walk to the covering leaf, tracking its depth (root = 1) for the
	// MaxDepth gate of a potential re-split.
	nodes := t.nodes
	i := int32(0)
	depth := 1
	for {
		nd := nodes[i]
		if nd.left < 0 {
			break
		}
		if x[nd.feat] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
		depth++
	}

	// An open undo frame keeps what the insert is about to overwrite. Leaves
	// the frame itself appended need no entry: Rollback truncates them away.
	if k := len(inc.marks) - 1; k >= 0 && int(i) < inc.marks[k].nodes {
		inc.undo = append(inc.undo, leafUndo{leaf: i, node: nodes[i], list: inc.leafSamples[i]})
	}

	// Retain the sample and attach it to the leaf: the extended membership
	// list is carved fresh, so the previous one stays intact for Rollback.
	si := int32(len(inc.targets))
	for f := 0; f < t.numFeatures; f++ {
		inc.cols[f] = append(inc.cols[f], x[f])
	}
	inc.targets = append(inc.targets, y)
	old := inc.leafSamples[i]
	samples := inc.carve(len(old) + 1)
	copy(samples, old)
	samples[len(old)] = si
	inc.leafSamples[i] = samples

	// Recompute the leaf mean exactly from its samples (one short pass, which
	// also yields the constant-target check of the re-split gate).
	first := inc.targets[samples[0]]
	sum := 0.0
	constant := true
	for _, s := range samples {
		ys := inc.targets[s]
		sum += ys
		if ys != first {
			constant = false
		}
	}
	t.nodes[i].thresh = sum / float64(len(samples))

	// Same gating as growInto: too few samples, too deep, or constant targets
	// keep the leaf as-is. This is the common case — most inserts stop here.
	p := inc.params
	if len(samples) < p.MinSamplesSplit || (p.MaxDepth > 0 && depth > p.MaxDepth) || constant {
		return int(i), nil
	}
	t.resplitLeaf(i, depth, samples, rng)
	return int(i), nil
}

// resplitLeaf regrows the subtree rooted at the given leaf from its retained
// samples: growInto rewrites the leaf's node slot in place, appends any new
// descendants to the node arrays, and the retained samples are redistributed
// over the new leaves. When no admissible split exists the appended state is
// rolled back and the leaf (whose mean Insert already updated) is kept.
func (t *Tree) resplitLeaf(i int32, depth int, samples []int32, rng *rand.Rand) {
	inc := t.inc
	sc := inc.ensureScratch(len(inc.targets), t.numFeatures)
	idxs := sc.indices[:0]
	for _, s := range samples {
		idxs = append(idxs, int(s))
	}
	sc.indices = idxs

	oldNodes, oldLeaves, oldDepth := t.Nodes(), t.leaves, t.depth
	if !t.growInto(i, inc.cols, inc.targets, idxs, inc.params, rng, depth, sc.split) {
		// No admissible split: growInto re-wrote the leaf (same mean, already
		// up to date) and counted a phantom leaf; restore the counters.
		t.leaves, t.depth = oldLeaves, oldDepth
		return
	}
	// The old leaf is replaced by the subtree (whose leaves growInto counted).
	t.leaves--

	for len(inc.leafSamples) < t.Nodes() {
		inc.leafSamples = append(inc.leafSamples, nil)
	}
	inc.leafSamples[i] = nil

	// Redistribute in two passes — count per regrown leaf, carve the lists,
	// fill in sample order — so every list comes out of the arena at its
	// exact size and keeps the order appends would have produced (a later
	// Insert recomputes the leaf mean by summing in list order). Every regrown
	// leaf is one of the appended nodes.
	grown := t.Nodes() - oldNodes
	if cap(sc.counts) < grown {
		sc.counts = make([]int32, grown)
	}
	counts := sc.counts[:grown]
	for j := range counts {
		counts[j] = 0
	}
	if cap(sc.leafOf) < len(samples) {
		sc.leafOf = make([]int32, len(samples)+cloneColSlack)
	}
	leafOf := sc.leafOf[:len(samples)]
	for k, s := range samples {
		leaf := t.descendSample(i, s)
		leafOf[k] = leaf
		counts[int(leaf)-oldNodes]++
	}
	for j, c := range counts {
		if c > 0 {
			inc.leafSamples[oldNodes+j] = inc.carve(int(c))[:0]
		}
	}
	for k, s := range samples {
		inc.leafSamples[leafOf[k]] = append(inc.leafSamples[leafOf[k]], s)
	}
}

// Mark opens an undo frame: Rollback restores the tree, bit for bit, to its
// state at the matching Mark. Frames nest (a stack), and cost nothing to keep
// beyond one journal entry per Insert into a leaf that predates the frame.
func (t *Tree) Mark() {
	inc := t.inc
	inc.marks = append(inc.marks, treeMark{
		nodes:    t.Nodes(),
		samples:  len(inc.targets),
		leaves:   t.leaves,
		depth:    t.depth,
		arenaOff: inc.arenaOff,
		undo:     len(inc.undo),
	})
}

// Rollback undoes every Insert since the innermost open Mark and closes that
// frame. Overwritten leaves get their node and membership list back (newest
// entry first, so a leaf journaled twice ends on its oldest state);
// everything else the inserts did was an append, undone by truncation, and
// the membership lists they carved are released by resetting the arena's
// bump offset. It panics without an open frame, which only a caller bug
// produces.
func (t *Tree) Rollback() {
	inc := t.inc
	m := inc.marks[len(inc.marks)-1]
	inc.marks = inc.marks[:len(inc.marks)-1]
	for k := len(inc.undo) - 1; k >= m.undo; k-- {
		u := inc.undo[k]
		t.nodes[u.leaf] = u.node
		inc.leafSamples[u.leaf] = u.list
	}
	inc.undo = inc.undo[:m.undo]
	t.nodes = t.nodes[:m.nodes]
	inc.leafSamples = inc.leafSamples[:m.nodes]
	for f := range inc.cols {
		inc.cols[f] = inc.cols[f][:m.samples]
	}
	inc.targets = inc.targets[:m.samples]
	t.leaves, t.depth = m.leaves, m.depth
	inc.arenaOff = m.arenaOff
}

// descendSample walks the retained sample s from the given node to its leaf.
func (t *Tree) descendSample(start int32, s int32) int32 {
	nodes := t.nodes
	cols := t.inc.cols
	i := start
	for {
		nd := nodes[i]
		if nd.left < 0 {
			return i
		}
		if cols[nd.feat][s] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// ensureScratch returns the re-split scratch sized for n samples.
func (s *incState) ensureScratch(n, numFeatures int) *resplitScratch {
	if s.scratch == nil {
		s.scratch = &resplitScratch{}
	}
	sc := s.scratch
	if sc.split == nil || cap(sc.split.pairs) < n {
		sc.split = &splitScratch{
			pairs:     make([]featTarget, n+cloneColSlack),
			prefixSum: make([]float64, n+cloneColSlack+1),
			prefixSq:  make([]float64, n+cloneColSlack+1),
			features:  make([]int, numFeatures),
			vals:      make([]valueAgg, 0, maxDistinctForBuckets),
		}
	}
	return sc
}

// Clone returns an independent deep copy of the tree, including any retained
// incremental state: the copy can Insert freely without affecting the
// original. Cloning reads the source without mutating it, so concurrent
// clones of one tree are safe.
func (t *Tree) Clone() *Tree {
	dst := &Tree{}
	t.CloneInto(dst)
	return dst
}

// CloneInto copies t into dst, reusing dst's existing storage where capacity
// allows — the node array is one slice copy, and the retained sample matrix
// and leaf membership land in per-tree arenas, so a clone of a typical
// planner-sized tree allocates nothing after the first use of a dst. Cloned
// columns and the sample arena reserve slack, so the one-sample Inserts the
// speculation path applies to the copy allocate nothing either. Undo frames
// are not copied: the clone starts with none open.
func (t *Tree) CloneInto(dst *Tree) {
	if dst == t {
		return
	}
	dst.numFeatures = t.numFeatures
	dst.leaves = t.leaves
	dst.depth = t.depth
	dst.nodes = append(dst.nodes[:0], t.nodes...)
	if t.inc == nil {
		dst.inc = nil
		return
	}
	src := t.inc
	di := dst.inc
	if di == nil {
		di = &incState{}
		dst.inc = di
	}
	di.params = src.params
	n := len(src.targets)

	stride := n + cloneColSlack
	if cap(di.colArena) < t.numFeatures*stride {
		di.colArena = make([]float64, t.numFeatures*stride)
	}
	arena := di.colArena[:t.numFeatures*stride]
	if cap(di.cols) < t.numFeatures {
		di.cols = make([][]float64, t.numFeatures)
	}
	di.cols = di.cols[:t.numFeatures]
	for f := 0; f < t.numFeatures; f++ {
		col := arena[f*stride : f*stride+n : (f+1)*stride]
		copy(col, src.cols[f])
		di.cols[f] = col
	}
	di.targets = append(di.targets[:0], src.targets...)

	if need := n + sampleSlack(n); cap(di.sampleArena) < need {
		di.sampleArena = make([]int32, need)
	}
	di.sampleArena = di.sampleArena[:cap(di.sampleArena)]
	di.marks, di.undo = di.marks[:0], di.undo[:0]
	if cap(di.leafSamples) < t.Nodes() {
		di.leafSamples = make([][]int32, t.Nodes())
	}
	di.leafSamples = di.leafSamples[:t.Nodes()]
	off := 0
	for ni, s := range src.leafSamples {
		if s == nil {
			di.leafSamples[ni] = nil
			continue
		}
		end := off + len(s)
		di.leafSamples[ni] = di.sampleArena[off:end:end]
		copy(di.leafSamples[ni], s)
		off = end
	}
	di.arenaOff = off
}
