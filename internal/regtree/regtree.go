// Package regtree implements CART-style regression trees. They are the base
// learners of the bagging ensemble that Lynceus uses as its black-box cost
// model (paper §3, "Regression model"): each tree is trained on a random
// sub-sample of the profiled configurations and predicts the job cost from
// the configuration's feature vector.
package regtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// ErrNoTrainingData is returned when a tree is trained on an empty dataset.
var ErrNoTrainingData = errors.New("regtree: no training data")

// Params configures tree induction. The zero value is normalized by
// (*Params).withDefaults to a fully grown tree that considers every feature
// at every split.
type Params struct {
	// MaxDepth bounds the depth of the tree; 0 means unbounded.
	MaxDepth int
	// MinLeafSize is the minimum number of samples per leaf; values below 1
	// are treated as 1.
	MinLeafSize int
	// MinSamplesSplit is the minimum number of samples required to attempt a
	// split; values below 2 are treated as 2.
	MinSamplesSplit int
	// FeatureFraction is the fraction of features examined at each split
	// (random-subspace randomization). Values outside (0,1] are treated as 1.
	FeatureFraction float64
}

func (p Params) withDefaults() Params {
	if p.MinLeafSize < 1 {
		p.MinLeafSize = 1
	}
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	if p.FeatureFraction <= 0 || p.FeatureFraction > 1 {
		p.FeatureFraction = 1
	}
	return p
}

// node is one flattened tree node, packed into 24 bytes so a traversal step
// touches a single cache line. The leaf value shares storage with the split
// threshold — a node is never both — which is what keeps the struct this
// small: left < 0 marks a leaf whose value lives in thresh; internal nodes
// carry the split (feat, thresh) and both child indices. The left child is
// explicit rather than implied by preorder because a leaf re-split (see
// resplitLeaf) regrows a subtree at an interior slot with its descendants
// appended at the end of the array.
type node struct {
	thresh float64 // split threshold; the leaf value when left < 0
	feat   int32   // feature index of the split; unused on leaves
	left   int32   // left-child index; < 0 marks a leaf
	right  int32   // right-child index; unused on leaves
}

// Tree is a trained regression tree in a flattened layout: nodes[i] is one
// node, emitted in preorder by training (children always follow their
// parent). Predictions walk an index chain through one contiguous array of
// packed 24-byte nodes instead of chasing heap pointers, so every traversal
// step costs one cache line. (An earlier structure-of-arrays split of the
// node fields touched four lines per step and measurably lost to this
// layout on full-space sweeps.)
//
// Trees are grown directly into the array — there is no intermediate
// pointer representation — so an Arena-backed refit reuses the array of the
// previous fit and allocates nothing in steady state.
type Tree struct {
	nodes []node

	numFeatures int
	leaves      int
	depth       int

	// inc holds the retained training state of incrementally updatable trees
	// (see TrainIncremental); nil for trees fitted with Train.
	inc *incState
}

// appendNode appends one zeroed node and returns its index. The entry is
// written explicitly because reused array capacity still holds the previous
// fit's nodes.
func (t *Tree) appendNode() int32 {
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	return i
}

// reset clears the fitted state while keeping the array capacity for reuse.
func (t *Tree) reset(numFeatures int) {
	t.nodes = t.nodes[:0]
	t.numFeatures = numFeatures
	t.leaves = 0
	t.depth = 0
	t.inc = nil
}

// Arena owns the reusable training buffers of one trainer: the split scratch
// (including the column-major transposed sample matrix) and the sample-index
// permutation. Training through an arena reuses these across fits, so a
// steady-state refit of same-sized data allocates nothing beyond first-time
// node-array growth. An Arena is not safe for concurrent use; the trained
// trees never retain arena memory, so the trees themselves are.
type Arena struct {
	scratch splitScratch
	indices []int

	// leafOf and leafCount back TrainIncremental's per-leaf sample
	// bucketing (see buildIncState).
	leafOf    []int32
	leafCount []int32
}

// NewArena returns an empty training arena.
func NewArena() *Arena { return &Arena{} }

// ensure sizes the arena for a training set of the given shape, reusing
// existing capacity where possible. The column headers are rebuilt every call
// because the sample count (and therefore the column stride) changes.
func (a *Arena) ensure(samples, numFeatures int) {
	s := &a.scratch
	if cap(s.colsFlat) < samples*numFeatures {
		s.colsFlat = make([]float64, samples*numFeatures)
	}
	flat := s.colsFlat[:samples*numFeatures]
	if cap(s.cols) < numFeatures {
		s.cols = make([][]float64, numFeatures)
	}
	s.cols = s.cols[:numFeatures]
	for f := range s.cols {
		s.cols[f] = flat[f*samples : (f+1)*samples]
	}
	if cap(s.pairs) < samples {
		s.pairs = make([]featTarget, samples)
		s.prefixSum = make([]float64, samples+1)
		s.prefixSq = make([]float64, samples+1)
	}
	if cap(s.features) < numFeatures {
		s.features = make([]int, numFeatures)
	}
	if s.vals == nil {
		s.vals = make([]valueAgg, 0, maxDistinctForBuckets)
	}
	if cap(a.indices) < samples {
		a.indices = make([]int, samples)
	}
}

// Train fits a regression tree to the given feature matrix and targets. Every
// row of features must have the same length, and len(features) must equal
// len(targets). The rng is only used when Params.FeatureFraction < 1; it may
// be nil otherwise.
func Train(features [][]float64, targets []float64, params Params, rng *rand.Rand) (*Tree, error) {
	t := &Tree{}
	if err := NewArena().Train(t, features, targets, params, rng); err != nil {
		return nil, err
	}
	return t, nil
}

// Train fits dst to the given samples exactly like the package-level Train —
// identical structure, identical rng consumption — reusing both the arena's
// scratch and dst's node arrays. dst's previous fitted state is replaced.
func (a *Arena) Train(dst *Tree, features [][]float64, targets []float64, params Params, rng *rand.Rand) error {
	if len(features) == 0 {
		return ErrNoTrainingData
	}
	if len(features) != len(targets) {
		return fmt.Errorf("regtree: %d feature rows but %d targets", len(features), len(targets))
	}
	numFeatures := len(features[0])
	if numFeatures == 0 {
		return errors.New("regtree: feature rows are empty")
	}
	for i, row := range features {
		if len(row) != numFeatures {
			return fmt.Errorf("regtree: feature row %d has %d columns, want %d", i, len(row), numFeatures)
		}
	}
	for i, y := range targets {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("regtree: target %d is not finite: %v", i, y)
		}
	}
	params = params.withDefaults()
	if params.FeatureFraction < 1 && rng == nil {
		return errors.New("regtree: rng required when FeatureFraction < 1")
	}

	a.ensure(len(features), numFeatures)
	indices := a.indices[:len(features)]
	for i := range indices {
		indices[i] = i
	}
	// Transpose the features once: the split scans read one feature across
	// many samples, so a column-major layout turns every read into a
	// contiguous-slice access instead of a row-pointer chase.
	for f := 0; f < numFeatures; f++ {
		col := a.scratch.cols[f]
		for i, row := range features {
			col[i] = row[f]
		}
	}
	dst.reset(numFeatures)
	root := dst.appendNode()
	dst.growInto(root, a.scratch.cols, targets, indices, params, rng, 1, &a.scratch)
	return nil
}

// growInto fills the (already appended) node at index `at` with the subtree
// covering the samples referenced by indices, appending any descendants to
// the node arrays. The emitted order is preorder — each internal node is
// immediately followed by its full left subtree, then its right subtree —
// which is the layout the v1 snapshot format pins. It reports whether the
// node became a split (false: it is a leaf).
func (t *Tree) growInto(at int32, cols [][]float64, targets []float64, indices []int, params Params, rng *rand.Rand, depth int, scratch *splitScratch) bool {
	if depth > t.depth {
		t.depth = depth
	}
	// One pass computes the leaf mean and the constant-target check.
	first := targets[indices[0]]
	sum := 0.0
	constant := true
	for _, idx := range indices {
		y := targets[idx]
		sum += y
		if y != first {
			constant = false
		}
	}
	mean := sum / float64(len(indices))

	mustLeaf := len(indices) < params.MinSamplesSplit ||
		(params.MaxDepth > 0 && depth > params.MaxDepth) ||
		constant
	if !mustLeaf {
		if feature, threshold, ok := t.bestSplit(cols, targets, indices, params, rng, scratch); ok {
			left, right := partition(cols[feature], indices, threshold)
			if len(left) >= params.MinLeafSize && len(right) >= params.MinLeafSize {
				li := t.appendNode()
				t.growInto(li, cols, targets, left, params, rng, depth+1, scratch)
				ri := t.appendNode()
				t.growInto(ri, cols, targets, right, params, rng, depth+1, scratch)
				t.nodes[at] = node{thresh: threshold, feat: int32(feature), left: li, right: ri}
				return true
			}
		}
	}
	t.nodes[at] = node{thresh: mean, left: -1}
	t.leaves++
	return false
}

// featTarget pairs one sample's value along the split feature with its
// target, so bestSplit sorts a flat contiguous slice instead of chasing an
// index indirection through a reflection-based comparator.
type featTarget struct {
	v, y float64
}

// valueAgg aggregates the targets of every sample sharing one value of the
// split feature: configuration dimensions are discrete with few distinct
// values, so grouping replaces an O(n log n) sort with an O(n·k) scan.
type valueAgg struct {
	v     float64
	sum   float64
	sq    float64
	count int
}

// maxDistinctForBuckets bounds the distinct-value groups tracked by the
// bucketed split scan; features with higher cardinality (e.g. continuous
// ones) fall back to the sort-based scan.
const maxDistinctForBuckets = 32

// splitScratch holds the buffers bestSplit reuses across every node and
// feature of one Train call, avoiding per-node allocations in the planner's
// hottest loop (the speculative refits of the bagging ensemble).
type splitScratch struct {
	pairs     []featTarget
	prefixSum []float64
	prefixSq  []float64
	features  []int
	vals      []valueAgg
	cols      [][]float64
	colsFlat  []float64
}

func newSplitScratch(samples, numFeatures int) *splitScratch {
	flat := make([]float64, samples*numFeatures)
	cols := make([][]float64, numFeatures)
	for f := range cols {
		cols[f] = flat[f*samples : (f+1)*samples]
	}
	return &splitScratch{
		pairs:     make([]featTarget, samples),
		prefixSum: make([]float64, samples+1),
		prefixSq:  make([]float64, samples+1),
		features:  make([]int, numFeatures),
		vals:      make([]valueAgg, 0, maxDistinctForBuckets),
		cols:      cols,
		colsFlat:  flat,
	}
}

// bestSplit finds the axis-aligned split that minimizes the total sum of
// squared errors of the two children. It returns ok=false when no valid split
// exists (e.g. all candidate features are constant).
//
// The chosen split only depends on the set of (value, target) pairs on each
// side of a threshold — thresholds sit between distinct feature values, so
// the order of ties within the sort never changes the outcome.
func (t *Tree) bestSplit(cols [][]float64, targets []float64, indices []int, params Params, rng *rand.Rand, scratch *splitScratch) (int, float64, bool) {
	candidates := t.candidateFeatures(params, rng, scratch)

	bestSSE := math.Inf(1)
	bestFeature := -1
	bestThreshold := 0.0

	for _, f := range candidates {
		threshold, total, ok, handled := bucketedSplit(cols[f], targets, indices, params, scratch)
		if !handled {
			threshold, total, ok = sortedSplit(cols[f], targets, indices, params, scratch)
		}
		if ok && total < bestSSE {
			bestSSE = total
			bestFeature = f
			bestThreshold = threshold
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}

// bucketedSplit scans one feature by grouping the samples per distinct value
// (configuration dimensions are small discrete sets), which evaluates the
// same candidate thresholds as the sort-based scan without sorting the
// samples. handled=false means the feature has more than
// maxDistinctForBuckets distinct values and the caller must use the
// sort-based scan; ok=false (with handled=true) means no threshold satisfies
// the leaf-size constraint.
func bucketedSplit(col []float64, targets []float64, indices []int, params Params, scratch *splitScratch) (threshold, bestSSE float64, ok, handled bool) {
	vals := scratch.vals[:0]
	for _, idx := range indices {
		v := col[idx]
		y := targets[idx]
		found := false
		for vi := range vals {
			if vals[vi].v == v {
				vals[vi].sum += y
				vals[vi].sq += y * y
				vals[vi].count++
				found = true
				break
			}
		}
		if !found {
			if len(vals) == maxDistinctForBuckets {
				return 0, 0, false, false
			}
			vals = append(vals, valueAgg{v: v, sum: y, sq: y * y, count: 1})
		}
	}
	slices.SortFunc(vals, func(a, b valueAgg) int { return cmp.Compare(a.v, b.v) })

	n := len(indices)
	totalSum, totalSq := 0.0, 0.0
	for _, a := range vals {
		totalSum += a.sum
		totalSq += a.sq
	}

	bestSSE = math.Inf(1)
	leftSum, leftSq := 0.0, 0.0
	leftCount := 0
	for j := 0; j < len(vals)-1; j++ {
		leftSum += vals[j].sum
		leftSq += vals[j].sq
		leftCount += vals[j].count
		if leftCount < params.MinLeafSize || n-leftCount < params.MinLeafSize {
			continue
		}
		total := sse(leftSum, leftSq, float64(leftCount)) +
			sse(totalSum-leftSum, totalSq-leftSq, float64(n-leftCount))
		if total < bestSSE {
			bestSSE = total
			threshold = (vals[j].v + vals[j+1].v) / 2
			ok = true
		}
	}
	return threshold, bestSSE, ok, true
}

// sortedSplit is the sort-based scan used for high-cardinality features: it
// sorts (value, target) pairs and sweeps prefix sums over the sorted order
// for O(1) SSE evaluation per split position.
func sortedSplit(col []float64, targets []float64, indices []int, params Params, scratch *splitScratch) (threshold, bestSSE float64, ok bool) {
	n := len(indices)
	pairs := scratch.pairs[:n]
	prefixSum := scratch.prefixSum[:n+1]
	prefixSq := scratch.prefixSq[:n+1]
	for i, idx := range indices {
		pairs[i] = featTarget{v: col[idx], y: targets[idx]}
	}
	slices.SortFunc(pairs, func(a, b featTarget) int { return cmp.Compare(a.v, b.v) })

	for i, p := range pairs {
		prefixSum[i+1] = prefixSum[i] + p.y
		prefixSq[i+1] = prefixSq[i] + p.y*p.y
	}

	bestSSE = math.Inf(1)
	for i := params.MinLeafSize; i <= n-params.MinLeafSize; i++ {
		lo := pairs[i-1].v
		hi := pairs[i].v
		if lo == hi {
			continue
		}
		total := sse(prefixSum[i], prefixSq[i], float64(i)) +
			sse(prefixSum[n]-prefixSum[i], prefixSq[n]-prefixSq[i], float64(n-i))
		if total < bestSSE {
			bestSSE = total
			threshold = (lo + hi) / 2
			ok = true
		}
	}
	return threshold, bestSSE, ok
}

// candidateFeatures returns the features examined at a split, applying the
// random-subspace fraction when configured. The returned slice aliases
// scratch and is only valid until the next call.
func (t *Tree) candidateFeatures(params Params, rng *rand.Rand, scratch *splitScratch) []int {
	all := scratch.features[:t.numFeatures]
	for i := range all {
		all[i] = i
	}
	if params.FeatureFraction >= 1 {
		return all
	}
	k := int(math.Ceil(params.FeatureFraction * float64(t.numFeatures)))
	if k < 1 {
		k = 1
	}
	if k >= t.numFeatures {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	picked := all[:k]
	sort.Ints(picked)
	return picked
}

// sse computes sum((y - mean)^2) from the sum and sum of squares of a group.
func sse(sum, sumSq, count float64) float64 {
	if count == 0 {
		return 0
	}
	v := sumSq - sum*sum/count
	if v < 0 {
		// Guard against tiny negative values from floating point cancellation.
		return 0
	}
	return v
}

// partition reorders indices in place so the samples at or below the
// threshold come first, and returns the two halves as subslices. The order
// within each half is irrelevant: every consumer (leaf means, constant
// checks, the distinct-value split scans) depends only on the sample sets.
func partition(col []float64, indices []int, threshold float64) (left, right []int) {
	i, j := 0, len(indices)
	for i < j {
		if col[indices[i]] <= threshold {
			i++
		} else {
			j--
			indices[i], indices[j] = indices[j], indices[i]
		}
	}
	return indices[:i], indices[i:]
}

// Predict returns the tree's estimate for the given feature vector.
func (t *Tree) Predict(x []float64) (float64, error) {
	if t == nil || t.Nodes() == 0 {
		return 0, errors.New("regtree: predict on untrained tree")
	}
	if len(x) != t.numFeatures {
		return 0, fmt.Errorf("regtree: feature vector has %d columns, want %d", len(x), t.numFeatures)
	}
	return t.PredictUnchecked(x), nil
}

// PredictUnchecked is Predict without the per-call validation: the caller must
// guarantee that the tree is trained and that len(x) == NumFeatures(). The
// bagging ensemble uses it to validate a feature vector once per ensemble
// prediction instead of once per tree.
func (t *Tree) PredictUnchecked(x []float64) float64 {
	nodes := t.nodes
	i := int32(0)
	for {
		nd := nodes[i]
		if nd.left < 0 {
			return nd.thresh
		}
		if x[nd.feat] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictBatch predicts every point of a column-major feature matrix:
// cols[f][i] is feature f of point i, and the estimate of point i is written
// to out[i]. Inputs are validated once for the whole batch and the sweep
// allocates nothing. The bagging ensemble's batch sweep does not use this
// form: it gathers each point into a row and runs PredictUnchecked, so one
// gather is shared by all trees of the ensemble.
func (t *Tree) PredictBatch(cols [][]float64, out []float64) error {
	if t == nil || t.Nodes() == 0 {
		return errors.New("regtree: predict on untrained tree")
	}
	if len(cols) != t.numFeatures {
		return fmt.Errorf("regtree: feature matrix has %d columns, want %d", len(cols), t.numFeatures)
	}
	n := len(out)
	for f, col := range cols {
		if len(col) != n {
			return fmt.Errorf("regtree: feature column %d has %d points, want %d", f, len(col), n)
		}
	}
	nodes := t.nodes
	for i := 0; i < n; i++ {
		j := int32(0)
		for {
			nd := nodes[j]
			if nd.left < 0 {
				out[i] = nd.thresh
				break
			}
			if cols[nd.feat][i] <= nd.thresh {
				j = nd.left
			} else {
				j = nd.right
			}
		}
	}
	return nil
}

// Split returns the fields of one node: its split (feature, threshold, both
// child indices), or, when left < 0, a leaf whose value is thresh. No bounds
// check beyond the slice's own. The bagging ensemble's memo repair reads an
// updated leaf's value, and partitions points through a regrown subtree, off
// these fields directly.
func (t *Tree) Split(node int32) (feat int32, thresh float64, left, right int32) {
	nd := t.nodes[node]
	return nd.feat, nd.thresh, nd.left, nd.right
}

// Nodes returns the number of nodes of the flattened tree.
func (t *Tree) Nodes() int { return len(t.nodes) }

// PredictLeafUnchecked is PredictUnchecked returning, alongside the estimate,
// the index of the leaf the walk ended on. The bagging ensemble's repair
// sweep groups the swept points by covering leaf with it, so that the points
// an updated leaf covers are found without a scan.
func (t *Tree) PredictLeafUnchecked(x []float64) (float64, int32) {
	nodes := t.nodes
	i := int32(0)
	for {
		nd := nodes[i]
		if nd.left < 0 {
			return nd.thresh, i
		}
		if x[nd.feat] <= nd.thresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// NumFeatures returns the number of input features the tree was trained on.
func (t *Tree) NumFeatures() int { return t.numFeatures }

// Leaves returns the number of leaves in the tree.
func (t *Tree) Leaves() int { return t.leaves }

// Depth returns the depth of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int { return t.depth }
