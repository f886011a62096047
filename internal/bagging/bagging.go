package bagging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
	"repro/internal/regtree"
)

// ErrNotTrained is returned when Predict is called before Fit.
var ErrNotTrained = errors.New("bagging: ensemble is not trained")

// DefaultNumTrees is the ensemble size used by the paper's prototype
// ("a bagging ensemble of 10 random trees", §5.2).
const DefaultNumTrees = 10

// Params configures the ensemble. The model itself is fixed by the paper:
// every tree is fully grown (regtree) on a bootstrap resample of n of the n
// training samples, and the predictive Gaussian is the trees' mean and
// spread, with no floor on the spread.
type Params struct {
	// NumTrees is the number of base learners; values below 1 fall back to
	// DefaultNumTrees.
	NumTrees int
	// Incremental makes Fit retain each tree's training samples and leaf
	// membership (regtree.TrainIncremental), enabling Update and CloneInto.
	// Retention changes neither the fitted trees nor the rng stream — only
	// memory is spent — so predictions are bitwise identical either way.
	Incremental bool
}

func (p Params) withDefaults() Params {
	if p.NumTrees < 1 {
		p.NumTrees = DefaultNumTrees
	}
	return p
}

// Ensemble is a bagging ensemble of regression trees. An Ensemble is not safe
// for concurrent mutation: call Fit from a single goroutine; Predict may be
// called concurrently once Fit has returned.
type Ensemble struct {
	params      Params
	rng         *rand.Rand
	seed        int64
	trees       []*regtree.Tree
	numFeatures int

	// updates counts the samples folded in by Update (and not undone) since
	// the last Fit; it is the sample index that keys the deterministic
	// per-tree inclusion weights, so copies of one fitted ensemble apply
	// identical weights to their next sample regardless of which goroutine
	// updates them.
	updates int
	// journal holds one frame per Update not yet undone, oldest first (see
	// Undo); its top frame names the nodes the last Update touched.
	journal []updateFrame

	// Resample buffers and the training arena, reused across fits. Lynceus'
	// path simulation refits the same ensemble once per speculated outcome,
	// so per-fit allocations sit directly on the planner's hot path: the
	// trees are trained in place through one arena (split scratch, transposed
	// sample matrix, index permutation), and the tree objects themselves are
	// recycled, so a steady-state refit allocates nothing. Trained trees
	// never retain arena memory, which makes the reuse safe.
	subFeatures [][]float64
	subTargets  []float64
	arena       *regtree.Arena

	// Memo-repair state (PredictBatchRepair / RepairLastUpdate), over the n =
	// repairN points of the last repair sweep (0 = no valid state).
	// repairPreds is a tree-major matrix — repairPreds[t*n+i] is tree t's
	// prediction for point i — that turns post-Update repair into per-tree
	// stores instead of whole-ensemble re-walks. repairPerm and repairSegs
	// are the leaf → points index that finds the points to store to:
	// repairPerm[t*n:(t+1)*n] lists the point indices grouped by the leaf of
	// tree t covering them, and repairSegs[t][node] is a leaf's (start, len)
	// slice of that row. An Update's affected node was the covering leaf
	// before the insert, so the points it moved in tree t are exactly that
	// leaf's segment; when the leaf re-split, the segment is re-partitioned
	// in place among the regrown leaves (the affected node keeps its entry,
	// now the range of its subtree, which is what Undo stores the old value
	// over). The order of points inside a segment is therefore history
	// dependent; which points a segment holds, and every value derived from
	// them, is not. repairDirty records that exactly one Update — the top
	// journal frame's — has been applied since the state was last consistent.
	repairPreds []float64
	repairPerm  []int32
	repairSegs  [][]segment
	repairN     int
	repairDirty bool

	// markBuf flags the points a repair has already listed (all false between
	// calls); leafScratch is one tree's point → leaf row during the repair
	// sweep's counting sort.
	markBuf     []bool
	leafScratch []int32
}

// segment is one leaf's slice of its tree's row of the leaf → points index.
type segment struct{ start, n int32 }

// New creates an untrained ensemble. All randomness (the bootstrap
// resampling) is drawn from the given seed, so fits are reproducible.
func New(params Params, seed int64) *Ensemble {
	return &Ensemble{
		params: params.withDefaults(),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
}

// Fit trains the ensemble on the given samples, replacing any previous state.
func (e *Ensemble) Fit(features [][]float64, targets []float64) error {
	if len(features) == 0 {
		return errors.New("bagging: no training data")
	}
	if len(features) != len(targets) {
		return fmt.Errorf("bagging: %d feature rows but %d targets", len(features), len(targets))
	}

	n := len(features)
	if cap(e.subFeatures) < n {
		e.subFeatures = make([][]float64, n)
		e.subTargets = make([]float64, n)
	}
	subFeatures := e.subFeatures[:n]
	subTargets := e.subTargets[:n]

	// Train into recycled tree objects through the shared arena: the rng
	// stream and the induction are identical to a from-scratch fit, so the
	// fitted trees are bitwise the same — only the allocations disappear. A
	// mid-loop training error (malformed rows or non-finite targets in the
	// drawn subsample) leaves the ensemble partially refitted; no caller
	// continues using an ensemble whose Fit failed.
	if e.arena == nil {
		e.arena = regtree.NewArena()
	}
	if cap(e.trees) < e.params.NumTrees {
		trees := make([]*regtree.Tree, e.params.NumTrees)
		copy(trees, e.trees)
		e.trees = trees[:len(e.trees)]
	}
	trees := e.trees[:e.params.NumTrees]
	for i := 0; i < e.params.NumTrees; i++ {
		for j := 0; j < n; j++ {
			idx := e.rng.Intn(n)
			subFeatures[j] = features[idx]
			subTargets[j] = targets[idx]
		}
		if trees[i] == nil {
			trees[i] = &regtree.Tree{}
		}
		var err error
		if e.params.Incremental {
			err = e.arena.TrainIncremental(trees[i], subFeatures, subTargets)
		} else {
			err = e.arena.Train(trees[i], subFeatures, subTargets)
		}
		if err != nil {
			return fmt.Errorf("bagging: training tree %d: %w", i, err)
		}
	}
	e.trees = trees
	e.numFeatures = len(features[0])
	e.updates = 0
	e.journal = e.journal[:0]
	e.repairN = 0
	e.repairDirty = false
	return nil
}

// Trained reports whether the ensemble has been fitted.
func (e *Ensemble) Trained() bool { return len(e.trees) > 0 }

// NumTrees returns the number of base learners in the ensemble.
func (e *Ensemble) NumTrees() int { return e.params.NumTrees }

// Predict returns the predictive distribution for the given feature vector:
// a Gaussian whose mean and standard deviation are the mean and spread of the
// individual tree predictions, as assumed by the paper's EIc computation.
//
// The inputs are validated once per call — every tree was trained on the same
// feature arity, so the per-tree traversal cannot fail after this check.
func (e *Ensemble) Predict(x []float64) (numeric.Gaussian, error) {
	if !e.Trained() {
		return numeric.Gaussian{}, ErrNotTrained
	}
	if len(x) != e.numFeatures {
		return numeric.Gaussian{}, fmt.Errorf("bagging: feature vector has %d columns, want %d", len(x), e.numFeatures)
	}
	sum, sumSq := accumRow(e.trees, x)
	return e.gaussianFromSums(sum, sumSq), nil
}

// accumRow walks one feature row through every tree and returns the sum and
// sum of squares of the tree predictions. Predict and PredictBatch share it,
// which keeps the two paths bitwise identical — and keeps the hot traversal
// in a small frame of its own, where the tree walk inlines without competing
// for registers with the callers' sweep bookkeeping (inlining it into the
// batch loop measurably slowed the walk down).
func accumRow(trees []*regtree.Tree, x []float64) (sum, sumSq float64) {
	for _, tree := range trees {
		p := tree.PredictUnchecked(x)
		sum += p
		sumSq += p * p
	}
	return sum, sumSq
}

// PredictBatch predicts every point of a column-major feature matrix
// (cols[f][i] is feature f of point i), writing the predictive distribution
// of point i to out[i]. Inputs are validated once for the whole sweep and
// nothing is allocated per point: each point is gathered from the columns
// into a stack row once and that row is shared by every tree of the
// ensemble (accumRow), so the sweep pays one gather per point instead of
// one validated call per point. Within one point the trees accumulate in
// the same order as Predict, so the emitted Gaussians are bitwise identical
// to the scalar path and the planner can batch its sweeps without changing
// any recommendation.
//
// The gathered rows live on the caller's stack (for typical arities), so
// concurrent PredictBatch calls on one fitted ensemble are safe, like
// Predict.
func (e *Ensemble) PredictBatch(cols [][]float64, out []numeric.Gaussian) error {
	if !e.Trained() {
		return ErrNotTrained
	}
	if len(cols) != e.numFeatures {
		return fmt.Errorf("bagging: feature matrix has %d columns, want %d", len(cols), e.numFeatures)
	}
	n := len(out)
	for f, col := range cols {
		if len(col) != n {
			return fmt.Errorf("bagging: feature column %d has %d points, want %d", f, len(col), n)
		}
	}
	m := e.numFeatures
	var rowsArr [rowSlots * rowStride]float64
	rows := rowsArr[:]
	stride := rowStride
	if m > rowStride {
		// Degenerate arities beyond the stack budget fall back to a heap
		// buffer (one allocation per sweep, not per point).
		stride = m
		rows = make([]float64, rowSlots*stride)
	}
	trees := e.trees
	for i := 0; i < n; i++ {
		// Rotate the gather across rowSlots distinct rows: re-gathering every
		// point into one fixed row makes each point's stores alias the
		// previous point's still-speculative walk loads, and the resulting
		// memory-order stalls measurably serialized the sweep.
		off := (i % rowSlots) * stride
		x := rows[off : off+m : off+m]
		for f, col := range cols {
			x[f] = col[i]
		}
		sum, sumSq := accumRow(trees, x)
		out[i] = e.gaussianFromSums(sum, sumSq)
	}
	return nil
}

// rowSlots is the number of gather rows PredictBatch rotates across;
// rowStride is the per-row stack budget in float64s (wider spaces spill the
// rotation to one heap buffer per sweep).
const (
	rowSlots  = 8
	rowStride = 16
)

// PredictBatchRepair is PredictBatch plus memo-repair bookkeeping: alongside
// each point's Gaussian it records every individual tree's prediction in a
// tree-major matrix and groups the points by covering leaf per tree (one
// counting sort per tree), which is what lets RepairLastUpdate refresh a
// one-sample update's affected points without re-walking any unchanged tree
// or scanning for the points. The emitted Gaussians are bitwise identical to
// PredictBatch (same traversals, same accumulation order) — and an ensemble
// not fitted with Params.Incremental, which can never Update, does just that
// and keeps no repair state. The sweep is refused while Updates are pending:
// it would rebuild the state for trees Undo is yet to roll back.
// Predict/PredictBatch stay concurrency-safe afterwards, but
// PredictBatchRepair itself mutates ensemble state and must not run
// concurrently with anything on the same ensemble.
func (e *Ensemble) PredictBatchRepair(cols [][]float64, out []numeric.Gaussian) error {
	if !e.Trained() {
		return ErrNotTrained
	}
	if len(e.journal) > 0 {
		return fmt.Errorf("bagging: repair sweep with %d updates pending", len(e.journal))
	}
	if !e.params.Incremental {
		// No Update can follow a fit that retained nothing, so there is
		// nothing to repair and nothing worth recording.
		e.repairN = 0
		return e.PredictBatch(cols, out)
	}
	if len(cols) != e.numFeatures {
		return fmt.Errorf("bagging: feature matrix has %d columns, want %d", len(cols), e.numFeatures)
	}
	n := len(out)
	for f, col := range cols {
		if len(col) != n {
			return fmt.Errorf("bagging: feature column %d has %d points, want %d", f, len(col), n)
		}
	}
	m := e.numFeatures
	var rowsArr [rowSlots * rowStride]float64
	rows := rowsArr[:]
	stride := rowStride
	if m > rowStride {
		stride = m
		rows = make([]float64, rowSlots*stride)
	}
	trees := e.trees
	if cap(e.repairPreds) < len(trees)*n {
		e.repairPreds = make([]float64, len(trees)*n)
	}
	if cap(e.repairPerm) < len(trees)*n {
		e.repairPerm = make([]int32, len(trees)*n)
	}
	mat := e.repairPreds[:len(trees)*n]
	perm := e.repairPerm[:len(trees)*n]
	for i := 0; i < n; i++ {
		off := (i % rowSlots) * stride
		x := rows[off : off+m : off+m]
		for f, col := range cols {
			x[f] = col[i]
		}
		sum, sumSq := accumRowStore(trees, x, mat, perm, n, i)
		out[i] = e.gaussianFromSums(sum, sumSq)
	}
	e.indexLeaves(n)
	e.repairN = n
	e.repairDirty = false
	return nil
}

// accumRowStore is accumRow with a per-tree store into the repair matrices
// (mat[t*n+i] = tree t's prediction, leaves[t*n+i] = the leaf it ended on).
// Kept as its own small frame for the same codegen reason as accumRow.
func accumRowStore(trees []*regtree.Tree, x []float64, mat []float64, leaves []int32, n, i int) (sum, sumSq float64) {
	for t, tree := range trees {
		p, leaf := tree.PredictLeafUnchecked(x)
		mat[t*n+i] = p
		leaves[t*n+i] = leaf
		sum += p
		sumSq += p * p
	}
	return sum, sumSq
}

// segmentTables resizes the per-tree list of segment tables to n trees,
// keeping the tables (and their capacity) it already holds.
func segmentTables(tables [][]segment, n int) [][]segment {
	if cap(tables) < n {
		tables = append(tables[:cap(tables)], make([][]segment, n-cap(tables))...)
	}
	return tables[:n]
}

// nodeSlack is the spare per-tree capacity of the segment tables, so the
// nodes a few nested re-splits append do not reallocate them.
const nodeSlack = 16

// indexLeaves turns the point → leaf rows the repair sweep left in
// repairPerm into the leaf → points index, one counting sort per tree: count
// the points per leaf, lay the segments out in node order, scatter the point
// indices (ascending within a segment).
func (e *Ensemble) indexLeaves(n int) {
	e.repairSegs = segmentTables(e.repairSegs, len(e.trees))
	if cap(e.leafScratch) < n {
		e.leafScratch = make([]int32, n)
	}
	for ti, tree := range e.trees {
		row := e.repairPerm[ti*n : (ti+1)*n]
		leafOf := append(e.leafScratch[:0], row...)
		segs := e.repairSegs[ti]
		if nodes := tree.Nodes(); cap(segs) < nodes {
			segs = make([]segment, nodes, nodes+nodeSlack)
		} else {
			segs = segs[:nodes]
			for k := range segs {
				segs[k] = segment{}
			}
		}
		for _, leaf := range leafOf {
			segs[leaf].n++
		}
		start := int32(0)
		for k := range segs {
			segs[k].start, start = start, start+segs[k].n
			segs[k].n = 0
		}
		for i, leaf := range leafOf {
			s := &segs[leaf]
			row[s.start+s.n] = int32(i)
			s.n++
		}
		e.repairSegs[ti] = segs
	}
}

// gaussianFromSums turns the sum and sum of squares of the tree predictions
// into the predictive Gaussian. Predict and PredictBatch share it so the two
// paths stay bitwise identical. It is kept out of line for the codegen reason
// accumRow gives: small enough to inline, it would be inlined into
// PredictBatch's row loop, and that form measurably slowed the sweep.
//
//go:noinline
func (e *Ensemble) gaussianFromSums(sum, sumSq float64) numeric.Gaussian {
	n := float64(len(e.trees))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return numeric.Gaussian{Mean: mean, StdDev: math.Sqrt(variance)}
}
