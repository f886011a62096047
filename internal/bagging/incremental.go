package bagging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
	"repro/internal/regtree"
)

// This file implements the ensemble's one-sample update path: an ensemble
// fitted with Params.Incremental can fold a new (x, y) sample into its trees
// without refitting, and CloneInto snapshots a fitted ensemble into reusable
// storage so the planner's speculation branches each get an independent,
// cheaply derived copy to update.

// ErrNotIncremental is returned by Update and CloneInto when the ensemble was
// not fitted with Params.Incremental.
var ErrNotIncremental = errors.New("bagging: ensemble was not fitted with Params.Incremental")

// Incremental reports whether the ensemble retains the per-tree state needed
// by Update and CloneInto.
func (e *Ensemble) Incremental() bool {
	return e.params.Incremental && len(e.trees) > 0 && e.trees[0].Incremental()
}

// IncrementalCapable reports whether fits of this ensemble will support
// Update and CloneInto, i.e. whether Params.Incremental is set. Unlike
// Incremental it does not require a completed fit, which is what lets the
// planner probe a factory's products before planning starts instead of
// failing mid-run (see model.SupportsIncremental).
func (e *Ensemble) IncrementalCapable() bool { return e.params.Incremental }

// Updates returns the number of samples folded in by Update since the last
// Fit.
func (e *Ensemble) Updates() int { return e.updates }

// updateStream mixes (seed, tree, sample index) into one SplitMix64 draw, the
// key of every randomized decision of one tree's view of one updated sample.
func updateStream(seed int64, tree, sample int) uint64 {
	return mix64(uint64(seed)*0x9E3779B97F4A7C15 +
		uint64(tree)*0xD1B54A32D192ED03 +
		uint64(sample)*0x8CB92BA72F3D8DD7 + 0x2545F4914F6CDD1D)
}

// inclusionMultiplicity maps one uniform draw to the number of times a new
// sample enters a tree's bootstrap stream. A bootstrap resample of rate
// SampleFraction includes a given sample Binomial(n, fraction/n) ≈
// Poisson(fraction) times, so the multiplicity follows the Poisson CDF at
// that rate — deterministic in the draw, independent of history.
func inclusionMultiplicity(u uint64, rate float64) int {
	// Uniform in [0, 1) from the top 53 bits.
	x := float64(u>>11) / (1 << 53)
	p := math.Exp(-rate)
	cum := p
	k := 0
	for x >= cum && k < 16 {
		k++
		p *= rate / float64(k)
		cum += p
	}
	return k
}

// Update folds one sample into the fitted ensemble: each tree receives the
// sample a deterministic number of times — the Poisson-distributed bootstrap
// inclusion weight keyed by (seed, tree, sample index) — and inserts it via
// regtree.Insert (leaf mean update, re-split past the min-samples threshold).
//
// The weights depend only on the ensemble's seed and the count of updates
// since the last Fit, never on goroutine scheduling, so clones of one fitted
// ensemble that apply the same sample sequence end up bitwise identical —
// this is what keeps the planner's incremental speculation worker-count
// independent.
func (e *Ensemble) Update(x []float64, y float64) error {
	if !e.Trained() {
		return ErrNotTrained
	}
	if !e.Incremental() {
		return ErrNotIncremental
	}
	if len(x) != e.numFeatures {
		return fmt.Errorf("bagging: feature vector has %d columns, want %d", len(x), e.numFeatures)
	}
	if cap(e.lastAffected) < len(e.trees) {
		e.lastAffected = make([]int32, len(e.trees))
	}
	e.lastAffected = e.lastAffected[:len(e.trees)]
	k := e.updates
	needRng := e.params.Tree.FeatureFraction > 0 && e.params.Tree.FeatureFraction < 1
	for ti, tree := range e.trees {
		draw := updateStream(e.seed, ti, k)
		m := inclusionMultiplicity(draw, e.params.SampleFraction)
		if m == 0 {
			e.lastAffected[ti] = -1
			continue
		}
		var rng *rand.Rand
		if needRng {
			rng = rand.New(rand.NewSource(int64(draw ^ 0xA5A5A5A5A5A5A5A5)))
		}
		affected := -1
		for j := 0; j < m; j++ {
			node, err := tree.Insert(x, y, rng)
			if err != nil {
				return fmt.Errorf("bagging: updating tree %d: %w", ti, err)
			}
			if affected < 0 {
				// Later duplicates land inside the first insert's region, so
				// the first touched node bounds everything this tree changed.
				affected = node
			}
		}
		e.lastAffected[ti] = int32(affected)
	}
	e.updates = k + 1
	// The repair matrix describes the pre-update trees; one pending update
	// is repairable (AppendRepairedByLastUpdate), a second unrepaired one
	// invalidates the state.
	if e.repairN > 0 {
		if e.repairDirty {
			e.repairN = 0
		} else {
			e.repairDirty = true
		}
	}
	return nil
}

// AppendRepairedByLastUpdate refreshes, in place, the predictive Gaussians
// of every point the last Update may have moved, appends those point indices
// (ascending) to ids, and returns the extended slice plus whether the repair
// state was usable — false (with nil error) means the caller must fall back
// to re-predicting every point.
//
// It requires a PredictBatchRepair sweep of the same n points followed by
// exactly one Update. The key structural fact: an Insert only ever modifies
// the subtree at the covering leaf — so in each updated tree, the moved
// points are exactly those whose memoized leaf index is the affected node
// (found by one equality scan, no root-path re-filtering), and their new
// prediction is the updated leaf's value (one constant), or a short walk
// through the regrown subtree when the leaf re-split. Unchanged trees are
// never touched, and each repaired point's Gaussian is recomputed from the
// per-tree matrix in tree order — the same accumulation order as accumRow —
// so the repaired memo stays bitwise identical to a fresh prediction sweep.
//
// Columns must be exactly n long. AppendRepairedByLastUpdate mutates the
// repair matrix and scratch, so calls on one ensemble must not run
// concurrently with anything else on it.
func (e *Ensemble) AppendRepairedByLastUpdate(cols [][]float64, n int, ids []int32, preds []numeric.Gaussian) ([]int32, bool, error) {
	if !e.Trained() {
		return ids, false, ErrNotTrained
	}
	if e.repairN != n || !e.repairDirty {
		return ids, false, nil
	}
	if len(cols) != e.numFeatures {
		return ids, false, fmt.Errorf("bagging: feature matrix has %d columns, want %d", len(cols), e.numFeatures)
	}
	for f, col := range cols {
		if len(col) != n {
			return ids, false, fmt.Errorf("bagging: feature column %d has %d points, want %d", f, len(col), n)
		}
	}
	if len(preds) < n {
		return ids, false, fmt.Errorf("bagging: prediction array has %d slots, want at least %d", len(preds), n)
	}
	e.repairDirty = false
	if len(e.lastAffected) == 0 {
		return ids, true, nil
	}
	T := len(e.trees)
	mat := e.repairPreds[:T*n]
	leaves := e.repairLeaf[:T*n]
	if cap(e.markBuf) < n {
		e.markBuf = make([]bool, n)
	}
	mark := e.markBuf[:n]
	for i := range mark {
		mark[i] = false
	}
	for ti, tree := range e.trees {
		a := e.lastAffected[ti]
		if a < 0 {
			continue
		}
		// The affected node was the covering leaf before the insert, so the
		// points it moved are exactly those whose memoized leaf is that
		// node — one sequential equality scan over this tree's leaf row.
		// (A root-leaf tree is just the a == 0 instance: every point
		// matches.) No cross-tree mark skip: this tree's matrix row must
		// refresh for every matching point, marked or not.
		row := mat[ti*n : (ti+1)*n : (ti+1)*n]
		leafRow := leaves[ti*n : (ti+1)*n : (ti+1)*n]
		if v, isLeaf := tree.NodeValue(int(a)); isLeaf {
			// Leaf mean update: one constant covers every matching point,
			// and the leaf assignment is unchanged.
			for i, l := range leafRow {
				if l == a {
					row[i] = v
					mark[i] = true
				}
			}
		} else {
			// The leaf re-split: matching points diverge through the
			// regrown subtree, entered directly at the affected node, and
			// their leaf assignments move to the regrown leaves.
			if cap(e.rowScratch) < e.numFeatures {
				e.rowScratch = make([]float64, e.numFeatures)
			}
			x := e.rowScratch[:e.numFeatures]
			for i, l := range leafRow {
				if l != a {
					continue
				}
				for f, col := range cols {
					x[f] = col[i]
				}
				row[i], leafRow[i] = tree.PredictLeafFromUnchecked(int(a), x)
				mark[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !mark[i] {
			continue
		}
		var sum, sumSq float64
		for t := 0; t < T; t++ {
			p := mat[t*n+i]
			sum += p
			sumSq += p * p
		}
		preds[i] = e.gaussianFromSums(sum, sumSq)
		ids = append(ids, int32(i))
	}
	return ids, true, nil
}

// CloneInto implements the model layer's incremental-cloning contract: dst
// must be an *Ensemble (typically produced by the same Factory). The fitted
// state — trees with their retained samples, the update counter, the
// deterministic seed — is deep-copied into dst's reusable storage (each tree
// clones into a per-tree arena), so repeated clones into one dst allocate
// almost nothing. dst's own rng is left untouched; clones are meant to be
// updated and queried, not refitted.
//
// Cloning only reads the source, so concurrent CloneInto calls from one
// fitted ensemble into distinct destinations are safe.
func (e *Ensemble) CloneInto(dst any) error {
	d, ok := dst.(*Ensemble)
	if !ok {
		return fmt.Errorf("bagging: CloneInto destination is %T, want *Ensemble", dst)
	}
	if !e.Trained() {
		return ErrNotTrained
	}
	if !e.Incremental() {
		return ErrNotIncremental
	}
	if d == e {
		return nil
	}
	d.params = e.params
	d.seed = e.seed
	d.numFeatures = e.numFeatures
	d.updates = e.updates
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(e.seed ^ 0x6C62272E07BB0142))
	}
	if cap(d.trees) < len(e.trees) {
		trees := make([]*regtree.Tree, len(e.trees))
		copy(trees, d.trees)
		d.trees = trees
	}
	d.trees = d.trees[:len(e.trees)]
	for i, tree := range e.trees {
		if d.trees[i] == nil {
			d.trees[i] = &regtree.Tree{}
		}
		tree.CloneInto(d.trees[i])
	}
	d.lastAffected = append(d.lastAffected[:0], e.lastAffected...)
	d.repairN = e.repairN
	d.repairDirty = e.repairDirty
	if e.repairN > 0 {
		d.repairPreds = append(d.repairPreds[:0], e.repairPreds[:len(e.trees)*e.repairN]...)
		d.repairLeaf = append(d.repairLeaf[:0], e.repairLeaf[:len(e.trees)*e.repairN]...)
	}
	return nil
}
