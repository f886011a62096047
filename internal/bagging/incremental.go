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
// without refitting (Update) and take it out again (Undo), and CloneInto
// snapshots a fitted ensemble into reusable storage. The planner speculates
// on one working copy per workspace — update, sweep, undo, nested one level
// per lookahead step — instead of copying the ensemble for every outcome.

// ErrNotIncremental is returned by Update and CloneInto when the ensemble was
// not fitted with Params.Incremental.
var ErrNotIncremental = errors.New("bagging: ensemble was not fitted with Params.Incremental")

// ErrNothingToUndo is returned by Undo when no Update is pending: none was
// applied since the last Fit or CloneInto, or all were undone.
var ErrNothingToUndo = errors.New("bagging: no update to undo")

// updateFrame is the undo record of one Update. The trees journal their own
// inserts (regtree.Mark); the frame adds what the ensemble layered on top.
type updateFrame struct {
	// affected[t] is the node of tree t the update touched — its covering
	// leaf before the insert — or -1 when the sample was not included in that
	// tree's stream.
	affected []int32
	// repaired records that RepairLastUpdate brought the repair state up to
	// this update, so Undo must take it back: oldVals[t] is the value the
	// affected leaf of tree t predicted before (one constant per touched
	// tree, since every point of the segment sat on that leaf).
	repaired bool
	oldVals  []float64
}

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
	return numeric.SplitMix64(uint64(seed)*0x9E3779B97F4A7C15 +
		uint64(tree)*0xD1B54A32D192ED03 +
		uint64(sample)*0x8CB92BA72F3D8DD7 + 0x2545F4914F6CDD1D)
}

// inclusionMultiplicity maps one uniform draw to the number of times a new
// sample enters a tree's bootstrap stream. A bootstrap resample of n out of
// n includes a given sample Binomial(n, 1/n) ≈ Poisson(1) times, so the
// multiplicity follows the Poisson(1) CDF — deterministic in the draw,
// independent of history.
func inclusionMultiplicity(u uint64) int {
	// Uniform in [0, 1) from the top 53 bits.
	x := float64(u>>11) / (1 << 53)
	p := math.Exp(-1)
	cum := p
	k := 0
	for x >= cum && k < 16 {
		k++
		p *= 1 / float64(k)
		cum += p
	}
	return k
}

// Update folds one sample into the fitted ensemble: each tree receives the
// sample a deterministic number of times — the Poisson-distributed bootstrap
// inclusion weight keyed by (seed, tree, sample index) — and inserts it via
// regtree.Insert (leaf mean update, re-split once the leaf's targets differ).
//
// The weights depend only on the ensemble's seed and the count of updates
// since the last Fit, never on goroutine scheduling, so copies of one fitted
// ensemble that apply the same sample sequence end up bitwise identical —
// this is what keeps the planner's incremental speculation worker-count
// independent.
//
// Every Update is journaled until Undo takes it back or the next Fit or
// CloneInto (into the receiver) drops the journal; an Update that fails
// leaves the ensemble as it was.
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
	d := len(e.journal)
	if d < cap(e.journal) {
		e.journal = e.journal[:d+1]
	} else {
		e.journal = append(e.journal, updateFrame{})
	}
	fr := &e.journal[d]
	fr.repaired = false
	if cap(fr.affected) < len(e.trees) {
		fr.affected = make([]int32, len(e.trees))
		fr.oldVals = make([]float64, len(e.trees))
	}
	fr.affected = fr.affected[:len(e.trees)]
	k := e.updates
	for ti, tree := range e.trees {
		m := inclusionMultiplicity(updateStream(e.seed, ti, k))
		fr.affected[ti] = -1
		if m == 0 {
			continue
		}
		tree.Mark()
		for j := 0; j < m; j++ {
			node, err := tree.Insert(x, y)
			if err != nil {
				// Take back what the earlier trees (and this one's earlier
				// duplicates) absorbed.
				tree.Rollback()
				for tj := 0; tj < ti; tj++ {
					if fr.affected[tj] >= 0 {
						e.trees[tj].Rollback()
					}
				}
				e.journal = e.journal[:d]
				return fmt.Errorf("bagging: updating tree %d: %w", ti, err)
			}
			if j == 0 {
				// Later duplicates land inside the first insert's region, so
				// the first touched node bounds everything this tree changed.
				fr.affected[ti] = int32(node)
			}
		}
	}
	e.updates = k + 1
	// The repair state describes the pre-update trees; one pending update is
	// repairable (RepairLastUpdate), a second unrepaired one invalidates it.
	if e.repairN > 0 {
		if e.repairDirty {
			e.repairN = 0
			e.repairDirty = false
		} else {
			e.repairDirty = true
		}
	}
	return nil
}

// RepairLastUpdate refreshes, in place, the predictive Gaussians of every
// point the last Update may have moved; it appends those point indices to ids
// and the Gaussians they held to old (index-aligned, in no particular order —
// what Undo's caller needs to restore the array), and reports whether the
// repair state was usable — false (with nil error) means the caller must fall
// back to re-predicting every point.
//
// It requires a PredictBatchRepair sweep of the same len(preds) points
// followed by exactly one Update. The key structural fact: an Insert only
// ever modifies the subtree at the covering leaf — so in each updated tree,
// the moved points are exactly the affected leaf's segment of the leaf →
// points index (no scan), and their new prediction is the updated leaf's
// value (one constant), or, when the leaf re-split, the value of the regrown
// leaf the point falls to: the segment is partitioned down the regrown
// subtree in place, straight off the column-major matrix. Unchanged trees are
// never touched, and each repaired point's Gaussian is recomputed from the
// per-tree matrix in tree order — the same accumulation order as accumRow —
// so the repaired memo stays bitwise identical to a fresh prediction sweep.
//
// RepairLastUpdate mutates the repair state and scratch, so calls on one
// ensemble must not run concurrently with anything else on it.
func (e *Ensemble) RepairLastUpdate(cols [][]float64, preds []numeric.Gaussian, ids []int32, old []numeric.Gaussian) ([]int32, []numeric.Gaussian, bool, error) {
	if !e.Trained() {
		return ids, old, false, ErrNotTrained
	}
	n := len(preds)
	if e.repairN != n || !e.repairDirty {
		return ids, old, false, nil
	}
	if len(cols) != e.numFeatures {
		return ids, old, false, fmt.Errorf("bagging: feature matrix has %d columns, want %d", len(cols), e.numFeatures)
	}
	for f, col := range cols {
		if len(col) != n {
			return ids, old, false, fmt.Errorf("bagging: feature column %d has %d points, want %d", f, len(col), n)
		}
	}
	// Dirty means the top frame's update is the one pending.
	fr := &e.journal[len(e.journal)-1]
	fr.repaired = true
	e.repairDirty = false
	T := len(e.trees)
	mat := e.repairPreds[:T*n]
	if cap(e.markBuf) < n {
		e.markBuf = make([]bool, n)
	}
	mark := e.markBuf[:n]
	first := len(ids)
	for ti, tree := range e.trees {
		a := fr.affected[ti]
		if a < 0 {
			continue
		}
		// The affected node was the covering leaf before the insert, so the
		// points it moved are that leaf's segment. (A root-leaf tree is just
		// the a == 0 instance: the segment is every point.) No cross-tree
		// mark skip: this tree's matrix row must refresh for every point of
		// the segment, listed already or not.
		segs := e.repairSegs[ti]
		seg := segs[a]
		row := mat[ti*n : (ti+1)*n : (ti+1)*n]
		pts := e.repairPerm[ti*n+int(seg.start):][:seg.n:seg.n]
		if len(pts) > 0 {
			fr.oldVals[ti] = row[pts[0]]
		}
		for _, p := range pts {
			if !mark[p] {
				mark[p] = true
				ids = append(ids, p)
			}
		}
		if _, v, left, _ := tree.Split(a); left < 0 {
			// Leaf mean update: one constant covers the segment, and the
			// leaf assignment is unchanged.
			for _, p := range pts {
				row[p] = v
			}
			continue
		}
		// The leaf re-split: the segment's points diverge through the regrown
		// subtree, whose leaves are all freshly appended nodes (an empty
		// segment still gives each of them its empty entry).
		for len(segs) < tree.Nodes() {
			segs = append(segs, segment{})
		}
		e.repairSegs[ti] = segs
		repartition(tree, a, cols, row, pts, seg.start, segs)
	}
	for _, id := range ids[first:] {
		mark[id] = false
		var sum, sumSq float64
		for t := 0; t < T; t++ {
			p := mat[t*n+int(id)]
			sum += p
			sumSq += p * p
		}
		old = append(old, preds[id])
		preds[id] = e.gaussianFromSums(sum, sumSq)
	}
	return ids, old, true, nil
}

// repartition distributes pts — the points covered by the given node, stored
// at offset base of the tree's index row — over the leaves below it: at a
// split the points are partitioned in place by the split's column, at a leaf
// they become the leaf's segment and take its value in row. The entries of
// split nodes are left alone.
func repartition(tree *regtree.Tree, node int32, cols [][]float64, row []float64, pts []int32, base int32, segs []segment) {
	feat, thresh, left, right := tree.Split(node)
	if left < 0 {
		segs[node] = segment{start: base, n: int32(len(pts))}
		for _, p := range pts {
			row[p] = thresh
		}
		return
	}
	col := cols[feat]
	i, j := 0, len(pts)
	for i < j {
		if col[pts[i]] <= thresh {
			i++
		} else {
			j--
			pts[i], pts[j] = pts[j], pts[i]
		}
	}
	repartition(tree, left, cols, row, pts[:i], base, segs)
	repartition(tree, right, cols, row, pts[i:], base+int32(i), segs)
}

// RepairState returns a canonical copy of the repair state for tests and
// debugging — the per-tree prediction matrix (tree-major, preds[t*n+i]) and,
// from the leaf → points index, the leaf of tree t whose segment holds point
// i (leafOf[t*n+i]) — or nils while the state is invalid or has an update
// pending. The order of points inside a segment depends on the updates applied
// and undone so far; this form does not.
func (e *Ensemble) RepairState() (preds []float64, leafOf []int32) {
	if e.repairN == 0 || e.repairDirty {
		return nil, nil
	}
	n := e.repairN
	preds = append(preds, e.repairPreds[:len(e.trees)*n]...)
	leafOf = make([]int32, len(e.trees)*n)
	for i := range leafOf {
		leafOf[i] = -1
	}
	for ti, tree := range e.trees {
		for node, seg := range e.repairSegs[ti] {
			if _, _, left, _ := tree.Split(int32(node)); left >= 0 {
				continue // a re-split node's entry spans its regrown leaves'
			}
			for _, p := range e.repairPerm[ti*n+int(seg.start):][:seg.n] {
				leafOf[ti*n+int(p)] = int32(node)
			}
		}
	}
	return preds, leafOf
}

// Undo takes the most recent pending Update back: the trees roll back to
// their state before it, bit for bit, and so does the update counter that
// keys the next sample's inclusion weights. If RepairLastUpdate had brought
// the repair state up to the update, that is reverted too — each touched
// tree's row gets the affected leaf's old value back over the leaf's segment,
// and the segments of regrown leaves are dropped (the affected node's own
// entry still spans them) — so the caller only has to restore the Gaussians
// the repair handed back. Otherwise the repair state is left invalid, unless
// nothing has looked at it since the Update, and the next repair reports
// unusable.
func (e *Ensemble) Undo() error {
	d := len(e.journal) - 1
	if d < 0 {
		return ErrNothingToUndo
	}
	fr := &e.journal[d]
	// A repair state invalidated since (by a second unrepaired Update, or the
	// Undo of one) has nothing left to take back; a sweep that re-armed it
	// cleared the frame's claim itself.
	n := e.repairN
	repaired := fr.repaired && n > 0
	for ti, a := range fr.affected {
		if a < 0 {
			continue
		}
		tree := e.trees[ti]
		tree.Rollback()
		if !repaired {
			continue
		}
		segs := e.repairSegs[ti][:tree.Nodes()]
		e.repairSegs[ti] = segs
		seg := segs[a]
		row := e.repairPreds[ti*n : (ti+1)*n]
		for _, p := range e.repairPerm[ti*n+int(seg.start):][:seg.n] {
			row[p] = fr.oldVals[ti]
		}
	}
	if e.repairDirty {
		// The update was never repaired and nothing else touched the state.
		e.repairDirty = false
	} else if !repaired {
		e.repairN = 0
	}
	e.updates--
	e.journal = e.journal[:d]
	return nil
}

// CloneInto implements the model layer's incremental-cloning contract: dst
// must be an *Ensemble (typically produced by the same Factory). The fitted
// state — trees with their retained samples, the update counter, the
// deterministic seed, a consistent repair state — is deep-copied into dst's
// reusable storage (each tree clones into a per-tree arena), so repeated
// clones into one dst allocate almost nothing. The journal is not: dst starts
// with no Update to undo. dst's own rng is left untouched; clones are meant
// to be updated and queried, not refitted.
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
	d.journal = d.journal[:0]
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
	// A repair state with an update pending belongs to the source's journal;
	// the copy starts without one and re-sweeps on its first repair.
	d.repairN, d.repairDirty = 0, false
	if e.repairN > 0 && !e.repairDirty {
		T, n := len(e.trees), e.repairN
		d.repairN = n
		d.repairPreds = append(d.repairPreds[:0], e.repairPreds[:T*n]...)
		d.repairPerm = append(d.repairPerm[:0], e.repairPerm[:T*n]...)
		d.repairSegs = segmentTables(d.repairSegs, T)
		for ti, segs := range e.repairSegs[:T] {
			if cap(d.repairSegs[ti]) < len(segs) {
				d.repairSegs[ti] = make([]segment, 0, len(segs)+nodeSlack)
			}
			d.repairSegs[ti] = append(d.repairSegs[ti][:0], segs...)
		}
	}
	return nil
}
