package model

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bagging"
	"repro/internal/gp"
	"repro/internal/numeric"
)

// incCols builds the column-major matrix of a small 2-feature grid and the
// row accessor tests use to cross-check memo behavior.
func incCols(n int) ([][]float64, func(id int) []float64) {
	cols := make([][]float64, 2)
	cols[0] = make([]float64, n)
	cols[1] = make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = float64(i % 6)
		cols[1][i] = float64(i / 6)
	}
	return cols, func(id int) []float64 { return []float64{cols[0][id], cols[1][id]} }
}

func fittedIncCached(t *testing.T, size int) (*Cached, [][]float64, func(int) []float64) {
	t.Helper()
	features, targets := trainingData()
	c := NewCached(bagging.New(bagging.Params{NumTrees: 8, Incremental: true}, 3), size)
	if err := c.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cols, rowOf := incCols(size)
	if err := c.Prefill(cols); err != nil {
		t.Fatalf("Prefill: %v", err)
	}
	return c, cols, rowOf
}

func TestCachedSupportsIncremental(t *testing.T) {
	var inner Regressor = gp.New()
	if _, ok := inner.(IncrementalRegressor); ok {
		t.Error("gp claims incremental support")
	}
	g := NewCached(inner, 4)
	if err := g.Update([]float64{0, 0}, 1); err == nil {
		t.Error("Update on a non-incremental Cached did not fail")
	}
	if err := g.CloneFrom(g); err == nil {
		t.Error("CloneFrom with a non-incremental source did not fail")
	}
}

func TestCachedUpdateKeepsUnchangedEntriesAndRefreshesChanged(t *testing.T) {
	const size = 24
	c, _, rowOf := fittedIncCached(t, size)

	before := slices.Clone(c.MemoPreds())
	if err := c.Update(rowOf(7), 42); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if c.MemoPreds() == nil {
		t.Fatal("memo went off across a repairable Update")
	}
	// Moved lists every entry the Update changed, each once.
	ids := c.Moved()
	listed := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if listed[id] {
			t.Fatalf("Moved lists slot %d twice", id)
		}
		listed[id] = true
	}
	kept, moved := 0, 0
	for id := 0; id < size; id++ {
		row := rowOf(id)
		want, err := c.inner.Predict(row)
		if err != nil {
			t.Fatalf("inner Predict: %v", err)
		}
		if got := c.MemoPreds()[id]; got != want {
			t.Fatalf("memoized prediction %d = %+v, want inner %+v", id, got, want)
		}
		if want == before[id] {
			kept++
		} else {
			moved++
			if !listed[int32(id)] {
				t.Fatalf("entry %d moved but Moved does not list it", id)
			}
		}
	}
	// With a second Update pending, Moved lists every entry that differs
	// from the memo before the first, and one Undo takes the second's back.
	if err := c.Update(rowOf(15), 7); err != nil {
		t.Fatalf("second Update: %v", err)
	}
	union := make(map[int32]bool)
	for _, id := range c.Moved() {
		union[id] = true
	}
	for id := 0; id < size; id++ {
		if c.MemoPreds()[id] != before[id] && !union[int32(id)] {
			t.Fatalf("entry %d differs after two Updates but Moved does not list it", id)
		}
	}
	if err := c.Undo(); err != nil {
		t.Fatalf("Undo: %v", err)
	}
	if !slices.Equal(c.Moved(), ids) {
		t.Fatalf("after undoing the second Update Moved lists %v, want the first's %v", c.Moved(), ids)
	}
	if err := c.Undo(); err != nil {
		t.Fatalf("Undo: %v", err)
	}
	if ids := c.Moved(); ids != nil {
		t.Errorf("Moved lists slots %v with no Update pending", ids)
	}
	if kept == 0 || moved == 0 {
		t.Fatalf("degenerate fixture: %d entries kept, %d moved; want both", kept, moved)
	}
}

func TestCachedCloneFromIsIndependent(t *testing.T) {
	const size = 24
	src, _, rowOf := fittedIncCached(t, size)
	dst := NewCached(bagging.New(bagging.Params{NumTrees: 8, Incremental: true}, 99), 0)
	if err := dst.CloneFrom(src); err != nil {
		t.Fatalf("CloneFrom: %v", err)
	}
	srcBefore := slices.Clone(src.MemoPreds())
	if !slices.Equal(dst.MemoPreds(), srcBefore) {
		t.Fatalf("clone memo = %+v, want the source's %+v", dst.MemoPreds(), srcBefore)
	}
	// Updating the clone must leave the source untouched and repair the
	// clone's memo using the shared feature matrix.
	for i := 0; i < 4; i++ {
		if err := dst.Update(rowOf(3), 77); err != nil {
			t.Fatalf("clone Update: %v", err)
		}
	}
	for id, p := range src.MemoPreds() {
		if p != srcBefore[id] {
			t.Fatalf("source moved after clone update at %d: %+v -> %+v", id, srcBefore[id], p)
		}
	}
	moved := false
	for id, q := range dst.MemoPreds() {
		want, err := dst.inner.Predict(rowOf(id))
		if err != nil {
			t.Fatalf("clone inner Predict: %v", err)
		}
		if q != want {
			t.Fatalf("clone memo %d = %+v, want %+v", id, q, want)
		}
		if q != srcBefore[id] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("repeated clone updates changed no prediction; fixture too weak")
	}
}

// freshSweep is the memo oracle: a PredictBatch of c's own model over cols.
func freshSweep(c *Cached, cols [][]float64) ([]numeric.Gaussian, error) {
	out := make([]numeric.Gaussian, len(cols[0]))
	return out, c.inner.PredictBatch(cols, out)
}

// checkMemoFresh requires c's memo to be valid and bitwise equal to a fresh
// sweep of its own model.
func checkMemoFresh(c *Cached, cols [][]float64) error {
	want, err := freshSweep(c, cols)
	if err != nil {
		return err
	}
	memo := c.MemoPreds()
	if len(memo) != len(want) {
		return fmt.Errorf("memo has %d valid slots, want %d", len(memo), len(want))
	}
	for id := range want {
		if memo[id] != want[id] {
			return fmt.Errorf("memo[%d] = %+v, fresh sweep %+v", id, memo[id], want[id])
		}
	}
	return nil
}

// TestCachedSharedSourceConcurrentReadersAndCloners pins the concurrency
// contract of a valid memo (run under -race): reads never write, so one
// prefilled Cached serves MemoPreds readers while other goroutines
// CloneFrom it and Update their private clones, and every clone's memo stays
// valid and bitwise equal to a fresh sweep of its own model.
func TestCachedSharedSourceConcurrentReadersAndCloners(t *testing.T) {
	const size, readers, cloners, rounds = 36, 4, 4, 20
	src, cols, rowOf := fittedIncCached(t, size)
	want, err := freshSweep(src, cols)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	errs := make([]error, readers+cloners)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < rounds*4; rep++ {
				memo := src.MemoPreds()
				for k := 0; k < size; k++ {
					id := (k*(g+1) + rep) % size
					if memo[id] != want[id] {
						errs[g] = fmt.Errorf("reader %d: slot %d = %+v, want %+v", g, id, memo[id], want[id])
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < cloners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := NewCached(bagging.New(bagging.Params{NumTrees: 8, Incremental: true}, int64(100+g)), 0)
			for rep := 0; rep < rounds; rep++ {
				if err := dst.CloneFrom(src); err != nil {
					errs[readers+g] = err
					return
				}
				for k := 0; ; k++ {
					if err := checkMemoFresh(dst, cols); err != nil {
						errs[readers+g] = fmt.Errorf("cloner %d round %d after %d updates: %w", g, rep, k, err)
						return
					}
					if k == 3 {
						break
					}
					if err := dst.Update(rowOf((g*7+rep+k*5)%size), float64(10*g+rep+k)); err != nil {
						errs[readers+g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := checkMemoFresh(src, cols); err != nil {
		t.Fatalf("source after concurrent clones: %v", err)
	}
}

// TestCachedUpdateFailsWhenRepairStateUnusable: an Update whose repair the
// model cannot do — here a second Update since the last repair, the first
// made behind the memo's back — fails all or nothing: the model is rolled
// back to where it was, nothing stays pending and the memo is off. An Update
// on the off memo is refused before it reaches the model, and a Prefill
// turns the memo back on and re-arms the repair.
func TestCachedUpdateFailsWhenRepairStateUnusable(t *testing.T) {
	const size = 24
	c, cols, rowOf := fittedIncCached(t, size)
	inner := c.inner.(*bagging.Ensemble)
	if err := inner.Update(rowOf(3), 55); err != nil {
		t.Fatalf("inner Update: %v", err)
	}
	if err := c.Update(rowOf(11), 70); !errors.Is(err, bagging.ErrRepairStateUnusable) {
		t.Fatalf("Update over an unusable repair state: %v, want ErrRepairStateUnusable", err)
	}
	if c.Pending() != 0 || inner.Updates() != 1 || c.MemoPreds() != nil {
		t.Fatalf("after the failed Update: %d pending, %d folded in, memo on %v; want 0, 1, false",
			c.Pending(), inner.Updates(), c.MemoPreds() != nil)
	}
	if err := c.Update(rowOf(17), 5); err == nil {
		t.Fatal("Update on a memo that is off succeeded")
	}
	if inner.Updates() != 1 {
		t.Fatalf("the refused Update reached the model: %d folded in, want 1", inner.Updates())
	}
	if err := inner.Undo(); err != nil {
		t.Fatalf("inner Undo: %v", err)
	}
	if err := c.Prefill(cols); err != nil {
		t.Fatalf("Prefill: %v", err)
	}
	if err := c.Update(rowOf(17), 5); err != nil {
		t.Fatalf("Update after the re-arming Prefill: %v", err)
	}
	if err := checkMemoFresh(c, cols); err != nil {
		t.Fatalf("after the re-armed repair: %v", err)
	}
}

// TestCachedUndoRestoresMemoBitwise nests Updates three deep and takes them
// back one by one: after every Undo the memo is valid, bitwise the memo from
// before the matching Update, and equal to a fresh sweep of the rolled-back
// model — and a warm Update → Undo round allocates nothing.
func TestCachedUndoRestoresMemoBitwise(t *testing.T) {
	const size = 36
	c, cols, rowOf := fittedIncCached(t, size)
	if err := c.Undo(); err == nil {
		t.Fatal("Undo with no pending Update did not fail")
	}
	var memos [][]numeric.Gaussian
	for depth, id := range []int{7, 7, 20} { // the same point twice: a duplicate
		memos = append(memos, append([]numeric.Gaussian(nil), c.MemoPreds()...))
		if err := c.Update(rowOf(id), float64(40+depth)); err != nil {
			t.Fatalf("Update %d: %v", depth, err)
		}
		if err := checkMemoFresh(c, cols); err != nil {
			t.Fatalf("after Update %d: %v", depth, err)
		}
		if c.Pending() != depth+1 {
			t.Fatalf("Pending = %d after %d Updates", c.Pending(), depth+1)
		}
	}
	for depth := 2; depth >= 0; depth-- {
		if err := c.Undo(); err != nil {
			t.Fatalf("Undo %d: %v", depth, err)
		}
		memo := c.MemoPreds()
		if memo == nil {
			t.Fatalf("memo went off across Undo %d", depth)
		}
		for id := range memo {
			if memo[id] != memos[depth][id] {
				t.Fatalf("after Undo %d: memo[%d] = %+v, was %+v before the Update", depth, id, memo[id], memos[depth][id])
			}
		}
		if err := checkMemoFresh(c, cols); err != nil {
			t.Fatalf("after Undo %d: %v", depth, err)
		}
	}
	x7, x8 := rowOf(7), rowOf(8)
	round := func() {
		if err := c.Update(x7, 42); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := c.Update(x8, 3); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if c.Undo() != nil || c.Undo() != nil {
			t.Fatal("Undo failed")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs > 0 {
		t.Errorf("warm Update → Undo allocates %.1f objects per round, want 0", allocs)
	}
}

// TestCachedPrefillRefusedWhileUpdatesPending: no sweep runs under a
// pending Update. The refused Prefill leaves the memo valid and bitwise as
// the Update left it, the Update stays pending, and Undo still restores the
// memo from before it; once nothing is pending, Prefill runs again.
func TestCachedPrefillRefusedWhileUpdatesPending(t *testing.T) {
	const size = 24
	c, cols, rowOf := fittedIncCached(t, size)
	before := slices.Clone(c.MemoPreds())
	if err := c.Update(rowOf(3), 55); err != nil {
		t.Fatalf("Update: %v", err)
	}
	updated := slices.Clone(c.MemoPreds())
	if err := c.Prefill(cols); err == nil {
		t.Fatal("Prefill with an Update pending succeeded")
	}
	if c.Pending() != 1 || !slices.Equal(c.MemoPreds(), updated) {
		t.Fatalf("the refused Prefill moved the memo or the journal: %d pending", c.Pending())
	}
	if err := c.Undo(); err != nil {
		t.Fatalf("Undo: %v", err)
	}
	if !slices.Equal(c.MemoPreds(), before) {
		t.Fatal("Undo after a refused Prefill did not restore the memo from before the Update")
	}
	if err := c.Prefill(cols); err != nil {
		t.Fatalf("Prefill with nothing pending: %v", err)
	}
	if err := checkMemoFresh(c, cols); err != nil {
		t.Fatalf("after the Prefill: %v", err)
	}
}

// brokenRepairer is an incremental regressor whose memo repair fails.
type brokenRepairer struct {
	*bagging.Ensemble
	updates, undos int
}

func (b *brokenRepairer) Update(x []float64, y float64) error {
	b.updates++
	return b.Ensemble.Update(x, y)
}

func (b *brokenRepairer) Undo() error {
	b.undos++
	return b.Ensemble.Undo()
}

func (b *brokenRepairer) RepairLastUpdate([][]float64, []numeric.Gaussian, []int32, []numeric.Gaussian) ([]int32, []numeric.Gaussian, error) {
	return nil, nil, fmt.Errorf("injected repair failure")
}

// TestCachedUpdateIsAllOrNothing: when the memo cannot follow an Update, the
// Update fails, the model is rolled back to where it was, nothing stays
// pending and the memo is off rather than stale.
func TestCachedUpdateIsAllOrNothing(t *testing.T) {
	const size = 24
	features, targets := trainingData()
	inner := &brokenRepairer{Ensemble: bagging.New(bagging.Params{NumTrees: 8, Incremental: true}, 3)}
	c := NewCached(inner, size)
	if err := c.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cols, rowOf := incCols(size)
	if err := c.Prefill(cols); err != nil {
		t.Fatalf("Prefill: %v", err)
	}
	want, err := freshSweep(c, cols)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	if err := c.Update(rowOf(7), 42); err == nil {
		t.Fatal("Update succeeded although the repair failed")
	}
	if inner.updates != 1 || inner.undos != 1 || c.Pending() != 0 || inner.Updates() != 0 {
		t.Fatalf("after the failed Update: %d inner updates, %d inner undos, %d pending, %d folded in; want 1, 1, 0, 0",
			inner.updates, inner.undos, c.Pending(), inner.Updates())
	}
	if c.MemoPreds() != nil {
		t.Fatal("the memo stayed on across a failed repair")
	}
	got, err := freshSweep(c, cols)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("the failed Update moved prediction %d: %+v -> %+v", id, want[id], got[id])
		}
	}
}
