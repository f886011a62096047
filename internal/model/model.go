// Package model defines the regression-model abstraction used by the
// optimizers: any learner that can be fitted on (configuration, target) pairs
// and produces a Gaussian predictive distribution per configuration can serve
// as Lynceus' black-box cost model. The paper's prototype uses a bagging
// ensemble of regression trees, and notes (§3, footnote 1) that Gaussian
// Processes are a drop-in alternative; this package provides factories for
// both.
package model

import (
	"errors"
	"fmt"

	"repro/internal/bagging"
	"repro/internal/gp"
	"repro/internal/numeric"
)

// Regressor is a trainable model with Gaussian predictive distributions.
type Regressor interface {
	// Fit trains the model on the given samples, replacing previous state.
	Fit(features [][]float64, targets []float64) error
	// Predict returns the predictive distribution at x.
	Predict(x []float64) (numeric.Gaussian, error)
	// PredictBatch predicts a whole batch of points in one call over a
	// column-major feature matrix (cols[d][i] is feature d of point i, out[i]
	// its predictive distribution; every column exactly len(out) long). It
	// must emit Gaussians bitwise identical to point-by-point Predict calls,
	// so a planner sweeping in batches decides exactly as one predicting
	// candidate by candidate would. Implementations may reuse internal
	// scratch, so calls on one regressor must not run concurrently.
	PredictBatch(cols [][]float64, out []numeric.Gaussian) error
}

// Factory creates independent Regressor instances on deterministic random
// streams, so concurrent planners can each own a private model.
type Factory interface {
	// New returns a fresh, untrained Regressor for the given stream.
	New(stream int64) Regressor
	// Name identifies the model family (e.g. "bagging", "gp").
	Name() string
}

// IncrementalRegressor is implemented by regressors that can fold one sample
// into their fitted state without a full refit, take it out again, and
// snapshot that state into another instance of the same concrete type. The
// planner's speculative path uses it to turn the per-speculation full refit
// into a one-sample update applied to, and then undone on, one working copy
// (core.Params.SpeculativeRefit).
//
// It also carries the memo repair: the regressor keeps enough per-point
// bookkeeping from a PredictBatchRepair sweep to refresh the points a
// one-sample Update moved without re-predicting them from scratch (for the
// bagging ensemble, per-tree stores over the affected leaf's points instead
// of whole-ensemble re-walks), and takes that bookkeeping back with the
// update on Undo. Repaired Gaussians must stay bitwise identical to a fresh
// prediction.
//
// Implementations must be deterministic: the model that results from cloning
// a fitted source and applying a fixed sample sequence may depend only on the
// source's state and the sequence, never on goroutine scheduling — this is
// what keeps incremental planning worker-count independent.
type IncrementalRegressor interface {
	Regressor
	// Update folds one training sample into the fitted model. An Update
	// that fails leaves the model as it was.
	Update(x []float64, y float64) error
	// Undo takes back the most recent Update not yet undone, restoring the
	// fitted state it found bit for bit; Updates nest, so n Undos take back
	// the last n. It fails when there is none to take back (none since the
	// last Fit, or since the model was last a CloneInto destination).
	Undo() error
	// CloneInto deep-copies the fitted state into dst, which must be an
	// instance of the same concrete type (typically from the same Factory),
	// reusing dst's storage where possible. It must not mutate the receiver,
	// so concurrent clones from one source are safe.
	CloneInto(dst any) error
	// PredictBatchRepair is PredictBatch plus the repair bookkeeping for
	// the swept points.
	PredictBatchRepair(cols [][]float64, out []numeric.Gaussian) error
	// RepairLastUpdate refreshes preds[i] in place for every point the last
	// Update may have moved, appends those indices to ids and the Gaussians
	// they held to old, and reports whether the repair state was usable —
	// false (with nil error) means the caller must fall back to
	// re-predicting.
	RepairLastUpdate(cols [][]float64, preds []numeric.Gaussian, ids []int32, old []numeric.Gaussian) ([]int32, []numeric.Gaussian, bool, error)
}

// SupportsIncremental reports whether a regressor can serve the incremental
// speculative-refit path: it must implement IncrementalRegressor, and — when
// it additionally exposes an IncrementalCapable() configuration probe, as
// the bagging ensemble does — be configured to retain incremental state on
// Fit. The planner probes a factory product with this before resolving to
// the incremental mode, so a bagging factory built without
// bagging.Params.Incremental falls back to full refits up front instead of
// failing at the first speculative clone.
func SupportsIncremental(r Regressor) bool {
	if _, ok := r.(IncrementalRegressor); !ok {
		return false
	}
	if c, ok := r.(interface{ IncrementalCapable() bool }); ok {
		return c.IncrementalCapable()
	}
	return true
}

// Statically assert that the concrete learners satisfy Regressor and its
// optional extension.
var (
	_ Regressor            = (*gp.GP)(nil)
	_ IncrementalRegressor = (*bagging.Ensemble)(nil)
)

// BaggingFactory builds bagging ensembles of regression trees (the paper's
// default model).
type BaggingFactory struct {
	factory *bagging.Factory
}

// NewBaggingFactory creates a factory for bagging ensembles with the given
// parameters and base seed.
func NewBaggingFactory(params bagging.Params, seed int64) *BaggingFactory {
	return &BaggingFactory{factory: bagging.NewFactory(params, seed)}
}

// New implements Factory.
func (f *BaggingFactory) New(stream int64) Regressor { return f.factory.New(stream) }

// Name implements Factory.
func (f *BaggingFactory) Name() string { return "bagging" }

// GPFactory builds Gaussian-Process regressors.
type GPFactory struct{}

// NewGPFactory creates a factory for Gaussian-Process regressors.
func NewGPFactory() *GPFactory { return &GPFactory{} }

// New implements Factory. Gaussian processes are deterministic given the
// training data, so the stream identifier is ignored.
func (f *GPFactory) New(int64) Regressor { return gp.New() }

// Name implements Factory.
func (f *GPFactory) Name() string { return "gp" }

// Kind selects a model family by name.
type Kind string

// Supported model kinds.
const (
	KindBagging Kind = "bagging"
	KindGP      Kind = "gp"
)

// Cached wraps a Regressor with a prediction memo over a decision's dense
// candidate slots. Lynceus' path simulation predicts the same finite set of
// configurations many times between refits — once per speculation layer is
// enough, so the memo turns every repeat into an array read.
//
// The memo has exactly two states. It is valid when every slot holds the
// current model's prediction: Prefill sets it, Update and Undo keep it
// (rewriting the moved entries in place), CloneFrom copies it. Otherwise it
// is off and reads go to the wrapped regressor: that is the state of a fresh
// Cached, after any Fit, and after a Prefill, CloneFrom, memo repair or Undo
// that failed. There is no partially filled state, so reads never write: any
// number of goroutines may call PredictID, MemoPreds and CloneFrom(src) on
// one quiescent Cached with no synchronization, which is what lets the
// planner's speculation scheduler share one prefilled root model set across
// every concurrently scored subtree. Fit, Update, Undo, Prefill and CloneFrom
// mutate the receiver and must not run concurrently with anything else on it.
type Cached struct {
	inner Regressor
	preds []numeric.Gaussian
	valid bool

	// lastCols is the column-major feature matrix of the last Prefill
	// (cols[d][id] is feature d of the configuration in memo slot id), the
	// feature source of Update's repair. Read-only; shared by clones.
	lastCols [][]float64

	// journal holds one frame per Update not yet undone, oldest first;
	// undoIDs/undoOld stack the (slot, previous Gaussian) pairs their repairs
	// overwrote, each frame owning the pairs from its start on.
	journal []memoFrame
	undoIDs []int32
	undoOld []numeric.Gaussian
}

// memoFrame is the memo's undo record of one Update: where its overwritten
// pairs start, or that a whole sweep has rewritten the memo since (the
// update's own fallback, or a later Prefill), so that undoing it means
// re-sweeping too.
type memoFrame struct {
	start   int
	resweep bool
}

// NewCached wraps inner with a memo for configuration IDs in [0, size).
func NewCached(inner Regressor, size int) *Cached {
	return &Cached{inner: inner, preds: make([]numeric.Gaussian, size)}
}

// Fit trains the wrapped model and switches the memo off, also when the fit
// fails: the inner model may then be partially refitted, and the memo must
// not keep serving pre-fit predictions. Pending Updates are forgotten.
func (c *Cached) Fit(features [][]float64, targets []float64) error {
	c.valid = false
	c.dropJournal()
	return c.inner.Fit(features, targets)
}

func (c *Cached) dropJournal() {
	c.journal, c.undoIDs, c.undoOld = c.journal[:0], c.undoIDs[:0], c.undoOld[:0]
}

// Predict forwards to the wrapped model without touching the memo; use it for
// feature vectors that do not correspond to a configuration ID.
func (c *Cached) Predict(x []float64) (numeric.Gaussian, error) {
	return c.inner.Predict(x)
}

// PredictID returns the predictive distribution of the configuration with the
// given ID and feature vector: the memoized one while the memo is valid, a
// fresh prediction of x otherwise. It never writes, so it is safe for
// concurrent callers.
func (c *Cached) PredictID(id int, x []float64) (numeric.Gaussian, error) {
	if c.valid && id >= 0 && id < len(c.preds) {
		return c.preds[id], nil
	}
	return c.inner.Predict(x)
}

// MemoPreds exposes the memoized prediction array while the memo is valid,
// and nil otherwise. The planner's candidate sweeps read it directly — one
// bounds check per candidate instead of a PredictID call. The returned slice
// is indexed by configuration ID, is owned by the Cached, and is invalidated
// by any mutating call; callers must not retain it across Fit, Update, Undo,
// Prefill or CloneFrom.
func (c *Cached) MemoPreds() []numeric.Gaussian {
	if !c.valid {
		return nil
	}
	return c.preds
}

// Prefill computes the memoized prediction of every configuration ID in
// [0, len(memo)) from the candidate set's column-major feature matrix
// (cols[d][id] is feature d of the configuration with that ID, every column
// exactly len(memo) long) in one batch sweep, and leaves the memo valid. On
// error the memo is off.
func (c *Cached) Prefill(cols [][]float64) error {
	c.valid = false
	for d, col := range cols {
		if len(col) != len(c.preds) {
			return fmt.Errorf("model: feature column %d has %d points, want %d", d, len(col), len(c.preds))
		}
	}
	c.lastCols = cols
	return c.sweep()
}

// sweep re-predicts the whole memo over lastCols, straight into the
// prediction array, and leaves the memo valid — or, on error, with the array
// partially overwritten, off. Incremental regressors sweep through
// PredictBatchRepair instead (bitwise-identical output), arming the
// O(changed-trees) repair for the Updates that follow. The pairs pending
// frames saved describe a memo this sweep has replaced wholesale, so undoing
// any of them re-sweeps as well.
func (c *Cached) sweep() error {
	var err error
	if inc, ok := c.inner.(IncrementalRegressor); ok {
		err = inc.PredictBatchRepair(c.lastCols, c.preds)
	} else {
		err = c.inner.PredictBatch(c.lastCols, c.preds)
	}
	c.valid = err == nil
	for k := range c.journal {
		c.journal[k].resweep = true
	}
	return err
}

// Update folds one sample into the wrapped incremental model and keeps a
// valid memo valid: the model refreshes exactly the entries the sample moved
// — typically a handful — from its own repair bookkeeping, so the speculation
// sweep that follows costs O(changed) instead of O(candidates) model
// evaluations, and the entries' previous values are kept for Undo. When the
// model reports its repair state unusable (e.g. two Updates since its last
// repair sweep), the whole memo is re-swept, which is always correct. A memo that is off stays off. An Update that fails
// leaves the model as it was, with the memo off if the failure was the
// repair's.
func (c *Cached) Update(x []float64, y float64) error {
	inc, ok := c.inner.(IncrementalRegressor)
	if !ok {
		return fmt.Errorf("model: regressor %T does not support incremental updates", c.inner)
	}
	if err := inc.Update(x, y); err != nil {
		return err
	}
	c.journal = append(c.journal, memoFrame{start: len(c.undoIDs)})
	if !c.valid {
		return nil
	}
	var usable bool
	var err error
	c.undoIDs, c.undoOld, usable, err = inc.RepairLastUpdate(c.lastCols, c.preds, c.undoIDs, c.undoOld)
	if usable && err == nil {
		return nil
	}
	if err == nil {
		if err = c.sweep(); err == nil {
			return nil
		}
	}
	// The memo is lost; the model need not be. A failing Undo would add
	// nothing the caller can act on beyond err itself.
	c.valid = false
	_ = c.Undo()
	return err
}

// Undo takes back the most recent Update not yet undone — the wrapped model's
// state and, entry by entry, what its repair overwrote in a valid memo, which
// is then bitwise the memo from before the Update. An Update that was not
// repaired but re-swept (or that a Prefill has overtaken) is undone the same
// way it was applied: model first, then a sweep. On error the memo is off.
func (c *Cached) Undo() error {
	d := len(c.journal) - 1
	if d < 0 {
		return errors.New("model: no update to undo")
	}
	fr := c.journal[d]
	c.journal = c.journal[:d]
	ids, old := c.undoIDs[fr.start:], c.undoOld[fr.start:]
	c.undoIDs, c.undoOld = c.undoIDs[:fr.start], c.undoOld[:fr.start]
	// A non-empty journal means Update found the inner model incremental.
	if err := c.inner.(IncrementalRegressor).Undo(); err != nil {
		c.valid = false
		return err
	}
	if !c.valid {
		return nil
	}
	if fr.resweep {
		return c.sweep()
	}
	for k, id := range ids {
		c.preds[id] = old[k]
	}
	return nil
}

// Pending returns the number of Updates Undo can still take back.
func (c *Cached) Pending() int { return len(c.journal) }

// CloneFrom snapshots src — fitted model state, memo, and the feature matrix
// reference for repair — into the receiver, reusing its storage; src's
// pending Updates are part of the state, not of the copy, which starts with
// none to undo. The receiver's inner regressor must be an instance of the
// same concrete type as src's (typically both from one Factory). CloneFrom
// only reads src, so concurrent clones from one quiescent source are safe;
// the receiver must be private to the caller.
func (c *Cached) CloneFrom(src *Cached) error {
	c.valid = false
	c.dropJournal()
	inc, ok := src.inner.(IncrementalRegressor)
	if !ok {
		return fmt.Errorf("model: source regressor %T does not support incremental cloning", src.inner)
	}
	if err := inc.CloneInto(c.inner); err != nil {
		return err
	}
	c.lastCols = src.lastCols
	if n := len(src.preds); cap(c.preds) < n {
		c.preds = make([]numeric.Gaussian, n)
	} else {
		c.preds = c.preds[:n]
	}
	if src.valid {
		copy(c.preds, src.preds)
		c.valid = true
	}
	return nil
}
