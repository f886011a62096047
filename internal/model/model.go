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
// It also carries the memo repair: bookkeeping kept by a PredictBatchRepair
// sweep refreshes the points an Update moved without re-predicting them, and
// Undo takes it back with the update. Repaired Gaussians must stay bitwise
// identical to a fresh prediction.
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
	// the swept points. It fails while Updates are pending.
	PredictBatchRepair(cols [][]float64, out []numeric.Gaussian) error
	// RepairLastUpdate refreshes preds[i] in place for every point the last
	// Update moved (listing an unmoved point too is allowed, leaving a moved
	// one out is not) and appends those indices to ids and the Gaussians
	// they held to old. It fails when the bookkeeping does not describe the
	// model one Update ago (bagging.ErrRepairStateUnusable for the
	// ensemble).
	RepairLastUpdate(cols [][]float64, preds []numeric.Gaussian, ids []int32, old []numeric.Gaussian) ([]int32, []numeric.Gaussian, error)
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
	params bagging.Params
	seed   int64
}

// NewBaggingFactory creates a factory for bagging ensembles with the given
// parameters and base seed.
func NewBaggingFactory(params bagging.Params, seed int64) *BaggingFactory {
	return &BaggingFactory{params: params, seed: seed}
}

// New implements Factory: the ensemble's random stream is the base seed and
// the stream identifier mixed SplitMix64-style, which decorrelates nearby
// identifiers. Calls with distinct stream identifiers are safe from
// concurrent goroutines.
func (f *BaggingFactory) New(stream int64) Regressor {
	z := numeric.SplitMix64(uint64(f.seed) + uint64(stream)*0x9E3779B97F4A7C15)
	return bagging.New(f.params, int64(z))
}

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
// is off and MemoPreds returns nil: that is the state of a fresh Cached,
// after any Fit, and after a Prefill, CloneFrom, Update or Undo that
// failed. There is no partially filled state, so reads never write: any
// number of goroutines may call MemoPreds and CloneFrom(src) on one
// quiescent Cached with no synchronization, which is what lets the
// planner's speculation scheduler share one prefilled root model set across
// every concurrently scored subtree. Fit, Update, Undo, Prefill and CloneFrom
// mutate the receiver and must not run concurrently with anything else on it.
// Every pending Update was repaired, and no sweep runs under one.
type Cached struct {
	inner Regressor
	preds []numeric.Gaussian
	valid bool

	// lastCols is the column-major feature matrix of the last Prefill
	// (cols[d][id] is feature d of the configuration in memo slot id), the
	// feature source of Update's repair. Read-only; shared by clones.
	lastCols [][]float64

	// journal holds, per Update not yet undone (oldest first), where the
	// (slot, previous Gaussian) pairs its repair overwrote start in the
	// undoIDs/undoOld stacks.
	journal []int
	undoIDs []int32
	undoOld []numeric.Gaussian
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

// MemoPreds exposes the memoized prediction array while the memo is valid,
// and nil otherwise; it is the memo's only read. The returned slice
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
// exactly len(memo) long) in one batch sweep — PredictBatchRepair for an
// incremental regressor, arming the repair of the Updates that follow — and
// leaves the memo valid. It is refused while Updates are pending, leaving
// the memo as it was; on any other error the memo is off.
func (c *Cached) Prefill(cols [][]float64) error {
	if len(c.journal) > 0 {
		return fmt.Errorf("model: Prefill with %d updates pending", len(c.journal))
	}
	c.valid = false
	for d, col := range cols {
		if len(col) != len(c.preds) {
			return fmt.Errorf("model: feature column %d has %d points, want %d", d, len(col), len(c.preds))
		}
	}
	c.lastCols = cols
	var err error
	if inc, ok := c.inner.(IncrementalRegressor); ok {
		err = inc.PredictBatchRepair(cols, c.preds)
	} else {
		err = c.inner.PredictBatch(cols, c.preds)
	}
	c.valid = err == nil
	return err
}

// Update folds one sample into the wrapped incremental model and keeps the
// memo valid: the model refreshes exactly the entries the sample moved —
// typically a handful — from its own repair bookkeeping, so the speculation
// sweep that follows costs O(changed) instead of O(candidates) model
// evaluations, and the entries' previous values are kept for Undo. It is
// refused on a memo that is off, and all or nothing: a failed Update leaves
// the model as it was, with the memo off if the repair failed.
func (c *Cached) Update(x []float64, y float64) error {
	inc, ok := c.inner.(IncrementalRegressor)
	if !ok {
		return fmt.Errorf("model: regressor %T does not support incremental updates", c.inner)
	}
	if !c.valid {
		return errors.New("model: Update on a memo that is off")
	}
	if err := inc.Update(x, y); err != nil {
		return err
	}
	c.journal = append(c.journal, len(c.undoIDs))
	ids, old, err := inc.RepairLastUpdate(c.lastCols, c.preds, c.undoIDs, c.undoOld)
	if err == nil {
		c.undoIDs, c.undoOld = ids, old
		return nil
	}
	// The memo is lost; the model need not be. A failing Undo would add
	// nothing the caller can act on beyond err itself.
	c.valid = false
	_ = c.Undo()
	return err
}

// Undo takes back the most recent Update not yet undone — the wrapped model's
// state and, entry by entry, what its repair overwrote in a valid memo, which
// is then bitwise the memo from before the Update. On error the memo is off.
func (c *Cached) Undo() error {
	d := len(c.journal) - 1
	if d < 0 {
		return errors.New("model: no update to undo")
	}
	start := c.journal[d]
	c.journal = c.journal[:d]
	ids, old := c.undoIDs[start:], c.undoOld[start:]
	c.undoIDs, c.undoOld = c.undoIDs[:start], c.undoOld[:start]
	// A non-empty journal means Update found the inner model incremental.
	if err := c.inner.(IncrementalRegressor).Undo(); err != nil {
		c.valid = false
		return err
	}
	if c.valid {
		for k, id := range ids {
			c.preds[id] = old[k]
		}
	}
	return nil
}

// Pending returns the number of Updates Undo can still take back.
func (c *Cached) Pending() int { return len(c.journal) }

// Moved returns the memo slots the pending Updates repaired, oldest Update
// first: every slot whose entry differs from the memo before the first of
// them is listed, each once per Update (the bagging ensemble lists no other),
// so a slot two Updates moved appears twice. It is nil when no Update is
// pending. The slice is the Cached's and is valid until its next mutating
// call.
func (c *Cached) Moved() []int32 {
	if len(c.journal) == 0 {
		return nil
	}
	return c.undoIDs[c.journal[0]:]
}

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
