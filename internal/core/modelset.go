package core

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/numeric"
)

// modelSet bundles the cost model with one model per extra constraint metric.
// Every model is wrapped in a prediction memo keyed by candidate slot, so
// repeated predictions of the same candidate between refits — the planner
// re-predicts the whole candidate set once per speculation layer — cost one
// array read instead of one model evaluation. Memos are sized by the
// decision's active candidate count, never by the space.
type modelSet struct {
	cost   *model.Cached
	extras []*model.Cached

	// token identifies the decision whose root models this set is: stamped
	// by rootModels, nil on every other set. A workspace's working copy is
	// valid for as long as the token it was copied under is the one its
	// parent carries (see pathWorkspace.working).
	token *rootToken

	// extraMemos is scratch for extraMemosOf: one slot per extra model,
	// rewritten on every fast-path eligibility sweep.
	extraMemos [][]numeric.Gaussian
}

// rootToken is the identity of one decision's root models. It is a pointer
// to a non-empty struct so that no two live tokens compare equal, and it
// holds nothing: a pooled workspace that still remembers a token pins these
// few bytes, never another campaign's models.
type rootToken struct{ _ byte }

// newModelSet creates untrained models on a deterministic random stream, with
// prediction memos covering size candidate slots.
func (p *planner) newModelSet(stream int64, size int) *modelSet {
	ms := &modelSet{cost: model.NewCached(p.factory.New(stream), size)}
	ms.extras = make([]*model.Cached, len(p.extraNames))
	for k := range ms.extras {
		ms.extras[k] = model.NewCached(p.factory.New(stream+int64(k+1)*1_000_003), size)
	}
	return ms
}

// fit trains every model of the set on the given training set, switching
// the prediction memos off until the next prefill.
func (ms *modelSet) fit(ts *trainSet) error {
	if err := ms.cost.Fit(ts.features, ts.costs); err != nil {
		return fmt.Errorf("core: fitting cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Fit(ts.features, ts.extras[k]); err != nil {
			return fmt.Errorf("core: fitting constraint model %d: %w", k, err)
		}
	}
	return nil
}

// predictCand appends a candidate's memoized predictive distributions to
// dst — the cost model's, then each constraint model's — keyed by its slot in
// the decision's active set. Every set the planner scores candidates on is
// prefilled, so a memo that is off is errNotPrefilled.
func (ms *modelSet) predictCand(dst []numeric.Gaussian, c candidate) ([]numeric.Gaussian, error) {
	memo := ms.cost.MemoPreds()
	if memo == nil {
		return dst, errNotPrefilled
	}
	dst = append(dst, memo[c.slot])
	for _, m := range ms.extras {
		if memo = m.MemoPreds(); memo == nil {
			return dst, errNotPrefilled
		}
		dst = append(dst, memo[c.slot])
	}
	return dst, nil
}

// prefill computes the memoized predictions of every active candidate in one
// batch sweep per model over the decision's slot-major feature matrix. After
// it returns every memo is valid, so predictCand and the memo-array sweeps
// of eligible and incumbent are read-only lookups — which makes the modelSet
// safe to share across the parallel path-evaluation fan-out.
func (ms *modelSet) prefill(cols [][]float64) error {
	if err := ms.cost.Prefill(cols); err != nil {
		return fmt.Errorf("core: prefilling cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Prefill(cols); err != nil {
			return fmt.Errorf("core: prefilling constraint model %d: %w", k, err)
		}
	}
	return nil
}

// refit trains the model set on the training set and immediately prefills the
// candidate-set prediction memo over the decision's slot-major matrix — every
// subsequent sweep of the refitted models (eligibility, incumbent fallback,
// EIc) then reads the memo instead of predicting candidates one at a time.
func (p *planner) refit(ms *modelSet, ts *trainSet) error {
	if err := ms.fit(ts); err != nil {
		return err
	}
	return ms.prefill(p.activeCols)
}

// update folds one speculated sample into every model of the set (the cost
// target into the cost model, each constraint metric into its model),
// repairing the prediction memos in place. It is all or nothing: when a
// model's update fails, the ones already applied are taken back first.
func (ms *modelSet) update(x []float64, cost float64, extras []float64) error {
	if err := ms.cost.Update(x, cost); err != nil {
		return fmt.Errorf("core: updating cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.Update(x, extras[k]); err != nil {
			return errors.Join(fmt.Errorf("core: updating constraint model %d: %w", k, err), ms.undoFirst(k))
		}
	}
	return nil
}

// undo takes the last update back from every model of the set, leaving
// models and memos bitwise as that update found them.
func (ms *modelSet) undo() error {
	if err := ms.undoFirst(len(ms.extras)); err != nil {
		return fmt.Errorf("core: undoing a speculated update: %w", err)
	}
	return nil
}

// undoFirst takes the last update back from the cost model and the first k
// constraint models — the ones a set update reached.
func (ms *modelSet) undoFirst(k int) error {
	err := ms.cost.Undo()
	for _, m := range ms.extras[:k] {
		err = errors.Join(err, m.Undo())
	}
	return err
}

// pending returns the number of updates applied to the set and not undone,
// panicking when its models disagree — they are only ever updated together.
func (ms *modelSet) pending() int {
	n := ms.cost.Pending()
	for _, m := range ms.extras {
		if m.Pending() != n {
			panic("core: the models of one set carry different numbers of pending updates")
		}
	}
	return n
}

// cloneFrom snapshots src's fitted models and prediction memos into the set,
// reusing its storage. cloneFrom only reads src, so concurrent clones from
// one parent set (the shared root models) are safe.
func (ms *modelSet) cloneFrom(src *modelSet) error {
	if err := ms.cost.CloneFrom(src.cost); err != nil {
		return fmt.Errorf("core: cloning cost model: %w", err)
	}
	for k, m := range ms.extras {
		if err := m.CloneFrom(src.extras[k]); err != nil {
			return fmt.Errorf("core: cloning constraint model %d: %w", k, err)
		}
	}
	return nil
}

// errNotPrefilled reports a candidate sweep over a model set whose memos are
// off. Every set the planner sweeps was prefilled (root fits and Full-mode
// refits) or cloned from a prefilled one, so this is a planner bug, never a
// mode.
var errNotPrefilled = errors.New("core: candidate sweep over a model set that was not prefilled")

// extraMemosEmpty is the shared zero-extras result of extraMemosOf: non-nil
// (nil means "not prefilled") but empty.
var extraMemosEmpty = [][]numeric.Gaussian{}

// extraMemosOf collects the memo arrays of the set's extra models, or nil when
// any extra model's memo is off. The zero-extras case — Lynceus'
// single-constraint formulation — returns a shared empty slice without
// touching the heap. It writes the set's scratch, so a set read by several
// workers at once (the root models during the fan-out) must not be passed
// here concurrently: the root decision sweeps it single-threaded (eligible),
// and speculated states sweep worker-private sets.
func extraMemosOf(ms *modelSet) [][]numeric.Gaussian {
	if len(ms.extras) == 0 {
		return extraMemosEmpty
	}
	if ms.extraMemos == nil {
		ms.extraMemos = make([][]numeric.Gaussian, len(ms.extras))
	}
	for k, m := range ms.extras {
		if ms.extraMemos[k] = m.MemoPreds(); ms.extraMemos[k] == nil {
			return nil
		}
	}
	return ms.extraMemos
}
