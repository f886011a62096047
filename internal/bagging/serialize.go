package bagging

import (
	"fmt"

	"repro/internal/regtree"
)

// EnsembleState is the fitted state of an Ensemble as plain data: parameters,
// base seed, and every fitted tree's regtree.TreeState — everything
// predictions depend on; the resampling rng position, the repair state and
// the trees' retained incremental-training state are not part of it. It is
// the image tests compare (the undo tests and core's speculate oracle marshal
// it to bytes as "the bitwise identity of the trees"). Nothing reads one back
// into an Ensemble.
type EnsembleState struct {
	Params      Params              `json:"params"`
	Seed        int64               `json:"seed"`
	NumFeatures int                 `json:"num_features"`
	Trees       []regtree.TreeState `json:"trees"`
}

// State extracts the fitted state of the ensemble.
func (e *Ensemble) State() (*EnsembleState, error) {
	if !e.Trained() {
		return nil, ErrNotTrained
	}
	trees := make([]regtree.TreeState, len(e.trees))
	for i, t := range e.trees {
		s, err := t.State()
		if err != nil {
			return nil, fmt.Errorf("bagging: serializing tree %d: %w", i, err)
		}
		trees[i] = s
	}
	return &EnsembleState{
		Params:      e.params,
		Seed:        e.seed,
		NumFeatures: e.numFeatures,
		Trees:       trees,
	}, nil
}
