package core

import "repro/internal/optimizer"

// trainSet is the (possibly speculated) training set S of one state: the cost
// and extra-metric targets of every profiled-or-speculated configuration.
type trainSet struct {
	features [][]float64
	costs    []float64
	extras   [][]float64 // extras[k][i]: value of the k-th constraint metric for entry i
	feasible []bool
}

func newTrainSetFromHistory(h *optimizer.History, opts optimizer.Options, extraNames []string) *trainSet {
	trials := h.Trials()
	ts := &trainSet{
		features: make([][]float64, 0, len(trials)),
		costs:    make([]float64, 0, len(trials)),
		extras:   make([][]float64, len(extraNames)),
		feasible: make([]bool, 0, len(trials)),
	}
	for k := range extraNames {
		ts.extras[k] = make([]float64, 0, len(trials))
	}
	for _, tr := range trials {
		ts.features = append(ts.features, append([]float64(nil), tr.Config.Features...))
		ts.costs = append(ts.costs, tr.Cost)
		ts.feasible = append(ts.feasible, tr.Feasible(opts.MaxRuntimeSeconds, opts.ExtraConstraints))
		for k, name := range extraNames {
			ts.extras[k] = append(ts.extras[k], tr.Extra[name])
		}
	}
	return ts
}

// withEntryInto extends the training set by one speculated entry into
// reusable storage: dst's slices are overwritten with the receiver's entries
// plus the new one and dst is returned. A nil extras appends a zero for every
// constraint metric. The speculation loop extends the same parent set once
// per depth, so recycling dst removes the per-outcome training-set copies
// from the planner's hot path; the receiver is never modified.
func (ts *trainSet) withEntryInto(dst *trainSet, features []float64, cost float64, extras []float64, feasible bool) *trainSet {
	dst.features = append(dst.features[:0], ts.features...)
	dst.features = append(dst.features, features)
	dst.costs = append(dst.costs[:0], ts.costs...)
	dst.costs = append(dst.costs, cost)
	dst.feasible = append(dst.feasible[:0], ts.feasible...)
	dst.feasible = append(dst.feasible, feasible)
	if cap(dst.extras) < len(ts.extras) {
		dst.extras = make([][]float64, len(ts.extras))
	}
	dst.extras = dst.extras[:len(ts.extras)]
	for k := range ts.extras {
		dst.extras[k] = append(dst.extras[k][:0], ts.extras[k]...)
		if extras == nil {
			dst.extras[k] = append(dst.extras[k], 0)
		} else {
			dst.extras[k] = append(dst.extras[k], extras[k])
		}
	}
	return dst
}

// bestFeasibleCost returns the lowest cost among feasible entries.
func (ts *trainSet) bestFeasibleCost() (float64, bool) {
	best := 0.0
	found := false
	for i, c := range ts.costs {
		if !ts.feasible[i] {
			continue
		}
		if !found || c < best {
			best = c
			found = true
		}
	}
	return best, found
}

// maxCost returns the highest cost in the training set.
func (ts *trainSet) maxCost() float64 {
	maxC := 0.0
	for _, c := range ts.costs {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}
