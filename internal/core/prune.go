package core

import "sort"

// Pruning constants (see prunedScores).
const (
	// pruneOptimism inflates the optimistic future-reward bound to keep the
	// pruning rule conservative: the speculated EIc of a future step may
	// exceed the largest root-model EIc when the speculated outcome lowers
	// the incumbent or inflates the predictive spread.
	pruneOptimism = 1.25
	// pruneMinSeeds is the minimum number of top-ranked candidates whose
	// paths are always evaluated exactly; below 2x this count pruning is not
	// worth the bookkeeping.
	pruneMinSeeds = 8
	// pruneSeedDivisor sizes the exactly-evaluated seed set relative to the
	// eligible-candidate count.
	pruneSeedDivisor = 8
)

// prunedScores evaluates the exploration paths of the eligible candidates
// with optimistic-bound pruning, cutting the branching factor of the
// lookahead ≥ 2 search:
//
//  1. Every candidate gets an optimistic ratio bound from root-model
//     quantities alone: its own root EIc plus a discounted, optimism-inflated
//     multiple of the best root EIc (future steps cannot plausibly beat the
//     best currently known reward by more), divided by its root expected cost
//     (a lower bound on the true path cost, since speculated future costs are
//     non-negative).
//  2. The top seeds by that bound are evaluated exactly, with no
//     synchronization between them: each seed task writes only its own
//     rank-fixed result slot.
//  3. After the seed join the pruning threshold is computed serially from
//     the seed results; remaining candidates whose bound cannot beat it are
//     dropped without simulating their paths, and the survivors are
//     evaluated exactly.
//
// The seed join is the decision's only synchronization point, and the pruned
// set is deterministic BY CONSTRUCTION: the threshold depends only on the
// seed results, which are evaluated unconditionally, never on the order
// paths finish in. Scores land in slots fixed by candidate rank and are collected
// in canonical order, so the recommendation is bitwise identical for every
// Params.Workers value (pinned by the campaign-equivalence harness and the
// golden campaign tests).
func (p *planner) prunedScores(d *decision) ([]pathScore, error) {
	const eps = 1e-12
	eligible, costPreds, rootEIc := d.eligible, d.costPreds, d.rootEIc

	maxEIc := 0.0
	for _, score := range rootEIc {
		if score > maxEIc {
			maxEIc = score
		}
	}

	// Discounted horizon weight: sum of discount^d for d = 1..Lookahead.
	horizon := 0.0
	pow := 1.0
	for d := 0; d < p.params.Lookahead; d++ {
		pow *= p.params.Discount
		horizon += pow
	}

	costLBs := make([]float64, len(eligible))
	bounds := make([]float64, len(eligible))
	for i, cand := range eligible {
		costLBs[i] = max(costPreds[i].Mean+p.setupCost(d.root.deployed, cand), eps)
		bounds[i] = (rootEIc[i] + horizon*maxEIc) / costLBs[i]
	}

	order := make([]int, len(eligible))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if bounds[order[a]] != bounds[order[b]] {
			return bounds[order[a]] > bounds[order[b]]
		}
		return eligible[order[a]].id < eligible[order[b]].id
	})

	seedCount := max(len(eligible)/pruneSeedDivisor, pruneMinSeeds)

	// Phase 1: evaluate every seed exactly.
	results := make([]pathScore, len(order))
	errs := make([]error, len(order))
	evalRank := func(w *specWorker, rank int) {
		s, err := p.evalPath(w, d, eligible[order[rank]])
		if err != nil {
			errs[rank] = err
			return
		}
		results[rank] = s
	}
	p.sched.run(seedCount, evalRank)
	if err := firstError(errs[:seedCount]); err != nil {
		return nil, err
	}

	// Phase 2: fix the threshold from the seed results, serially in rank
	// order, and prune the remaining candidates against it up front. The
	// discounted future reward of a path varies far less across root
	// candidates than the root EIc does, so the largest future reward
	// observed across the seeds, inflated by the safety factor, bounds the
	// rest; the discounted-horizon multiple of the best root EIc floors the
	// term, so a degenerate seed sample (every seed's speculation adding
	// nothing) can never tighten the bound below the static ranking optimism.
	// Survivor evaluations never move the threshold: the bound is a
	// calibrated heuristic, and which paths are evaluated must not depend on
	// the order they finish in. Both maxima start at 0 and skip NaN scores.
	threshold, maxFuture := 0.0, 0.0
	for rank, s := range results[:seedCount] {
		if ratio := s.reward / max(s.cost, eps); ratio > threshold {
			threshold = ratio
		}
		if f := s.reward - rootEIc[order[rank]]; f > maxFuture {
			maxFuture = f
		}
	}
	future := pruneOptimism * maxFuture
	if floor := horizon * maxEIc; future < floor {
		future = floor
	}
	survivors := make([]int, 0, len(order)-seedCount)
	for rank := seedCount; rank < len(order); rank++ {
		if i := order[rank]; (rootEIc[i]+future)/costLBs[i] >= threshold {
			survivors = append(survivors, rank)
		}
	}
	p.sched.run(len(survivors), func(w *specWorker, k int) {
		evalRank(w, survivors[k])
	})
	if err := firstError(errs[seedCount:]); err != nil {
		return nil, err
	}

	scores := make([]pathScore, 0, seedCount+len(survivors))
	for rank := 0; rank < seedCount; rank++ {
		scores = append(scores, results[rank])
	}
	for _, rank := range survivors {
		scores = append(scores, results[rank])
	}
	return scores, nil
}
