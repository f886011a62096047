// Package core implements Lynceus, the paper's primary contribution: a
// budget-aware and long-sighted Bayesian-optimization loop (Algorithms 1
// and 2) that selects which configuration to profile next by simulating
// bounded-lookahead exploration paths, discretizing speculated outcomes with
// Gauss-Hermite quadrature, and maximizing the expected reward-to-cost ratio
// of the path rooted at each candidate configuration.
//
// # Planning hot path
//
// One planning decision fits a root model set on the profiling history,
// precomputes its predictions for every candidate configuration in one batch
// sweep per model, and then scores the exploration path of every eligible
// candidate concurrently (Params.Workers wide). Four mechanisms keep the
// search fast without changing its outcome across worker counts:
//
//   - Prediction memo: every model is wrapped in a memo over the decision's
//     candidate slots — see internal/model.Cached — prefilled after every fit
//     and repaired in place by every one-sample update, so the planner
//     predicts each configuration once per speculation layer instead of once
//     per path, and every candidate sweep is an array read.
//   - Deterministic fan-out: root candidates are the one unit of parallel
//     work — workers claim them in rank order and everything below one runs
//     serially on its worker. Each path evaluation owns a scratch model set
//     whose random stream derives from the candidate ID, never from
//     scheduling order, and writes a rank-fixed result slot, so the same seed
//     yields the identical trial sequence and recommendation for every
//     Params.Workers value.
//   - Optimistic-bound pruning: for lookahead >= 2 the candidates are ranked
//     by an optimistic reward-to-cost bound, the top seeds are scored
//     exactly, and remaining candidates whose bound cannot beat the best
//     exact ratio are dropped without simulating their paths. The threshold
//     is fixed from the unconditionally evaluated seeds, so the pruned set
//     never depends on scheduling. There is no switch: searches at lookahead
//     < 2 or over at most 16 eligible candidates fan out over every one.
//   - Incremental speculative refits: Params.SpeculativeRefit selects whether
//     each speculated outcome refits the whole model set (Full, the paper's
//     exact behavior) or folds the one speculated sample into a working
//     copy of the models and takes it out again (Incremental — an order of
//     magnitude cheaper,
//     statistically equivalent, and what makes lookahead >= 3 interactive).
//     Auto resolves by lookahead and candidate count.
package core
