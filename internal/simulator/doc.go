// Package simulator drives the paper's evaluation methodology (§5.2): it
// replays one or more optimizers against a profiled job many times, each run
// bootstrapped with a different (but across-optimizer shared) random seed,
// and aggregates the metrics the paper reports — the cost of the recommended
// configuration normalized to the optimum (CNO) and the number of
// explorations performed (NEX) — together with the per-exploration
// convergence traces used by Figure 7.
//
// The methodology is fixed, not configured: the runtime constraint Tmax
// admits half of the configurations, every run bootstraps
// N = max(3 %·|space|, #dims) LHS probes, and the budget is B = b·N·m̃, where
// m̃ is the job's mean configuration cost. A Config chooses only the job,
// the number of runs, b, the base seed and the worker count.
//
// Campaigns parallelize across runs: Config.Workers bounds how many
// optimization runs execute concurrently, and because run i always uses seed
// BaseSeed+i and lands at index i of the result, the campaign's outcome is
// identical for every worker count.
package simulator
