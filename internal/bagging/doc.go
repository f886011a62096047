// Package bagging implements the bootstrap-aggregated ensemble of regression
// trees that Lynceus uses as its black-box cost model (paper §3, §5.2): each
// of the ensemble's trees (10 by default) is fully grown on a bootstrap
// resample of n of the n profiled configurations, and the mean and spread of
// the individual tree predictions are the per-point mean and standard
// deviation that the constrained Expected Improvement acquisition function
// interprets as a Gaussian. The model is fixed: only the tree count and
// whether fits retain the state for incremental updates are configurable.
//
// Lynceus' path simulation refits an ensemble once per speculated outcome,
// which makes Fit the planner's single hottest operation; the ensemble
// therefore reuses its resample buffers across fits, and the regression trees
// beneath it (internal/regtree) avoid per-node allocations. Each ensemble
// draws from its own seed (model.BaggingFactory derives one per stream), so
// the planner's parallel fan-out never shares mutable model state between
// goroutines.
//
// Ensembles fitted with Params.Incremental additionally support the
// planner's incremental speculative-refit mode: CloneInto snapshots a fitted
// ensemble into reusable storage, Update folds one sample into the trees
// under deterministic Poisson(1) bootstrap-inclusion weights keyed by (seed,
// tree, sample index), Undo takes it back, and RepairLastUpdate refreshes,
// from the bookkeeping of a PredictBatchRepair sweep, exactly the predictions
// the update moved — see core.Params.SpeculativeRefit and
// docs/ARCHITECTURE.md, "Refit paths".
package bagging
