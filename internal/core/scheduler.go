package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the planner's parallel speculation scheduler: the
// path evaluations of a decision's root candidates fanned out over
// Params.Workers goroutines. That fan-out is the planner's only level of
// parallelism — everything below a root candidate runs serially on the worker
// that claimed it.
//
// Root indices are claimed from a lock-free injector (an atomic counter) in
// canonical (rank) order, so an expensive path never holds up the queue
// behind it and the imbalance at the end of a run is at most one path. A
// speculated outcome costs microseconds and allocates nothing, which is why
// nothing finer is scheduled: handing one to another worker would cost that
// worker a whole-model-set copy.
//
// Determinism contract: root i writes only the result slot the caller fixed
// for it before the run, and callers reduce the slots in canonical order after
// the join, so no value depends on which worker ran which path or in which
// order paths completed. Worker states persist on the planner across
// decisions; only the goroutines are per run.

// specWorker is one worker of the scheduler; only the goroutine running it
// touches its fields.
type specWorker struct {
	// ws is the one workspace every incremental-mode path this worker
	// evaluates speculates on, so its working copy, tree storage and per-depth
	// scratch stay warm across candidates and decisions. An isolated
	// planner's worker owns its workspace for good; a share-group planner's
	// holds one checked out of the group pool for the duration of each run
	// and none in between (see specScheduler.run).
	ws *pathWorkspace

	// counts is the useful-work counters of the nextStep sweeps this worker
	// runs, and modelCopies counts the whole model sets it copied into its
	// working copy.
	counts      sweepCounts
	modelCopies int
}

// specScheduler owns the persistent worker states. It is created once per
// planner (sized by Params.Workers) and reused for every decision; run
// spawns the worker goroutines per invocation.
type specScheduler struct {
	workers []*specWorker

	// pool and shape, when set, make every run check its participating
	// workers' workspaces out of the share group's pool — the cross-campaign
	// promotion that bounds retained scratch by the pool limit instead of the
	// campaign count. A workspace recycles value-neutral scratch (its working
	// copy is re-copied before its first use under a new holder), so where it
	// last served does not affect results.
	pool  *workspacePool
	shape string
}

// newSpecScheduler creates size workers (at least one). Without a pool each
// owns a workspace of its own; with one, workspaces are the pool's.
func newSpecScheduler(size int, pool *workspacePool, shape string) *specScheduler {
	s := &specScheduler{workers: make([]*specWorker, max(size, 1)), pool: pool, shape: shape}
	for i := range s.workers {
		w := &specWorker{}
		if pool == nil {
			w.ws = &pathWorkspace{}
			w.ws.owner.Store(w)
		}
		s.workers[i] = w
	}
	return s
}

// run executes root(w, i) for i in [0, n) on min(workers, n) goroutines and
// returns when every root has finished. Each worker claims the next unclaimed
// index, runs it to completion, and claims again.
func (s *specScheduler) run(n int, root func(w *specWorker, i int)) {
	if n <= 0 {
		return
	}
	active := s.workers[:min(len(s.workers), n)]
	if s.pool != nil {
		for _, w := range active {
			w.ws = s.pool.checkout(s.shape, w)
		}
		defer func() {
			for _, w := range active {
				s.pool.release(w.ws, w)
				w.ws = nil
			}
		}()
	}
	var claimed atomic.Int64
	body := func(w *specWorker) {
		for i := int(claimed.Add(1) - 1); i < n; i = int(claimed.Add(1) - 1) {
			root(w, i)
		}
	}
	var wg sync.WaitGroup
	for _, w := range active[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(active[0])
	wg.Wait()
}
