package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the planner's depth-aware parallel speculation
// scheduler: a small work-stealing task pool whose unit of work is a
// speculation subtree, not just a root candidate.
//
// The previous design fanned out only over root candidates — one worker per
// candidate, every speculation layer underneath strictly serial — so a few
// expensive lookahead-3 candidates pinned one worker each while the rest of
// the pool idled, and the chunked pruning-threshold tightening inserted a
// synchronization barrier between every chunk. Here, root candidates are
// claimed from a lock-free injector in canonical (rank) order, and the
// speculated outcomes of a candidate's first lookahead layers become bounded
// tasks on per-worker deques that idle workers steal. Joins are "helping":
// a parent whose children are still in flight executes other subtree tasks
// instead of blocking, so no worker ever parks while work exists.
//
// Determinism contract: tasks carry a result slot fixed at spawn time and
// parents reduce child results in canonical (combo-index) order after the
// join, so every reduction applies the same floating-point operations in the
// same order regardless of which worker ran which task, or in which order
// tasks completed. The scheduler itself never makes a value-affecting choice.
//
// Worker states — and with them the per-worker pathWorkspace arenas, see
// specWorker.free — persist on the planner across decisions; only the worker
// goroutines are per-decision.

// specTaskFn is one schedulable unit of work: a speculation subtree (or a
// whole root-candidate path evaluation). The executing worker is passed in so
// the task can draw scratch state from that worker's arena and spawn
// sub-tasks onto its deque.
type specTaskFn func(w *specWorker)

// specWorker is one worker of the scheduler. The deque holds spawned subtree
// tasks (owner pushes and pops at the tail, thieves steal at the head); free
// is the worker-private pathWorkspace arena — only the owning goroutine
// touches it, which is what replaces the contended global sync.Pool of the
// previous design and keeps the working copies' arenas warm across decisions.
type specWorker struct {
	id    int
	sched *specScheduler

	mu    sync.Mutex
	deque []specTaskFn

	// arena is the workspace freelist the worker currently draws from:
	// acquireWorkspace and releaseWorkspace always run on the owning
	// goroutine, so no lock is needed and the working copies (bagging
	// ensembles, regression-tree arenas) and eligibility buffers inside are reused
	// across candidates, subtrees and decisions without ever crossing a
	// synchronization point. For non-shared planners arena is the permanent
	// private one; shared incremental planners swap in a pool-checked-out
	// arena for the duration of each run (see specScheduler.run).
	arena   *wsArena
	private *wsArena

	// elig is the scratch and useful-work counters of the nextStep sweeps
	// this worker runs, and modelCopies counts the whole model sets it
	// copied into working copies; like the arena they are touched only by
	// the worker's own goroutine.
	elig        eligibleBuf
	modelCopies int
}

// acquireWorkspace hands out a recycled pathWorkspace (or a fresh one on a
// cold arena). Must be called from the worker's own goroutine.
func (w *specWorker) acquireWorkspace() *pathWorkspace {
	return w.arena.acquire(w)
}

// releaseWorkspace returns a workspace to the worker's arena. Must be called
// from the worker's own goroutine, after the releasing task no longer
// references the working copy inside (including from spawned children, which
// is guaranteed by joining the children first).
func (w *specWorker) releaseWorkspace(ws *pathWorkspace) {
	w.arena.release(w, ws)
}

// spawn pushes a subtree task onto the worker's deque, from where the owner
// pops it LIFO (locality: the most recently spawned subtree is the hottest)
// and idle workers steal it FIFO (the oldest task roots the largest remaining
// subtree, which keeps steals coarse).
func (w *specWorker) spawn(t specTaskFn) {
	w.mu.Lock()
	w.deque = append(w.deque, t)
	w.mu.Unlock()
}

// popLocal removes the most recently spawned task of this worker's deque.
func (w *specWorker) popLocal() specTaskFn {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return t
}

// stealFrom takes the oldest task of a victim's deque.
func (w *specWorker) stealFrom(v *specWorker) specTaskFn {
	v.mu.Lock()
	if len(v.deque) == 0 {
		v.mu.Unlock()
		return nil
	}
	t := v.deque[0]
	v.deque[0] = nil
	v.deque = v.deque[1:]
	v.mu.Unlock()
	return t
}

// findTask returns the next subtree task to run: the worker's own deque
// first, then a sweep over the other workers' deques.
func (w *specWorker) findTask() specTaskFn {
	if t := w.popLocal(); t != nil {
		return t
	}
	workers := w.sched.workers
	for off := 1; off < len(workers); off++ {
		if t := w.stealFrom(workers[(w.id+off)%len(workers)]); t != nil {
			return t
		}
	}
	return nil
}

// Idle backoff: a worker that finds no stealable task yields a few times
// before sleeping briefly. Pure Gosched spinning is fine on idle cores but
// actively steals cycles from the productive goroutines when workers
// outnumber GOMAXPROCS (the oversubscribed single-core case the scaling
// sanity test pins), while the sleep is far shorter than any subtree task,
// so wake-up latency stays negligible.
const (
	idleSpins = 4
	idleSleep = 50 * time.Microsecond
)

// idleWait backs off once per fruitless task search; *spins must be reset to
// zero whenever a task was found.
func idleWait(spins *int) {
	if *spins < idleSpins {
		*spins++
		runtime.Gosched()
		return
	}
	time.Sleep(idleSleep)
}

// help drains subtree tasks until pending reaches zero: the joining parent
// executes its own children (and, when those were stolen, anyone else's
// subtree tasks) instead of blocking. Only spawned subtree tasks are taken —
// never new root tasks — so the goroutine's task-nesting depth stays bounded
// by the spawn depth of the lookahead tree.
func (w *specWorker) help(pending *atomic.Int64) {
	spins := 0
	for pending.Load() > 0 {
		if t := w.findTask(); t != nil {
			spins = 0
			t(w)
			continue
		}
		idleWait(&spins)
	}
}

// specScheduler owns the persistent worker states. It is created once per
// planner (sized by Params.Workers) and reused for every decision; run
// spawns the worker goroutines per invocation.
type specScheduler struct {
	workers []*specWorker

	// wide makes run spawn every worker even when there are fewer root
	// tasks than workers. The planner sets it when subtree forking is
	// possible (incremental refits, lookahead >= 2): a decision whose
	// eligible set has shrunk below the worker count is exactly the regime
	// where the few remaining expensive paths fork, and the extra workers
	// exist to steal those subtrees. Without forking, spare workers would
	// only idle-poll, so non-forking planners keep the root-count cap.
	wide bool

	// pool and shape, when set, make every run check its participating
	// workers' arenas out of the share group's pool instead of using the
	// permanent private ones — the cross-campaign promotion that bounds
	// retained scratch by the pool limit instead of the campaign count.
	// Arenas recycle value-neutral scratch (a working copy is re-copied
	// before its first use under a new holder), so where a workspace last
	// served does not affect results.
	pool  *arenaPool
	shape string

	// claimed is the root-task injector of the current run (the count of
	// claimed indices) and rootCount its total. Forking policy derives the
	// unclaimed supply from them (see scarceRoots): while plenty of root
	// candidates are still queued, root-level parallelism alone keeps every
	// worker busy and forking subtrees would only pay task overhead; once
	// the injector runs dry, the remaining expensive paths fork so the
	// whole pool finishes the tail together.
	claimed   atomic.Int64
	rootCount int64
}

func newSpecScheduler(size int) *specScheduler {
	if size < 1 {
		size = 1
	}
	s := &specScheduler{workers: make([]*specWorker, size)}
	for i := range s.workers {
		w := &specWorker{id: i, sched: s}
		w.private = newPrivateArena(w)
		w.arena = w.private
		s.workers[i] = w
	}
	return s
}

// parallel reports whether the scheduler has more than one worker, i.e.
// whether forking speculation subtrees into tasks can gain anything.
func (s *specScheduler) parallel() bool { return len(s.workers) > 1 }

// scarceRoots reports whether the unclaimed root-task supply of the current
// run has dropped below the worker count — the regime where subtree forking
// is the only way to keep the pool busy. Scheduling-dependent by design:
// forked and serial subtree evaluations produce bitwise-identical results,
// so this only decides where work runs, never what it computes.
func (s *specScheduler) scarceRoots() bool {
	return s.rootCount-s.claimed.Load() < int64(len(s.workers))
}

// run executes root(w, i) for i in [0, n): a lock-free injector (an atomic
// counter) hands out root indices in canonical order, and each claimed root
// task runs to completion — including the join of every subtree task it
// forked — before its worker claims the next. After the injector drains,
// workers keep stealing leftover subtree tasks of still-active roots until
// everything completed, so the tail of a decision is worked by the whole
// pool instead of one straggler.
//
// run returns only when every root task (and every subtree task transitively
// spawned by one) has finished.
func (s *specScheduler) run(n int, root func(w *specWorker, i int)) {
	if n <= 0 {
		return
	}
	workers := len(s.workers)
	if workers > n && !s.wide {
		workers = n
	}
	if s.pool != nil {
		for i := 0; i < workers; i++ {
			w := s.workers[i]
			w.arena = s.pool.checkout(s.shape, w)
		}
		defer func() {
			for i := 0; i < workers; i++ {
				w := s.workers[i]
				s.pool.release(w.arena, w)
				w.arena = w.private
			}
		}()
	}
	var activeRoots atomic.Int64
	s.rootCount = int64(n)
	s.claimed.Store(0)
	body := func(w *specWorker) {
		for {
			i := int(s.claimed.Add(1) - 1)
			if i >= n {
				break
			}
			activeRoots.Add(1)
			root(w, i)
			activeRoots.Add(-1)
		}
		// Tail assist: the injector is empty, but roots claimed by other
		// workers may still hold stealable subtree tasks.
		spins := 0
		for activeRoots.Load() > 0 {
			if t := w.findTask(); t != nil {
				spins = 0
				t(w)
				continue
			}
			idleWait(&spins)
		}
	}
	if workers == 1 {
		body(s.workers[0])
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(w *specWorker) {
			defer wg.Done()
			body(w)
		}(s.workers[i])
	}
	body(s.workers[0])
	wg.Wait()
}

// atomicMaxFloat publishes a monotonically tightening non-negative bound
// without locks: Max only ever raises the stored value, so readers may
// observe a stale-but-valid (looser) bound and still make conservative
// decisions. The pruning threshold of prunedScores is published through two
// of these, which is what removed the chunk barriers of the previous design.
// Only non-negative values may be stored (the zero value reads as 0).
type atomicMaxFloat struct {
	bits atomic.Uint64
}

// Load returns the current bound.
func (a *atomicMaxFloat) Load() float64 {
	return math.Float64frombits(a.bits.Load())
}

// Max raises the bound to v if v is larger.
func (a *atomicMaxFloat) Max(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
