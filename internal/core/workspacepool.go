package core

import (
	"fmt"
	"sync"
)

// This file implements the shared workspace pool of a ShareGroup.
//
// Without sharing, every planner's scheduler owns one pathWorkspace per worker
// for the lifetime of the campaign — N concurrent campaigns with K workers
// each hold O(N*K) workspaces, nearly all of them idle at any instant because
// only ~GOMAXPROCS schedulers actually run at once. The pool promotes them to
// group-shared, checked out per scheduler run and returned afterwards, so N
// campaigns hold O(GOMAXPROCS) warm workspaces total.
//
// Workspaces are keyed by a shape string (model factory, model params,
// constraint count — everything that determines the layout of the working
// copy inside) so a checked-out workspace always matches what the planner
// would have built privately. Reusing one across campaigns is safe because a
// working copy is only ever used under the token of the root models it was
// copied from, a shelved workspace remembers no token (release clears it, so
// it neither matches a later decision nor pins an earlier one), and the copy
// that follows re-seeds and fully overwrites every value-affecting field
// (bagging CloneInto copies seed, params, trees and repair state and drops the
// journal; nothing of the previous campaign survives into a prediction).
//
// Ownership is enforced, not assumed: a workspace is stamped with the worker
// holding it (a CAS on checkout and release), and every path evaluation
// asserts the stamp before speculating on it. A double checkout, a foreign
// release or a use after release is a bug in the sharing layer and panics
// immediately instead of corrupting scratch state.

// assertOwner panics unless w is the worker holding the workspace.
func (ws *pathWorkspace) assertOwner(w *specWorker) {
	if ws.owner.Load() != w {
		panic("core: path workspace used by a worker that does not hold it")
	}
}

// workspacePool shelves idle workspaces by shape. Checkout and release are
// short critical sections (pop/push on a slice under one mutex); everything a
// path does to a checked-out workspace happens without the pool lock.
type workspacePool struct {
	mu      sync.Mutex
	shelves map[string][]*pathWorkspace

	// limit bounds the idle workspaces retained per shape; releases beyond it
	// drop the workspace for the GC, which is what turns
	// O(campaigns*workers) retained scratch into O(GOMAXPROCS).
	limit int
}

func newWorkspacePool(limit int) *workspacePool {
	return &workspacePool{shelves: make(map[string][]*pathWorkspace), limit: max(limit, 1)}
}

// checkout hands w an idle workspace of the shape (or a fresh one) and stamps
// w as its owner. Panics if the shelved workspace is somehow still owned —
// that would mean two schedulers hold it at once.
func (p *workspacePool) checkout(shape string, w *specWorker) *pathWorkspace {
	var ws *pathWorkspace
	p.mu.Lock()
	if shelf := p.shelves[shape]; len(shelf) > 0 {
		ws = shelf[len(shelf)-1]
		shelf[len(shelf)-1] = nil
		p.shelves[shape] = shelf[:len(shelf)-1]
	}
	p.mu.Unlock()
	if ws == nil {
		ws = &pathWorkspace{shape: shape}
	}
	if !ws.owner.CompareAndSwap(nil, w) {
		panic("core: workspace checked out while still owned")
	}
	return ws
}

// release clears the owner stamp and shelves the workspace for the next
// checkout, dropping it instead when the shape's shelf is full. The workspace
// forgets which root models its working copy equals: the next holder may be
// another campaign. Panics if w does not hold the workspace.
func (p *workspacePool) release(ws *pathWorkspace, w *specWorker) {
	if !ws.owner.CompareAndSwap(w, nil) {
		panic("core: workspace released by a worker that does not hold it")
	}
	ws.base = nil
	p.mu.Lock()
	if shelf := p.shelves[ws.shape]; len(shelf) < p.limit {
		p.shelves[ws.shape] = append(shelf, ws)
	}
	p.mu.Unlock()
}

// retained returns the number of idle workspaces currently shelved (all
// shapes).
func (p *workspacePool) retained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, shelf := range p.shelves {
		n += len(shelf)
	}
	return n
}

// workspaceShape derives the pool shelf key of a planner: everything that
// determines the layout and reuse-compatibility of the pathWorkspaces inside
// (the working copies are rebuilt from the root models of each decision, so
// only structural parameters matter, not per-campaign seeds or histories).
func (p *planner) workspaceShape() string {
	return fmt.Sprintf("%T|%s|%+v|x%d", p.factory, p.factory.Name(), p.params.Model, len(p.opts.ExtraConstraints))
}
