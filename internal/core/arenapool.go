package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the shared workspace arena pool of a ShareGroup.
//
// Without sharing, every planner's scheduler owns one pathWorkspace arena per
// worker for the lifetime of the campaign — N concurrent campaigns with K
// workers each hold O(N*K) arenas, nearly all of them idle at any instant
// because only ~GOMAXPROCS schedulers actually run at once. The pool
// promotes those arenas to group-shared, checked out per scheduler run and
// returned afterwards, so N campaigns hold O(GOMAXPROCS) warm arenas total.
//
// Arenas are keyed by a shape string (model factory, model params,
// constraint count — everything that determines the layout of the working
// copies inside) so a checked-out arena's recycled workspaces always match
// what the planner would have built privately. Reusing a workspace across
// campaigns is safe because a working copy is only ever used under the token
// of the root models it was copied from, a shelved arena's workspaces
// remember no token (release clears them, so they neither match a later
// decision nor pin an earlier one), and the copy that follows re-seeds and
// fully overwrites every value-affecting field (bagging CloneInto copies
// seed, params, trees and repair state and drops the journal; nothing of the
// previous campaign survives into a prediction).
//
// Ownership is enforced, not assumed: an arena is stamped with the worker
// holding it (a CAS on checkout and release), and every acquire/release of a
// workspace asserts the stamp. A double checkout or a foreign release is a
// bug in the sharing layer and panics immediately instead of corrupting
// scratch state.

// wsArena is one worker's workspace freelist. Only the owning worker — the
// one the owner stamp points at — may touch free, which keeps the freelist
// lock-free exactly like the private per-worker arenas it replaces.
type wsArena struct {
	// shape identifies the workspace layout this arena recycles (see
	// arenaShape); pooled arenas only ever serve planners of the same shape.
	// Private arenas carry an empty shape and never enter a pool.
	shape string

	// owner is the worker currently holding the arena. Private arenas are
	// stamped at construction and never release; pooled arenas are stamped by
	// checkout and cleared by release.
	owner atomic.Pointer[specWorker]

	free []*pathWorkspace
}

// newPrivateArena creates an arena permanently owned by w — the non-shared
// planner case, byte-for-byte the behavior of the former per-worker freelist.
func newPrivateArena(w *specWorker) *wsArena {
	a := &wsArena{}
	a.owner.Store(w)
	return a
}

func (a *wsArena) assertOwner(w *specWorker) {
	if a.owner.Load() != w {
		panic("core: workspace arena touched by a non-owning worker")
	}
}

// acquire hands out a recycled pathWorkspace (or a fresh one on a cold
// arena). Must be called by the owning worker's goroutine.
func (a *wsArena) acquire(w *specWorker) *pathWorkspace {
	a.assertOwner(w)
	if n := len(a.free); n > 0 {
		ws := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return ws
	}
	return &pathWorkspace{}
}

// release returns a workspace to the arena. Must be called by the owning
// worker's goroutine, after the releasing task no longer references the
// working copy inside.
func (a *wsArena) release(w *specWorker, ws *pathWorkspace) {
	a.assertOwner(w)
	a.free = append(a.free, ws)
}

// arenaPool shelves idle arenas by shape. Checkout and release are short
// critical sections (pop/push on a slice under one mutex); all workspace
// traffic happens on the checked-out arena without the pool lock.
type arenaPool struct {
	mu      sync.Mutex
	shelves map[string][]*wsArena

	// limit bounds the idle arenas retained per shape; releases beyond it
	// drop the arena for the GC, which is what turns O(campaigns*workers)
	// retained scratch into O(GOMAXPROCS).
	limit int
}

func newArenaPool(limit int) *arenaPool {
	if limit < 1 {
		limit = 1
	}
	return &arenaPool{shelves: make(map[string][]*wsArena), limit: limit}
}

// checkout hands w an idle arena of the shape (or a fresh one) and stamps w
// as its owner. Panics if the shelved arena is somehow still owned — that
// would mean two schedulers hold it at once.
func (p *arenaPool) checkout(shape string, w *specWorker) *wsArena {
	var a *wsArena
	p.mu.Lock()
	if shelf := p.shelves[shape]; len(shelf) > 0 {
		a = shelf[len(shelf)-1]
		shelf[len(shelf)-1] = nil
		p.shelves[shape] = shelf[:len(shelf)-1]
	}
	p.mu.Unlock()
	if a == nil {
		a = &wsArena{shape: shape}
	}
	if !a.owner.CompareAndSwap(nil, w) {
		panic("core: arena checked out while still owned")
	}
	return a
}

// release clears the owner stamp and shelves the arena for the next
// checkout, dropping it instead when the shape's shelf is full. Every
// workspace is back on the freelist by now (the run has joined), and forgets
// which root models its working copy equals: the next holder may be another
// campaign. Panics if w does not own the arena.
func (p *arenaPool) release(a *wsArena, w *specWorker) {
	for _, ws := range a.free {
		ws.base = nil
	}
	if !a.owner.CompareAndSwap(w, nil) {
		panic("core: arena released by a non-owning worker")
	}
	p.mu.Lock()
	if shelf := p.shelves[a.shape]; len(shelf) < p.limit {
		p.shelves[a.shape] = append(shelf, a)
	}
	p.mu.Unlock()
}

// retained returns the number of idle arenas currently shelved (all shapes).
func (p *arenaPool) retained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, shelf := range p.shelves {
		n += len(shelf)
	}
	return n
}

// arenaShape derives the pool shelf key of a planner: everything that
// determines the layout and reuse-compatibility of the pathWorkspaces inside
// (the working copies are rebuilt from the root models of each decision, so
// only structural parameters matter, not per-campaign seeds or histories).
func (p *planner) arenaShape() string {
	return fmt.Sprintf("%T|%s|%+v|x%d", p.factory, p.factory.Name(), p.params.Model, len(p.opts.ExtraConstraints))
}
