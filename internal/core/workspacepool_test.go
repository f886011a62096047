package core

import (
	"sync/atomic"
	"testing"
)

func TestWorkspacePoolCheckoutReleaseRecycles(t *testing.T) {
	p := newWorkspacePool(2)
	w0, w1 := &specWorker{}, &specWorker{}

	a := p.checkout("shape-a", w0)
	a.depth(0) // warm: what a recycled workspace must bring back
	p.release(a, w0)
	if got := p.retained(); got != 1 {
		t.Fatalf("retained = %d, want 1", got)
	}

	// The recycled workspace comes back warm — to any worker.
	b := p.checkout("shape-a", w1)
	if b != a || len(b.depths) != 1 {
		t.Fatal("shelved workspace was not recycled with its scratch")
	}
	b.assertOwner(w1)
	p.release(b, w1)

	// A different shape never shares a shelf.
	c := p.checkout("shape-b", w0)
	if c == a {
		t.Fatal("workspace crossed shapes")
	}
	p.release(c, w0)
}

func TestWorkspacePoolRetentionBound(t *testing.T) {
	p := newWorkspacePool(2)
	workers := []*specWorker{{}, {}, {}, {}}
	held := make([]*pathWorkspace, len(workers))
	for i, w := range workers {
		held[i] = p.checkout("s", w)
	}
	for i, w := range workers {
		p.release(held[i], w)
	}
	if got := p.retained(); got != 2 {
		t.Fatalf("retained = %d, want the limit 2", got)
	}
}

func TestWorkspacePoolOwnershipEnforced(t *testing.T) {
	p := newWorkspacePool(1)
	w0, w1 := &specWorker{}, &specWorker{}
	ws := p.checkout("s", w0)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("foreign use", func() { ws.assertOwner(w1) })
	mustPanic("foreign release", func() { p.release(ws, w1) })
	ws.assertOwner(w0) // neither attempt took the workspace from its holder
	p.release(ws, w0)
	mustPanic("use after release", func() { ws.assertOwner(w0) })
	mustPanic("double release", func() { p.release(ws, w0) })
}

// TestWorkspacePoolReleaseForgetsWorkingCopyBase: a shelved workspace must not
// recognise any root models when it is checked out again.
func TestWorkspacePoolReleaseForgetsWorkingCopyBase(t *testing.T) {
	pool := newWorkspacePool(2)
	w := &specWorker{}
	ws := pool.checkout("s", w)
	ws.base = &rootToken{}
	pool.release(ws, w)
	if got := pool.checkout("s", w); got != ws {
		t.Fatal("the shelved workspace was not recycled")
	} else if got.base != nil {
		t.Fatal("a shelved workspace still remembers the root models its copy was made from")
	}
}

// TestSharedSchedulerSwapsWorkspacesPerRun checks that a pool-wired scheduler's
// workers hold pooled workspaces during run and none after, and that an
// isolated scheduler's keep theirs.
func TestSharedSchedulerSwapsWorkspacesPerRun(t *testing.T) {
	s := newSpecScheduler(2, newWorkspacePool(8), "s")
	var ran atomic.Int64
	s.run(2, func(w *specWorker, i int) {
		w.ws.assertOwner(w)
		if w.ws.shape != "s" {
			t.Error("run with a pool did not check its workspace out of it")
		}
		ran.Add(1)
	})
	for _, w := range s.workers {
		if w.ws != nil {
			t.Fatal("a pooled workspace is still held after run")
		}
	}
	if s.pool.retained() == 0 {
		t.Fatal("no workspace returned to the pool after run")
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d root bodies, want 2", ran.Load())
	}

	iso := newSpecScheduler(2, nil, "")
	before := []*pathWorkspace{iso.workers[0].ws, iso.workers[1].ws}
	iso.run(2, func(w *specWorker, i int) { w.ws.assertOwner(w) })
	for i, w := range iso.workers {
		if w.ws == nil || w.ws != before[i] {
			t.Fatal("an isolated scheduler's worker lost its own workspace")
		}
	}
}
