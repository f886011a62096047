package core

import (
	"sync/atomic"
	"testing"
)

// TestSchedulerRunsEveryRootExactlyOnce drives the injector across worker
// counts (including more workers than tasks) and checks every root index is
// executed exactly once.
func TestSchedulerRunsEveryRootExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		const n = 100
		counts := make([]atomic.Int64, n)
		sched := newSpecScheduler(workers, nil, "")
		sched.run(n, func(w *specWorker, i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: root %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}
