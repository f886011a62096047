package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/optimizer"
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

// TestAtomicMaxFloatMonotone hammers the lock-free bound from several
// goroutines; the result must be the global maximum and intermediate reads
// must never decrease.
func TestAtomicMaxFloatMonotone(t *testing.T) {
	var bound atomicMaxFloat
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := 0.0
			for i := 0; i < 1000; i++ {
				v := float64((i*7+g*13)%997) / 997
				bound.Max(v)
				if got := bound.Load(); got < prev {
					t.Errorf("bound decreased: %v after %v", got, prev)
					return
				} else {
					prev = got
				}
			}
		}(g)
	}
	wg.Wait()
	if got := bound.Load(); got != float64(996)/997 {
		t.Fatalf("final bound = %v, want %v", bound.Load(), float64(996)/997)
	}
}

// TestConcurrentCampaignsThroughScheduler runs two whole optimization
// campaigns concurrently, each with a multi-worker scheduler and incremental
// speculation, and checks both reproduce the serial reference trial sequence.
// Under -race (the CI race step runs this package) it verifies the scheduler,
// the per-worker workspaces and the lock-free memo reads share nothing across
// planner instances.
func TestConcurrentCampaignsThroughScheduler(t *testing.T) {
	params := fastParams(2)
	params.Workers = 4
	params.SpeculativeRefit = SpecRefitIncremental

	reference := func() []int {
		serial := params
		serial.Workers = 1
		l, err := New(serial)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := l.Optimize(fixtureEnv(t), fixtureOptions(t, 29))
		if err != nil {
			t.Fatalf("reference Optimize: %v", err)
		}
		ids := make([]int, len(res.Trials))
		for i, tr := range res.Trials {
			ids[i] = tr.Config.ID
		}
		return ids
	}()

	const campaigns = 2
	var wg sync.WaitGroup
	trialIDs := make([][]int, campaigns)
	errs := make([]error, campaigns)
	envs := make([]*optimizer.JobEnvironment, campaigns)
	for c := range envs {
		envs[c] = fixtureEnv(t) // built on the test goroutine: t.Fatalf is illegal off it
	}
	opts := fixtureOptions(t, 29)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l, err := New(params)
			if err != nil {
				errs[c] = err
				return
			}
			res, err := l.Optimize(envs[c], opts)
			if err != nil {
				errs[c] = err
				return
			}
			ids := make([]int, len(res.Trials))
			for i, tr := range res.Trials {
				ids[i] = tr.Config.ID
			}
			trialIDs[c] = ids
		}(c)
	}
	wg.Wait()
	for c := 0; c < campaigns; c++ {
		if errs[c] != nil {
			t.Fatalf("campaign %d: %v", c, errs[c])
		}
		if len(trialIDs[c]) != len(reference) {
			t.Fatalf("campaign %d made %d trials, reference %d", c, len(trialIDs[c]), len(reference))
		}
		for i := range reference {
			if trialIDs[c][i] != reference[i] {
				t.Fatalf("campaign %d trial %d = config %d, reference %d",
					c, i, trialIDs[c][i], reference[i])
			}
		}
	}
}
