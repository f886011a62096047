package core

import (
	"sort"
	"testing"
	"time"
)

// TestPlannerLA3WorkerScalingSanity pins the regression the parallel
// speculation scheduler was built to fix: before it, LA=3 planning at 8
// workers was ~23% SLOWER per decision than at 1 worker (BENCH.json history)
// because the chunked pruning barriers and the contended workspace pool
// turned extra workers into pure overhead. With root candidates claimed from
// a lock-free injector, one join per run and one workspace per worker,
// multi-worker planning must never lose to serial planning beyond timing
// noise, however far the workers outnumber the cores.
//
// The test times the same fixed decision sequence (median of 3 repetitions,
// fresh planner each, so both sides plan identical iterations) and allows a
// 15% noise margin: wall-clock medians on shared CI hardware jitter by
// several percent, while the barrier-era regression was well beyond the
// margin. Skipped with -short; the per-worker benchmarks in
// planner_bench_test.go track the same numbers continuously via BENCH.json.
func TestPlannerLA3WorkerScalingSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling test skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive scaling test skipped under the race detector")
	}
	const decisions = 4
	const reps = 3
	measure := func(workers int) float64 {
		times := make([]float64, 0, reps)
		for rep := 0; rep < reps; rep++ {
			fixture := newPlannerBenchFixture(t, 3, SpecRefitAuto, workers, nil)
			// Warm-up decision (untimed): the first decision populates the
			// per-worker workspaces — working copies, eligibility buffers —
			// that persist across decisions in a real campaign.
			fixture.decide(t)
			start := time.Now()
			for d := 0; d < decisions; d++ {
				fixture.decide(t)
			}
			times = append(times, time.Since(start).Seconds())
		}
		sort.Float64s(times)
		return times[len(times)/2]
	}
	serial := measure(1)
	parallel := measure(8)
	t.Logf("LA=3 median for %d decisions: workers=1 %.3fs, workers=8 %.3fs (ratio %.2f)",
		decisions, serial, parallel, parallel/serial)
	const tolerance = 1.15
	if parallel > serial*tolerance {
		t.Errorf("LA=3 planning at 8 workers took %.3fs vs %.3fs at 1 worker (%.0f%% slower, tolerance %.0f%%): the speculation scheduler must not lose to serial planning",
			parallel, serial, (parallel/serial-1)*100, (tolerance-1)*100)
	}
}
