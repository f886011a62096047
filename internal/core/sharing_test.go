package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/optimizer"
)

// sameTrials compares two trial sequences bitwise (IDs, cost and runtime
// bits, timeout flags, extra metrics).
func sameTrials(t *testing.T, label string, got, want []optimizer.TrialResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trials, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Config.ID != w.Config.ID {
			t.Fatalf("%s: trial %d config %d, want %d", label, i, g.Config.ID, w.Config.ID)
		}
		if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) ||
			math.Float64bits(g.RuntimeSeconds) != math.Float64bits(w.RuntimeSeconds) ||
			g.TimedOut != w.TimedOut {
			t.Fatalf("%s: trial %d differs: %+v vs %+v", label, i, g, w)
		}
		for k, v := range w.Extra {
			if math.Float64bits(g.Extra[k]) != math.Float64bits(v) {
				t.Fatalf("%s: trial %d extra %q = %v, want %v", label, i, k, g.Extra[k], v)
			}
		}
	}
}

func sameResult(t *testing.T, label string, got, want optimizer.Result) {
	t.Helper()
	if got.Recommended.Config.ID != want.Recommended.Config.ID {
		t.Fatalf("%s: recommended %d, want %d", label, got.Recommended.Config.ID, want.Recommended.Config.ID)
	}
	if got.RecommendedFeasible != want.RecommendedFeasible {
		t.Fatalf("%s: feasible %v, want %v", label, got.RecommendedFeasible, want.RecommendedFeasible)
	}
	if math.Float64bits(got.SpentBudget) != math.Float64bits(want.SpentBudget) {
		t.Fatalf("%s: spent %v, want %v", label, got.SpentBudget, want.SpentBudget)
	}
	sameTrials(t, label, got.Trials, want.Trials)
}

// TestShareGroupRetainsNoDroppedCampaign is the retention ratchet of the
// share group: campaigns created into one group, each on its own freshly
// built environment, stepped past two planning decisions and then dropped,
// must be collectable — the group keeps decision keys and shelved workspaces,
// never a campaign, environment or space. The bound is 90 %, not 100 %:
// a shelved workspace's scratch (candidate views, feature columns of its last
// holder) may still alias the space of the campaign that released it, and the
// pool shelves at most 2·GOMAXPROCS+2 workspaces per shape.
func TestShareGroupRetainsNoDroppedCampaign(t *testing.T) {
	const campaigns = 200
	params := fastParams(1)
	params.SpeculativeRefit = SpecRefitIncremental // the mode that uses the pool
	l, err := New(params)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	g := NewShareGroup()
	var finalized atomic.Int64
	for i := 0; i < campaigns; i++ {
		env := fixtureEnv(t)
		runtime.SetFinalizer(env, func(*optimizer.JobEnvironment) { finalized.Add(1) })
		c, err := l.NewCampaign(env, fixtureOptions(t, int64(i%8)), g)
		if err != nil {
			t.Fatalf("NewCampaign error: %v", err)
		}
		for c.planner.iteration < 2 {
			done, err := c.Step()
			if err != nil {
				t.Fatalf("campaign %d: %v", i, err)
			}
			if done {
				t.Fatalf("campaign %d finished before its second decision", i)
			}
		}
	}
	if g.decisions.Len() == 0 {
		t.Fatal("no decision was published: the campaigns did not share")
	}
	// Two collections free them (the first queues the finalizers); the loop
	// only gives the finalizer goroutine time to run on a loaded machine.
	for deadline := time.Now().Add(5 * time.Second); finalized.Load() < campaigns*9/10 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got < campaigns*9/10 {
		t.Fatalf("%d of %d dropped campaigns' environments were collected, want at least %d: the share group retains them",
			got, campaigns, campaigns*9/10)
	}
	runtime.KeepAlive(g)
}
